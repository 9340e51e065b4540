import itertools

import pytest

from legrack.census import (
    _canonical_first_columns,
    _search_shard,
    enumerate_racks,
)
from legrack.coloring import permutation_structures
from legrack.perms import compose, cycle_type, identity, inverse, power
from legrack.racks import (
    MAX_RACK_ORDER,
    RackError,
    RackTable,
    _iso_search,
    alexander_quandle,
    automorphism_group,
    dihedral_quandle,
    inner_group,
    load_rack,
    permutation_rack,
    rack_flags,
    rack_from_text,
    rack_to_text,
    save_rack,
    trivial_quandle,
    ts_rack,
    validate_rack,
)
from test_census import cols_to_table


def test_validate_accepts_families():
    validate_rack(trivial_quandle(2).rows)
    validate_rack(dihedral_quandle(3).rows)


def test_validate_rejects_r1():
    with pytest.raises(RackError) as exc:
        validate_rack([[0, 0], [0, 1]])
    assert exc.value.axiom == "R1"
    assert exc.value.witness == 0


def test_validate_rejects_r2_with_witness():
    # columns are permutations but self-distributivity fails
    table = [[0, 1, 0], [1, 2, 1], [2, 0, 2]]
    with pytest.raises(RackError) as exc:
        validate_rack(table)
    assert exc.value.axiom == "R2"
    x, y, z = exc.value.witness
    assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]


def test_validate_rejects_out_of_range():
    with pytest.raises(RackError) as exc:
        validate_rack([[0, 5], [1, 0]])
    assert exc.value.axiom == "range"
    # a bool is an int in Python, but not a rack element
    with pytest.raises(RackError) as exc:
        validate_rack([[False, False], [True, True]])
    assert exc.value.axiom == "range"
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_rack((True, False))


def test_dihedral_entry():
    assert dihedral_quandle(3).rows[0][1] == 2  # 2*1 - 0 mod 3


def test_permutation_rack_kink_is_sigma():
    sigma = (1, 2, 0)
    flags = rack_flags(permutation_rack(sigma))
    assert flags.kink == sigma
    assert not flags.is_quandle


def test_ts_rack_with_s_one_minus_t_is_alexander():
    for n, t in [(5, 2), (5, 3), (7, 3), (8, 3)]:
        assert ts_rack(n, t, (1 - t) % n).rows == alexander_quandle(n, t).rows


def test_ts_rack_not_quandle_when_s_differs():
    # n=4, t=3: s^2 = s(1-t) = -2s mod 4 admits s=2 besides s=1-t=2... use n=9,t=4
    r = ts_rack(9, 4, 3)  # 3*3 = 9 = 3*(1-4) = -9 mod 9
    assert not rack_flags(r).is_quandle


def test_family_parameter_validation():
    with pytest.raises(RackError):
        alexander_quandle(4, 2)  # gcd(2,4) != 1
    with pytest.raises(RackError):
        ts_rack(5, 2, 3)  # 9 != 3*(1-2) mod 5


def test_rack_flags_examples():
    for n in (2, 3, 5):
        flags = rack_flags(dihedral_quandle(n))
        assert flags.is_quandle and flags.is_involutory
    assert not rack_flags(ts_rack(9, 4, 3)).is_quandle


def test_flags_and_column_types_are_cached_and_match_direct_computation():
    for n in range(5):
        for rack in enumerate_racks(n):
            flags = rack_flags(rack)
            assert flags is rack_flags(rack)
            assert flags.kink == tuple(rack.rows[x][x] for x in range(n))
            assert flags.is_quandle == (flags.kink == identity(n))
            assert flags.is_involutory == all(
                compose(c, c) == identity(n) for c in rack.columns)
            assert rack.column_types is rack.column_types
            assert rack.column_types == tuple(cycle_type(c)
                                              for c in rack.columns)
            assert rack.inv_rows is rack.inv_rows
            assert rack.element_colors is rack.element_colors
            assert rack.element_colors == tuple(
                (cycle_type(rack.columns[x]),
                 min(k for k in range(1, n + 1)
                     if power(flags.kink, k)[x] == x),
                 tuple(sorted((row.count(v) for v in set(row)),
                              reverse=True)))
                for x, row in enumerate(rack.rows))
            assert all(rack.rows[rack.inv_rows[x][y]][y] == x
                       for x in range(n) for y in range(n))


def test_from_columns_rebuilds_the_table():
    for rack in [dihedral_quandle(5), ts_rack(9, 4, 3), *enumerate_racks(3)]:
        copy = RackTable.from_columns(rack.columns)
        assert copy == rack
        assert copy.columns == rack.columns


def test_automorphism_groups():
    assert automorphism_group(trivial_quandle(3)).order == 6
    assert automorphism_group(dihedral_quandle(3)).order == 6
    # Aut(X_sigma) for an n-cycle sigma is the cyclic group it generates
    for n in (3, 4, 5):
        sigma = tuple((i + 1) % n for i in range(n))
        aut = automorphism_group(permutation_rack(sigma))
        assert aut.order == n
        assert sigma in aut


def test_automorphism_group_matches_brute_force(rack_classes):
    # the search yields each automorphism once, in lexicographic order
    racks = [dihedral_quandle(4), permutation_rack((1, 0, 3, 2)),
             alexander_quandle(5, 2)]
    racks += [rack for n in range(6) for rack in rack_classes[n]]
    for rack in racks:
        brute = [
            phi for phi in itertools.permutations(range(rack.n))
            if all(phi[rack.rows[x][y]] == rack.rows[phi[x]][phi[y]]
                   for x in range(rack.n) for y in range(rack.n))
        ]
        assert list(_iso_search(rack, rack)) == brute, rack.rows
        assert automorphism_group(rack).elements == set(brute), rack.rows


def test_iso_search_yields_the_least_one_first(rack_classes):
    # every raw table of the column search of order <= 5 against every
    # representative: the colored search yields every isomorphism, each
    # once and in lexicographic order, so its first yield is there exactly
    # when an isomorphism exists, and is the lexicographically least.  The
    # brute force carries the table along each phi of S_n, in
    # lexicographic order, and looks the image up among the
    # representatives.
    for n in range(1, 6):
        reps = rack_classes[n]
        by_rows = {rep.rows: i for i, rep in enumerate(reps)}
        for first_col in _canonical_first_columns(n):
            for cols in _search_shard(n, first_col):
                raw = cols_to_table(n, cols)
                isos = [[] for _ in reps]
                for phi in itertools.permutations(range(n)):
                    image = [[0] * n for _ in range(n)]
                    for x in range(n):
                        for y in range(n):
                            image[phi[x]][phi[y]] = phi[raw.rows[x][y]]
                    i = by_rows.get(tuple(map(tuple, image)))
                    if i is not None:
                        isos[i].append(phi)
                assert sum(map(bool, isos)) == 1, raw.rows
                assert [list(_iso_search(raw, rep)) for rep in reps] == \
                    isos, raw.rows
                assert [next(_iso_search(raw, rep), None) for rep in reps] == \
                    [found[0] if found else None for found in isos], raw.rows


def test_automorphism_group_is_searched_once_per_table():
    rack = dihedral_quandle(5)
    assert automorphism_group(rack) is automorphism_group(rack)
    assert automorphism_group(rack) == \
        automorphism_group(dihedral_quandle(5))


def _sigmas_to_check():
    """Every sigma of order <= 5, and one sigma per cycle type of order 6."""
    for n in range(6):
        yield from itertools.permutations(range(n))
    reps = {}
    for sigma in itertools.permutations(range(6)):
        reps.setdefault(cycle_type(sigma), sigma)
    assert len(reps) == 11
    yield from reps.values()


def test_permutation_rack_seeds_aut_and_gl_center_as_the_search_finds():
    # the centralizer listed from the cycle type against the search; the
    # sorted order is what the structure walk reads
    for sigma in _sigmas_to_check():
        rack = permutation_rack(sigma)
        plain = RackTable(rack.n, rack.rows)
        searched = frozenset(_iso_search(plain, plain))
        for group in (rack.automorphisms, rack.gl_center):
            assert group.degree == rack.n
            assert group.elements == searched, sigma
            assert group.sorted_elements() == \
                plain.gl_center.sorted_elements(), sigma
        assert rack == plain and rack.columns == plain.columns


def test_permutation_structures_make_no_aut_search(iso_search_calls):
    assert sum(1 for _ in permutation_structures(
        4, conjugacy_reps_only=False)) == 1 + 8 + 66 + 1032
    assert iso_search_calls == []


def test_inner_groups():
    assert inner_group(trivial_quandle(4)).order == 1
    sigma = (1, 2, 0)
    assert inner_group(permutation_rack(sigma)).elements == \
        {identity(3), sigma, inverse(sigma)}
    assert inner_group(dihedral_quandle(3)).order == 6


def test_iso_search_examples():
    t3 = trivial_quandle(3)
    assert next(_iso_search(t3, t3)) == identity(3)
    assert next(_iso_search(trivial_quandle(2), permutation_rack((1, 0))),
                None) is None
    d5 = dihedral_quandle(5)
    relabel = (2, 4, 0, 3, 1)  # d5 carried along a non-identity relabelling
    back = inverse(relabel)
    moved = validate_rack([[relabel[d5.rows[back[x]][back[y]]]
                            for y in range(5)] for x in range(5)])
    assert moved.rows != d5.rows
    phi = next(_iso_search(d5, moved), None)
    assert phi is not None
    assert all(phi[d5.rows[x][y]] == moved.rows[phi[x]][phi[y]]
               for x in range(5) for y in range(5))


def test_isomorphism_preserves_structure():
    a = alexander_quandle(5, 2)
    b = alexander_quandle(5, 3)
    phi = next(_iso_search(a, b), None)
    if phi is not None:
        for x in range(5):
            for y in range(5):
                assert phi[a.rows[x][y]] == b.rows[phi[x]][phi[y]]


@pytest.mark.parametrize("rack", [
    trivial_quandle(4),
    dihedral_quandle(5),
    alexander_quandle(5, 2),
    permutation_rack((1, 2, 0, 4, 3)),
    ts_rack(9, 4, 3),
])
def test_kink_map_properties(rack):
    flags = rack_flags(rack)
    pi = flags.kink
    aut = automorphism_group(rack)
    assert pi in aut
    for phi in aut.sorted_elements():
        assert compose(phi, pi) == compose(pi, phi)
    # inverse kink is x >^-1 x
    pi_inv = inverse(pi)
    for x in range(rack.n):
        assert pi_inv[x] == rack.inv_rows[x][x]


@pytest.mark.parametrize("rack", [
    trivial_quandle(3),
    dihedral_quandle(4),
    permutation_rack((1, 0, 2, 3)),
    alexander_quandle(5, 4),
])
def test_inner_is_normal_in_aut(rack):
    aut = automorphism_group(rack)
    inn = inner_group(rack)
    for phi in aut.sorted_elements():
        phi_inv = inverse(phi)
        for g in inn.sorted_elements():
            assert compose(compose(phi, g), phi_inv) in inn


@pytest.mark.parametrize("rack", [
    dihedral_quandle(4),
    permutation_rack((1, 2, 0)),
    alexander_quandle(5, 2),
])
def test_columns_transform_under_automorphisms(rack):
    # b_{phi(y)} = phi o b_y o phi^-1
    for phi in automorphism_group(rack).sorted_elements():
        phi_inv = inverse(phi)
        for y in range(rack.n):
            lhs = rack.columns[phi[y]]
            rhs = compose(compose(phi, rack.columns[y]), phi_inv)
            assert lhs == rhs


def test_order_zero_rack():
    empty = validate_rack([])
    assert empty.n == 0
    assert automorphism_group(empty).order == 1
    assert inner_group(empty).order == 1


def test_text_roundtrip(tmp_path):
    for rack in [trivial_quandle(3), dihedral_quandle(4), ts_rack(9, 4, 3)]:
        text = rack_to_text(rack)
        assert rack_from_text(text).rows == rack.rows
        path = tmp_path / "r.rack"
        save_rack(rack, path)
        assert load_rack(path).rows == rack.rows
        assert path.read_text() == text


def test_text_parse_errors():
    with pytest.raises(RackError):
        rack_from_text("2\n0 0\n0 1\n")  # R1 failure
    with pytest.raises(RackError):
        rack_from_text("# only comments\n")
    with pytest.raises(RackError):
        rack_from_text("2\n0 1\n")  # missing row
    with pytest.raises(RackError):
        rack_from_text("2\nx y\n1 0\n")
    with pytest.raises(RackError, match="order must be nonnegative"):
        rack_from_text("-1\n")


def test_rack_text_order_bound():
    """An order up to ``MAX_RACK_ORDER`` passes on to its rows; one past it
    is rejected with the bound and its reason before any row is parsed, so
    neither a body of the declared size nor a malformed one is read."""
    assert MAX_RACK_ORDER == 256
    with pytest.raises(RackError, match="expected 256 table rows, got 0"):
        rack_from_text("256\n")
    with pytest.raises(RackError, match="line 2: expected integers"):
        rack_from_text("256\n" + "x\n" * 256)
    past = MAX_RACK_ORDER + 1
    want = (f"line 2: order {past} is above {MAX_RACK_ORDER}, the largest "
            f"order read: validating a table checks its n^3 triples")
    for body in ("", "x y\n", " ".join(["0"] * past) + "\n"):
        with pytest.raises(RackError) as info:
            rack_from_text(f"# too big\n{past}\n{body}")
        assert str(info.value).startswith(want), str(info.value)
    with pytest.raises(RackError, match=f"order {10 ** 9} is above"):
        rack_from_text(f"{10 ** 9}\n")


def test_comments_and_blank_lines_ignored():
    text = "# dihedral 3\n3\n\n0 2 1  # row 0\n2 1 0\n1 0 2\n"
    assert rack_from_text(text).rows == dihedral_quandle(3).rows
