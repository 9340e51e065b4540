import gc
import hashlib
import itertools
import random
import sys

import pytest

import legrack.census
from legrack.census import (
    FAMILY_NAMES,
    MAX_ENUM_ORDER,
    _aut_indices,
    _canonical_first_columns,
    _census_rows,
    _centralizers,
    _dedupe,
    _isolated_point_tables,
    _isomorphisms,
    _rack_classes,
    _search_shard,
    _structure_class_count,
    _tables,
    census_counts,
    enumerate_racks,
)
from legrack.perms import compose, conjugate, cycle_type, inverse
from legrack.racks import (
    RackError,
    RackTable,
    _iso_search,
    automorphism_group,
    dihedral_quandle,
    permutation_rack,
    rack_flags,
    trivial_quandle,
    validate_rack,
)


def brute_force_racks(n):
    """Every valid rack table of order n, found by filtering all tables."""
    racks = []
    for rows in itertools.product(itertools.product(range(n), repeat=n),
                                  repeat=n):
        try:
            racks.append(validate_rack([list(r) for r in rows]))
        except RackError:
            continue
    return racks


def cols_to_table(n, cols):
    """The table whose column y is permutation ``cols[y]`` of
    ``_tables(n)``."""
    perms = _tables(n)[0]
    return RackTable.from_columns([perms[c] for c in cols])


def dedupe(racks):
    """One representative table per isomorphism class of ``racks``, tables
    of one order, by the census dedupe on their column indices."""
    racks = list(racks)
    n = racks[0].n
    index = _tables(n)[5]
    return [RackTable(n, rows) for _, rows, *_ in _dedupe(
        n, [tuple(index[c] for c in rack.columns) for rack in racks])]


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 6)])
def test_enumeration_matches_brute_force(n, count):
    reps = enumerate_racks(n)
    assert len(reps) == count
    brute = dedupe(brute_force_racks(n)) if n else [RackTable(0, ())]
    assert len(brute) == count
    # same classes, not just same count
    for rep in reps:
        assert sum(next(_iso_search(rep, other), None) is not None
                   for other in brute) == 1


def test_isomorphism_class_counts():
    expected = {0: 1, 1: 1, 2: 2, 3: 6, 4: 19, 5: 74}
    for n, count in expected.items():
        assert len(enumerate_racks(n)) == count


def test_enumeration_yields_valid_pairwise_nonisomorphic_tables():
    for n in range(5):
        reps = enumerate_racks(n)
        for rack in reps:
            validate_rack(rack.rows)
        for a, b in itertools.combinations(reps, 2):
            assert next(_iso_search(a, b), None) is None


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_product_table_matches_compose_and_inverse():
    for n in range(7):
        perms, prod, inv, _, types, index = _tables(n)
        # the rank order's ties, ``_canonical_first_columns`` and the raw
        # pins rely on this order
        assert perms == sorted(perms)
        assert len(prod) == len(perms)
        assert types == [cycle_type(p) for p in perms]
        assert index == {p: i for i, p in enumerate(perms)}
        assert [perms[i] for i in inv] == [inverse(p) for p in perms]
        rows = range(len(perms)) if n <= 5 else range(0, len(perms), 7)
        for i in rows:
            assert [perms[j] for j in prod[i]] == \
                [compose(perms[i], q) for q in perms]


# p(n), the number of partitions of n: conjugacy classes of S_n
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15)


def test_centralizer_table_matches_brute_force():
    for n in range(7):
        perms, prod, _, rank, *_ = _tables(n)
        cent, trans = _centralizers(n)
        assert len(cent) == len(trans) == len(perms)
        # |C(p)| = n! / |class of p|, so each class adds n! entries
        assert sum(len(c) for c in cent) == len(perms) * PARTITIONS[n]
        # every permutation for n <= 5, the first of each class at n = 6
        first = {}
        for i in range(len(perms)):
            first.setdefault(rank[i], i)
        checked = range(len(perms)) if n <= 5 else sorted(first.values())
        for i in checked:
            p = perms[i]
            assert cent[i] == [j for j, q in enumerate(perms)
                               if compose(q, p) == compose(p, q)], (n, p)
        assert all(c == sorted(c) and prod[i][j] == prod[j][i]
                   for i, c in enumerate(cent) for j in c)
        # trans[i] conjugates the first member of i's class to i
        assert all(conjugate(perms[trans[i]], perms[first[rank[i]]]) == p
                   for i, p in enumerate(perms)), n


def orbit_walk_first_columns(n):
    """Perm indices minimal in their orbit under conjugation by Stab(0),
    found by listing each orbit: the oracle of ``_canonical_first_columns``,
    which keys the orbits by cycle type and cycle length through 0."""
    perms = sorted(itertools.permutations(range(n)))
    stab0 = [h for h in perms if h[0] == 0]
    seen = set()
    out = []
    for i, p in enumerate(perms):
        if p in seen:
            continue
        out.append(i)
        seen.update(conjugate(h, p) for h in stab0)
    return tuple(out)


def test_first_columns_match_orbit_walk():
    for n in range(1, 8):
        assert _canonical_first_columns(n) == orbit_walk_first_columns(n), n


def test_order_zero_has_no_first_column():
    # S_0 has one permutation, the empty one, and no point 0
    assert _canonical_first_columns(0) == ()


def unrestricted_search_shard(n, first_col):
    """The column search with no rank ordering in any shard: the oracle of
    ``_search_shard``, which keeps only the tables whose ranks at column 0
    and at its fixed points do not decrease."""
    perms, prod, inv, rank, *_ = _tables(n)
    base_rank = rank[first_col]
    pool = [i for i in range(len(perms)) if rank[i] >= base_rank]
    cols = [-1] * n
    assigned = []
    results = []

    def assign(t, r, trail):
        queue = [(t, r)]
        while queue:
            t, r = queue.pop()
            cur = cols[t]
            if cur != -1:
                if cur != r:
                    return False
                continue
            cols[t] = r
            trail.append(t)
            assigned.append(t)
            pr = perms[r]
            prod_r = prod[r]
            ir = inv[r]
            for b in assigned:
                cb = cols[b]
                icb = inv[cb]
                for s, v in ((perms[cb][t], prod[prod[cb][r]][icb]),
                             (pr[b], prod[prod_r[cb]][ir]),
                             (perms[icb][t], prod[prod[icb][r]][cb])):
                    cur = cols[s]
                    if cur == -1:
                        queue.append((s, v))
                    elif cur != v:
                        return False
            prod_ir = prod[ir]
            for y in range(n):
                s = cols[pr[y]]
                if s != -1 and cols[y] == -1:
                    queue.append((y, prod[prod_ir[s]][r]))
        return True

    def undo(trail):
        for t in reversed(trail):
            cols[t] = -1
            assigned.pop()

    def extend():
        for y in range(n):
            if cols[y] == -1:
                break
        else:
            results.append(tuple(cols))
            return
        for r in pool:
            trail = []
            if assign(y, r, trail):
                extend()
            undo(trail)

    trail = []
    if assign(0, first_col, trail):
        extend()
    undo(trail)
    return results


def _raw_search(search):
    return [[search(n, fc) for fc in _canonical_first_columns(n)]
            for n in range(1, 7)]


def _dedupe_raw(raw):
    return [[RackTable(0, ())]] + [
        dedupe([cols_to_table(n, cols)
                for shard in shards for cols in shard])
        for n, shards in enumerate(raw, start=1)]


@pytest.fixture(scope="module")
def oracle_raw():
    return _raw_search(unrestricted_search_shard)


@pytest.fixture(scope="module")
def search_raw():
    return _raw_search(_search_shard)


@pytest.fixture(scope="module")
def oracle_classes(oracle_raw):
    return _dedupe_raw(oracle_raw)


# Raw output (every table of every shard, in order) and class
# representatives of the oracle and of the search, for n = 1..6 (the
# representatives for n = 0..6).  Any change to the branching, the pruning
# or the symmetry breaking shows in the raw pins before it can show in the
# class counts.  The search generates a subset of the oracle's tables, and
# ``enumerate_racks`` builds the racks with one identity column from
# smaller racks, so the lexicographically least table of some classes is
# no longer among them and the two representative hashes differ.
ORACLE_RAW_TABLE_COUNTS = [1, 2, 8, 44, 446, 6941]
ORACLE_RAW_SHARDS_SHA256 = \
    "fedf16caac3d174d0a4ba62b2fefdc69100e7d600fefb1aaaeb86e8aeb0734ce"
ORACLE_REPRESENTATIVES_SHA256 = \
    "dbffe42d2146bff5aaf4068c96e7ccf770b58acb31999144275721e86aa107d7"
RAW_TABLE_COUNTS = [0, 2, 6, 20, 92, 457]
RAW_SHARDS_SHA256 = \
    "196a2b56bd973618d41e2953ab8f9b936c228cdc3ce8dc787f5ec128aa21a87f"
REPRESENTATIVES_SHA256 = \
    "23e85d5264d4354ea27abb158c9f702f1f8f9fbc6b9dd9820d90ec05131e56f9"


def test_oracle_search_is_pinned(oracle_raw, oracle_classes):
    assert [sum(len(shard) for shard in r) for r in oracle_raw] == \
        ORACLE_RAW_TABLE_COUNTS
    assert _sha256(oracle_raw) == ORACLE_RAW_SHARDS_SHA256
    assert _sha256([[r.rows for r in reps] for reps in oracle_classes]) == \
        ORACLE_REPRESENTATIVES_SHA256


def test_search_shards_are_pinned(search_raw):
    assert [sum(len(shard) for shard in r) for r in search_raw] == \
        RAW_TABLE_COUNTS
    assert _sha256(search_raw) == RAW_SHARDS_SHA256


def test_every_raw_table_is_a_rack(search_raw):
    # checked by the rack axioms themselves, with none of the search's
    # propagation code, unlike the oracle
    for n, shards in enumerate(search_raw, start=1):
        for shard in shards:
            for cols in shard:
                validate_rack(cols_to_table(n, cols))


# Four order-7 shards, by position in ``_canonical_first_columns(7)``: their
# first columns and raw table counts.  A lost comparison shows at order 7
# before it shows at any lower order: without the b_b(t) comparison of
# ``assign`` shards 2, 5 and 13 each yield 1 non-rack (204, 41 and 39
# tables).  Shard 0 is the identity shard, the one the identity-prefix
# rule prunes.  The raw output of every order-7 shard is pinned as well.
ORDER7_SHARDS = {0: (0, 708), 2: (3, 203), 5: (27, 40), 13: (723, 38)}
ORDER7_RAW_TABLE_COUNT = 2986
ORDER7_RAW_SHARDS_SHA256 = \
    "97e42a2d965db4f06ecdf3690d73619c33882baf2b816518ddc2720297101f32"
# The order-7 census on those raw tables and the isolated-point split:
# per family, the racks up to isomorphism and their structure classes.
# The rack and quandle counts come from outside the program: OEIS A181771
# and A181769, as Vojtechovsky and Yang enumerate them ("Enumeration of
# racks and quandles up to isomorphism", Math. Comp. 2019).  The structure
# class counts are the census's own; ``classify_structures`` over all 2,080
# racks, too slow for this suite, lists the same 169,289.
ORDER7_CENSUS = [("racks", 2080, 169289), ("involutory", 906, 65549),
                 ("quandles", 298, 24540), ("kei", 142, 14625)]


def test_order7_shards_yield_only_racks():
    # the S_7 tables take about 200 MB, so every census cache is dropped
    # afterwards; the census below reads the same raw tables, with no
    # second search and no second build of the tables
    try:
        shards = _canonical_first_columns(7)
        raw = [_search_shard(7, first_col) for first_col in shards]
        assert sum(map(len, raw)) == ORDER7_RAW_TABLE_COUNT
        assert _sha256(raw) == ORDER7_RAW_SHARDS_SHA256
        for pos, (first_col, count) in ORDER7_SHARDS.items():
            assert shards[pos] == first_col
            assert len(raw[pos]) == count, pos
            for cols in raw[pos]:
                validate_rack(cols_to_table(7, cols))
        records = _dedupe(7, [cols for shard in raw for cols in shard]
                          + _isolated_point_tables(7))
        assert [(r.family, r.rack_count, r.structure_count)
                for r in _census_rows(7, records)] == ORDER7_CENSUS
        # p(7) permutation racks, one per cycle type of their one column;
        # the connected quandles of prime order p are affine, so there are
        # p - 2 (Etingof, Soloviev and Guralnick, "Indecomposable
        # set-theoretical solutions to the quantum Yang-Baxter equation on
        # a set with a prime number of elements", J. Algebra 2001)
        assert sum(len(set(cols)) == 1 for cols, *_ in records) == \
            PARTITIONS[7]
        assert sum(connected(RackTable(7, rows))
                   for _, rows, _, flags in records if flags.is_quandle) == \
            7 - 2
    finally:
        for value in vars(legrack.census).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# Calls of ``_search_shard``'s nested ``assign`` for n = 1..6.  The
# pre-check in ``extend`` drops most failing candidates before the call,
# and in the identity shard so does the identity-prefix rule.
ASSIGN_CALLS = [0, 3, 11, 40, 353, 3740]


def test_search_makes_few_assign_calls():
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_name == "assign"
                and code.co_filename == _search_shard.__code__.co_filename):
            calls += 1

    counts = []
    for n in range(1, 7):
        calls = 0
        sys.setprofile(profile)
        try:
            for first_col in _canonical_first_columns(n):
                _search_shard(n, first_col)
        finally:
            sys.setprofile(None)
        counts.append(calls)
    assert all(c <= bound for c, bound in zip(counts, ASSIGN_CALLS)), counts


def _ranks_sorted_at_fixed_points(n, cols):
    perms, _, _, rank, *_ = _tables(n)
    first = perms[cols[0]]
    ranks = [rank[cols[x]] for x in range(n) if x == 0 or first[x] == x]
    return ranks == sorted(ranks)


def _swap_minimal(n, cols):
    """Whether no swap h of the rule, read off column 0 and the table's
    ranks, relabels the table to one with lexicographically smaller rows."""
    perms, _, _, rank, *_ = _tables(n)
    first = perms[cols[0]]
    rows = cols_to_table(n, cols).rows
    for p, q in itertools.combinations(range(1, n), 2):
        two_cycle = first[p] == q and first[q] == p
        same_rank_fixed = (first[p] == p and first[q] == q
                           and rank[cols[p]] == rank[cols[q]])
        if not (two_cycle or same_rank_fixed):
            continue
        h = list(range(n))
        h[p], h[q] = q, p
        if tuple(tuple(h[rows[h[x]][h[y]]] for y in range(n))
                 for x in range(n)) < rows:
            return False
    return True


def test_search_is_the_oracle_sorted_and_swap_minimal(search_raw, oracle_raw):
    # each shard keeps exactly the oracle's tables whose column ranks at
    # column 0 and at its fixed points do not decrease, that no swap of
    # the rule makes lexicographically smaller and, in the identity shard,
    # whose column 1 is the identity
    for n, (shards, oracle_shards) in enumerate(zip(search_raw, oracle_raw),
                                                start=1):
        for shard, oracle_shard in zip(shards, oracle_shards, strict=True):
            assert sorted(shard) == [
                cols for cols in sorted(oracle_shard)
                if _ranks_sorted_at_fixed_points(n, cols)
                and _swap_minimal(n, cols)
                and (cols[0] != 0 or cols[1:2] == (0,))]


def test_centralizer_relabelings_keep_each_oracle_shard(oracle_raw):
    # the premise of both rules: every h that moves only points of
    # Fix(c) minus {0}, c the shard's column 0, and every swap of a 2-cycle
    # of c not through 0 commutes with c and permutes the oracle tables of
    # that shard
    for n, oracle_shards in enumerate(oracle_raw[:5], start=1):
        perms, prod, inv, _, _, index = _tables(n)
        for c, shard in zip(_canonical_first_columns(n), oracle_shards,
                            strict=True):
            movable = [x for x in range(1, n) if perms[c][x] == x]
            relabelings = []
            for image in itertools.permutations(movable):
                h = list(range(n))
                for x, hx in zip(movable, image):
                    h[x] = hx
                relabelings.append(h)
            for p in range(1, n):
                q = perms[c][p]
                if p < q and perms[c][q] == p:
                    h = list(range(n))
                    h[p], h[q] = q, p
                    relabelings.append(h)
            for h in relabelings:
                hi = index[tuple(h)]
                assert prod[hi][c] == prod[c][hi]
                relabeled = set()
                for cols in shard:
                    new = [0] * n
                    for x in range(n):
                        new[h[x]] = prod[prod[hi][cols[x]]][inv[hi]]
                    relabeled.add(tuple(new))
                assert relabeled == set(shard), (n, c, h)


def test_class_representatives_are_pinned(rack_classes):
    reps = [[r.rows for r in rack_classes[n]] for n in range(7)]
    assert _sha256(reps) == REPRESENTATIVES_SHA256


def test_representatives_match_oracle(rack_classes, oracle_classes):
    for n in range(7):
        reps, oracle = rack_classes[n], oracle_classes[n]
        assert len(reps) == len(oracle)
        for rep in reps:
            assert sum(next(_iso_search(rep, other), None) is not None
                       for other in oracle) == 1, (n, rep.rows)


def _identity_columns(rack):
    identity = tuple(range(rack.n))
    return [y for y, c in enumerate(rack.columns) if c == identity]


def test_one_identity_column_is_a_point_plus_a_smaller_rack(oracle_classes):
    # the isolated-point split (``_isolated_point_tables``): a class with
    # exactly one identity column p has p fixed by every column, and the
    # other points form a rack with no identity column; the classes of that
    # shape match, order by order, the classes one smaller with no identity
    # column
    counts = []
    for n in range(1, 7):
        split = [r for r in oracle_classes[n]
                 if len(_identity_columns(r)) == 1]
        for rack in split:
            [p] = _identity_columns(rack)
            assert all(c[p] == p for c in rack.columns), rack.rows
            rest = [x for x in range(n) if x != p]
            label = {x: i for i, x in enumerate(rest)}
            smaller = validate_rack([[label[rack.rows[x][y]] for y in rest]
                                     for x in rest])
            assert not _identity_columns(smaller), rack.rows
        assert len(split) == sum(not _identity_columns(r)
                                 for r in oracle_classes[n - 1]), n
        counts.append(len(split))
    assert counts == [1, 0, 1, 3, 10, 40]


def test_enumeration_envelope():
    # the census reads the class records without ``enumerate_racks``, so
    # both entry points check the order
    for entry in (enumerate_racks, census_counts):
        with pytest.raises(NotImplementedError):
            entry(MAX_ENUM_ORDER + 1)
        with pytest.raises(ValueError):
            entry(-1)


def test_known_families_are_represented():
    reps4 = enumerate_racks(4)
    for rack in [trivial_quandle(4), dihedral_quandle(4),
                 permutation_rack((1, 2, 3, 0)),
                 permutation_rack((1, 0, 3, 2))]:
        assert sum(next(_iso_search(rack, rep), None) is not None
                   for rep in reps4) == 1


def connected(rack):
    """Whether Inn(X) acts transitively: one union-find over the columns,
    joining x with b_y(x) for every column b_y."""
    parent = list(range(rack.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for column in rack.columns:
        for x, y in enumerate(column):
            parent[find(x)] = find(y)
    return len({find(x) for x in range(rack.n)}) == 1


def test_class_counts_agree_with_published_values(rack_classes):
    # Values from outside the program.  A permutation rack (every column
    # the same sigma) is fixed up to isomorphism by the cycle type of
    # sigma, so there are p(n) of them, p the partition numbers.  The
    # connected quandles of order <= 6 are Vendramin's ("On the
    # classification of quandles of low order", J. Knot Theory
    # Ramifications 2012).  The racks and the quandles of each order, up to
    # isomorphism, are OEIS A181771 and A181769.
    racks_per_order = (1, 2, 6, 19, 74, 353)
    quandles_per_order = (1, 1, 3, 7, 22, 73)
    connected_quandles = (1, 0, 1, 1, 3, 2)
    for n in range(1, 7):
        racks = rack_classes[n]
        assert len(racks) == racks_per_order[n - 1], n
        assert sum(r.flags.is_quandle for r in racks) == \
            quandles_per_order[n - 1], n
        assert sum(len(set(r.columns)) == 1 for r in racks) == \
            PARTITIONS[n], n
        assert sum(r.flags.is_quandle and connected(r) for r in racks) == \
            connected_quandles[n - 1], n
    assert connected(dihedral_quandle(3)) and not connected(dihedral_quandle(4))


CENSUS_TABLE = {
    # order: (racks, involutory, quandles, kei)
    0: (1, 1, 1, 1),
    1: (1, 1, 1, 1),
    2: (8, 8, 4, 4),
    3: (33, 24, 16, 16),
    4: (249, 196, 84, 74),
    5: (1592, 850, 448, 342),
}


@pytest.mark.parametrize("n", sorted(CENSUS_TABLE))
def test_structure_census_small_orders(n):
    rows = census_counts(n)
    assert [r.family for r in rows] == list(FAMILY_NAMES)
    assert tuple(r.structure_count for r in rows) == CENSUS_TABLE[n]
    assert all(r.order == n for r in rows)


def test_aut_indices_match_the_search(rack_classes):
    # the centralizer cosets of one column against the isomorphism search
    # and the column filter of ``RackTable.gl_center``, for every class of
    # order <= 6
    for n in range(7):
        perms = _tables(n)[0]
        for rack, (cols, rows, colors, _) in zip(rack_classes[n],
                                                 _rack_classes(n)):
            assert rack.rows == rows
            aut, center = _aut_indices(n, cols, colors)
            assert len(aut) == len(set(aut)), rack.rows
            assert {perms[g] for g in aut} == \
                automorphism_group(rack).elements, rack.rows
            assert {perms[u] for u in center} == \
                rack.gl_center.elements, rack.rows


def test_isomorphisms_match_the_search(rack_classes):
    # the centralizer cosets against the backtracking search, for every
    # raw table of the column search of order <= 5 against every
    # representative; both read colors of fresh tables, not the ones the
    # dedupe fills
    for n in range(1, 6):
        perms, *_, index = _tables(n)
        reps = [RackTable(n, rep.rows) for rep in rack_classes[n]]
        rep_cols = [[index[c] for c in rep.columns] for rep in reps]
        for first_col in _canonical_first_columns(n):
            for cols in _search_shard(n, first_col):
                raw = RackTable(n, cols_to_table(n, cols).rows)
                for rep, dst_cols in zip(reps, rep_cols):
                    found = [perms[phi] for phi in _isomorphisms(
                        n, list(cols), raw.element_colors,
                        dst_cols, rep.element_colors)]
                    assert len(found) == len(set(found)), raw.rows
                    assert set(found) == set(_iso_search(raw, rep)), \
                        (raw.rows, rep.rows)


def test_dedupe_fills_flags_and_colors_as_a_fresh_table_has_them(
        search_raw):
    # the dedupe reads the rows, flags and colors off the column indices; a
    # fresh table computes them from its rows.  Each raw table is fed with
    # a relabeled copy, so that no position (column 0 of a shard, say)
    # holds the same kind of column in every table; each table is fed
    # alone, so that each is a class's record.
    for n, shards in enumerate(search_raw, start=1):
        index = _tables(n)[5]
        tables = [cols_to_table(n, cols) for shard in shards
                  for cols in shard]
        shift = tuple(range(1, n)) + (0,)
        tables += [relabeled(table, shift) for table in tables]
        for table in tables:
            cols = tuple(index[c] for c in table.columns)
            [(kept, rows, colors, flags)] = _dedupe(n, [cols])
            fresh = RackTable(n, table.rows)
            assert (kept, rows) == (cols, fresh.rows)
            assert flags == fresh.flags, table.rows
            assert colors == fresh.element_colors, table.rows


def test_enumerated_tables_cache_what_a_fresh_table_computes(rack_classes):
    # ``enumerate_racks`` fills four caches from each class's record
    for n in range(7):
        for rack in rack_classes[n]:
            fresh = RackTable(n, rack.rows)
            for name in ("columns", "column_types", "flags",
                         "element_colors"):
                assert vars(rack)[name] == getattr(fresh, name), \
                    (name, rack.rows)


def burnside_scan(n, aut, center):
    """(1/|Aut|) sum_{g in Aut} |C_U(g)|^2, g and every u of U_X scanned."""
    prod = _tables(n)[1]
    return sum(sum(1 for u in center if prod[u][g] == prod[g][u]) ** 2
               for g in aut) // len(aut)


def test_structure_class_count_takes_each_shortcut():
    # U_X = {id} and U_X = Aut(X) skip the commuting scan; each branch is
    # taken, and each gives the plain Burnside sum
    branches = {"trivial": 0, "everything": 0, "scan": 0}
    for n in range(7):
        for cols, rows, colors, _ in _rack_classes(n):
            aut, center = _aut_indices(n, cols, colors)
            branch = ("trivial" if len(center) == 1 else
                      "everything" if len(center) == len(aut) else "scan")
            branches[branch] += 1
            assert _structure_class_count(n, cols, colors) == \
                burnside_scan(n, aut, center), rows
    assert branches == {"trivial": 18, "everything": 373, "scan": 65}


def test_census_counts_make_no_automorphism_search(iso_search_calls):
    # Aut(X) and U_X come from ``_aut_indices``, and the dedupe tests
    # isomorphisms on the centralizer cosets, so the census makes no
    # ``_iso_search`` call.  The cleared cache makes the census enumerate
    # again, so the dedupe runs too.
    _rack_classes.cache_clear()
    for n in range(1, 7):
        census_counts(n)
    assert iso_search_calls == []
    # the recorder sees a search where there is one
    automorphism_group(dihedral_quandle(5))
    assert iso_search_calls == [True]


def test_family_containments():
    for n in range(5):
        rows = {r.family: r for r in census_counts(n)}
        assert rows["kei"].rack_count <= rows["quandles"].rack_count
        assert rows["kei"].rack_count <= rows["involutory"].rack_count
        assert rows["quandles"].rack_count <= rows["racks"].rack_count
        assert rows["involutory"].rack_count <= rows["racks"].rack_count
        # membership flags agree with the counts
        racks = enumerate_racks(n)
        flags = [rack_flags(r) for r in racks]
        assert rows["quandles"].rack_count == sum(f.is_quandle for f in flags)
        assert rows["involutory"].rack_count == \
            sum(f.is_involutory for f in flags)
        assert rows["kei"].rack_count == \
            sum(f.is_quandle and f.is_involutory for f in flags)


def test_dedupe_is_idempotent_and_absorbs_relabelings():
    reps = enumerate_racks(3)
    assert [r.rows for r in dedupe(reps)] == [r.rows for r in reps]
    # feeding a relabeled copy alongside the originals adds no class; the
    # relabelling is not an automorphism of D5, so the copy is a table that
    # the originals do not contain
    d5 = dihedral_quandle(5).rows
    relabel = (2, 4, 0, 3, 1)
    back = inverse(relabel)
    relabeled = validate_rack([[relabel[d5[back[x]][back[y]]]
                                for y in range(5)] for x in range(5)])
    assert relabeled.rows != d5
    reps5 = enumerate_racks(5)
    assert relabeled.rows not in {r.rows for r in reps5}
    assert len(dedupe(list(reps5) + [relabeled])) == len(reps5)


def relabeled(rack, phi):
    """The table phi carries ``rack`` to: phi is an isomorphism onto it."""
    n = rack.n
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[phi[x]][phi[y]] = phi[rack.rows[x][y]]
    return validate_rack(rows)


def test_searches_leave_no_cyclic_garbage():
    # the column search and the isomorphism search free their lists when
    # they return, not by the collector, also when the caller abandons the
    # isomorphism search after the first isomorphism
    first_columns = _canonical_first_columns(5)
    shards = [_search_shard(5, fc) for fc in first_columns]
    rack = dihedral_quandle(5)
    copy = relabeled(rack, (2, 4, 0, 3, 1))
    rack.element_colors, copy.element_colors
    gc.collect()
    gc.disable()
    try:
        for fc, shard in zip(first_columns, shards):
            assert _search_shard(5, fc) == shard
            assert gc.collect() == 0, fc
        assert next(_iso_search(rack, copy), None) is not None
        assert gc.collect() == 0
        assert next(_iso_search(rack, trivial_quandle(5)), None) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_element_colors_move_with_a_relabeling(rack_classes):
    # the colors are isomorphism invariants, so the colored isomorphism
    # search and the dedupe key lose no isomorphism; and dedupe keeps, per
    # class, whichever of the representative and its copy sorts first
    # (a copy can be the lexicographically smaller table)
    rng = random.Random(19)
    for n in range(7):
        reps = rack_classes[n]
        copies = []
        for rack in reps:
            phi = list(range(n))
            rng.shuffle(phi)
            copy = relabeled(rack, phi)
            assert all(copy.element_colors[phi[x]] == rack.element_colors[x]
                       for x in range(n)), (rack.rows, phi)
            copies.append(copy)
        kept = dedupe(list(reps) + copies)
        assert sorted(r.rows for r in kept) == sorted(
            min(a.rows, b.rows) for a, b in zip(reps, copies)), n


# Isomorphism tests (``_isomorphisms`` calls) made by ``enumerate_racks(n)``
# for n = 1..6: one per pair of tables that share a dedupe key and are
# compared.  A weaker key puts more tables in a bucket, and a weaker swap
# rule in the search feeds the dedupe more duplicates; either shows here
# first.  Without the swap rule the dedupe makes [0, 0, 1, 6, 87, 862]
# tests.
ISO_SEARCH_CALLS = [0, 0, 1, 4, 30, 166]


def test_dedupe_makes_few_isomorphism_searches(monkeypatch):
    # each order is enumerated afresh, once the orders below it are cached
    tests = []
    real = legrack.census._isomorphisms

    def recording(*args):
        tests.append(args[0])
        return real(*args)

    monkeypatch.setattr(legrack.census, "_isomorphisms", recording)
    _rack_classes.cache_clear()
    counts = []
    for n in range(1, 7):
        tests.clear()
        enumerate_racks(n)
        counts.append(len(tests))
    assert all(c <= bound for c, bound in zip(counts, ISO_SEARCH_CALLS)), \
        counts
    assert counts[-1] > 0
