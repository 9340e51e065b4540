import pytest

from legrack.census import (
    _rack_classes,
    _structure_class_count,
    enumerate_racks,
)
from legrack.fourleg import (
    FourLegStructure,
    check_kimura_axioms,
    classify_structures,
    enumerate_structures,
    make_fourleg,
)
from legrack.perms import (
    burnside_pair_count,
    compose,
    conjugate,
    identity,
    inverse,
    symmetric_group,
)
from legrack.racks import (
    automorphism_group,
    dihedral_quandle,
    inner_group,
    permutation_rack,
    rack_flags,
    trivial_quandle,
    validate_rack,
)
from test_perms import centralizer, diagonal_pair_orbits


def n_cycle(n):
    return tuple((i + 1) % n for i in range(n))


def count_structure_classes(rack):
    """Number of classes ``classify_structures`` lists, counted by Burnside
    over permutation tuples: the oracle of the census's count over S_n
    indices.  ``burnside_pair_count`` also checks that U_X is closed under
    conjugation by Aut(X)."""
    return burnside_pair_count(automorphism_group(rack), rack.gl_center)


def test_gl_center_is_computed_once_per_table(iso_search_calls):
    # T3's columns all equal its kink, so its Aut(X) is listed from the
    # kink's cycle type; R3's Aut(X) is searched once
    for rack, center_elements, searches in [
            (trivial_quandle(3), symmetric_group(3).elements, []),
            (dihedral_quandle(3), {identity(3)}, [True])]:
        iso_search_calls.clear()
        center = rack.gl_center
        for ul in center.sorted_elements():
            for ur in center.sorted_elements():
                make_fourleg(rack, ul, ur)
        assert len(list(enumerate_structures(rack))) == center.order ** 2
        classify_structures(rack)
        assert rack.gl_center is center
        # at most one Aut(X) search, and no other isomorphism search
        assert iso_search_calls == searches
        assert center.elements == center_elements


def test_gl_center_examples():
    for n in (2, 3, 4):
        assert trivial_quandle(n).gl_center.elements == \
            symmetric_group(n).elements
    for n in (3, 4, 5):
        center = permutation_rack(n_cycle(n)).gl_center
        assert center.order == n and n_cycle(n) in center
    assert dihedral_quandle(3).gl_center.order == 1


def test_gl_center_of_permutation_rack_is_centralizer_of_sigma():
    # oracle: filter all of S_n for the elements commuting with sigma
    for n in range(1, 6):
        sym = symmetric_group(n)
        for sigma in sym.sorted_elements():
            assert permutation_rack(sigma).gl_center.elements == \
                centralizer(sym, [sigma]).elements


def test_gl_center_centralizes_the_inner_group(rack_classes):
    # oracle: centralize all of Inn(X), listed by closure, not its generators
    for n in range(6):
        for rack in rack_classes[n]:
            assert rack.gl_center.elements == centralizer(
                automorphism_group(rack), inner_group(rack).elements).elements


def test_gl_center_matches_composing_oracle(rack_classes):
    # the column test b_g(y) = b_y against composing g with every column
    for n in range(7):
        for rack in rack_classes[n]:
            assert rack.gl_center.elements == centralizer(
                automorphism_group(rack), rack.columns).elements, rack.rows


def test_enumerate_structures_counts_and_order():
    assert len(list(enumerate_structures(trivial_quandle(2)))) == 4
    assert len(list(enumerate_structures(dihedral_quandle(3)))) == 1
    structs = list(enumerate_structures(permutation_rack(n_cycle(3))))
    assert len(structs) == 9
    keys = [(s.ul, s.ur) for s in structs]
    assert keys == sorted(keys)
    # the identity pair is always available
    assert any(s.ul == identity(3) and s.ur == identity(3) for s in structs)


def test_derive_down_maps():
    s = make_fourleg(trivial_quandle(3), identity(3), identity(3)).structure
    assert (s.dl, s.dr) == (identity(3), identity(3))
    sigma = n_cycle(3)
    s = make_fourleg(permutation_rack(sigma), identity(3), identity(3)).structure
    assert s.dl == s.dr == inverse(sigma)
    with pytest.raises(ValueError, match="commute"):
        make_fourleg(dihedral_quandle(3), (1, 0, 2), identity(3))


def test_down_maps_invert_kink_through_up_maps():
    # (ur o dl)^-1 = kink = (ul o dr)^-1
    for rack in [permutation_rack((1, 0, 3, 2)), trivial_quandle(3),
                 permutation_rack(n_cycle(4))]:
        kink = rack_flags(rack).kink
        for s in enumerate_structures(rack):
            assert inverse(compose(s.ur, s.dl)) == kink
            assert inverse(compose(s.ul, s.dr)) == kink


def test_classify_counts():
    # n-cycle permutation racks: exactly n^2 classes
    for n in range(2, 7):
        assert len(classify_structures(permutation_rack(n_cycle(n)))) == n * n
    assert len(classify_structures(trivial_quandle(3))) == 11
    # both racks of order 2 together carry 8 classes
    order2 = enumerate_racks(2)
    assert sum(len(classify_structures(r)) for r in order2) == 8


def test_classify_matches_burnside_for_trivial_quandles():
    for n in range(0, 5):
        classes = classify_structures(trivial_quandle(n))
        assert len(classes) == burnside_pair_count(symmetric_group(n))


@pytest.mark.parametrize("n", range(7))
def test_count_structure_classes_matches_classify(n, rack_classes):
    # the census's Burnside over S_n indices, the same sum over
    # permutation tuples, and the listing of the classes
    for rack, (cols, rows, colors, _) in zip(rack_classes[n],
                                             _rack_classes(n)):
        assert rack.rows == rows
        count = _structure_class_count(n, cols, colors)
        assert count == count_structure_classes(rack) == \
            len(classify_structures(rack)), rack.rows


def test_classify_representatives_sorted_with_orbit_sizes():
    classes = classify_structures(trivial_quandle(3))
    reps = [(c.ul, c.ur) for c in classes]
    assert reps == sorted(reps)
    assert sum(c.orbit_size for c in classes) == 36


def test_structure_isomorphism_soundness():
    # conjugating an orbit representative never leaves its orbit, the orbits
    # partition all pairs, and classify_structures lists exactly the oracle's
    # representatives and orbit sizes, in order (exhaustive for orders <= 5)
    for n in range(6):
        for rack in enumerate_racks(n):
            aut = automorphism_group(rack)
            center = rack.gl_center.sorted_elements()
            pairs = [(a, b) for a in center for b in center]
            orbits = diagonal_pair_orbits(pairs, aut)
            assert [((c.ul, c.ur), c.orbit_size)
                    for c in classify_structures(rack)] == \
                [(o.representative, o.size) for o in orbits]
            pair_to_orbit = {p: i for i, o in enumerate(orbits)
                             for p in o.members}
            assert len(pair_to_orbit) == len(pairs)
            for i, o in enumerate(orbits):
                a, b = o.representative
                for phi in aut.sorted_elements():
                    conj = (conjugate(phi, a), conjugate(phi, b))
                    assert pair_to_orbit[conj] == i


def test_order_asymmetry_witness():
    # on T_3, (transposition, id) and (id, transposition) are distinct classes
    t3 = trivial_quandle(3)
    ul = (0, 2, 1)
    reps = {(c.ul, c.ur) for c in classify_structures(t3)}
    aut = t3.gl_center.sorted_elements()
    same_orbit = any(
        (conjugate(g, ul), conjugate(g, identity(3))) == (identity(3), ul)
        for g in aut)
    assert not same_orbit
    assert len(reps) == 11


def test_componentwise_conjugate_but_not_simultaneously():
    # the transpositions (1 2) and (0 2) are conjugate in S_3, but the pairs
    # ((1 2), (1 2)) and ((1 2), (0 2)) are not simultaneously conjugate
    t3 = trivial_quandle(3)
    ul = ur = vl = (0, 2, 1)
    vr = (2, 1, 0)
    aut = t3.gl_center.sorted_elements()
    assert any(conjugate(g, ul) == vl for g in aut)
    assert any(conjugate(g, ur) == vr for g in aut)
    assert not any(
        (conjugate(g, ul), conjugate(g, ur)) == (vl, vr) for g in aut)


def test_kimura_axioms_trivial_quandle_identity():
    t2 = trivial_quandle(2)
    s = FourLegStructure(identity(2), identity(2), identity(2), identity(2))
    assert check_kimura_axioms(t2, s).passed


def test_kimura_axioms_fail_on_wrong_down_maps():
    pr = permutation_rack(n_cycle(3))
    s = FourLegStructure(identity(3), identity(3), identity(3), identity(3))
    report = check_kimura_axioms(pr, s)
    assert not report.core_ok
    assert any(name == "kink-inversion" for name, _ in report.failures)


R3 = dihedral_quandle(3).rows
# columns: the identity, then (1 2) twice
POINT_PLUS_TRANSPOSITION = ((0, 0, 0), (1, 2, 2), (2, 1, 1))
# columns: the identity twice, then (0 1)
TWO_IDENTITY_COLUMNS = ((0, 0, 1), (1, 1, 0), (2, 2, 2))

# (rack rows, (ul, ur, dl, dr), the whole report): wrong candidates whose
# reports hold every failure name, witnesses other than the first pair, a
# mixed-commutation witness other than 0, and each form failing alone
KIMURA_REPORTS = [
    (R3, ((1, 2, 0), (1, 0, 2), (0, 2, 1), (1, 0, 2)),
     (False, False, False, (
         ("mixed-commutation", (0,)), ("kink-inversion", (1,)),
         ("left-equivariance-dl", (0, 1)), ("left-equivariance-ul", (0, 0)),
         ("left-equivariance-dr", (0, 0)), ("left-equivariance-ur", (0, 0)),
         ("right-triviality-d", (0, 0)), ("right-triviality-u", (0, 0))))),
    (R3, ((0, 2, 1), (2, 0, 2), (1, 2, 0), (0, 1, 2)),
     (False, False, False, (
         ("mixed-commutation", (1,)), ("kink-inversion", (1,)),
         ("left-equivariance-dl", (0, 0)), ("left-equivariance-ul", (0, 1)),
         ("left-equivariance-ur", (0, 0)), ("right-triviality-d", (0, 0)),
         ("right-triviality-u", (0, 0))))),
    (TWO_IDENTITY_COLUMNS, ((1, 0, 2), (1, 1, 0), (1, 0, 2), (0, 1, 0)),
     (False, False, False, (
         ("mixed-commutation", (0,)), ("kink-inversion", (0,)),
         ("left-equivariance-dr", (2, 2)), ("left-equivariance-ur", (0, 2)),
         ("right-triviality-d", (0, 2)), ("right-triviality-u", (0, 2))))),
    (POINT_PLUS_TRANSPOSITION, ((1, 0, 1), (0, 2, 1), (0, 2, 1), (0, 1, 1)),
     (False, True, False, (
         ("mixed-commutation", (0,)), ("kink-inversion", (0,)),
         ("left-equivariance-ul", (0, 1)), ("left-equivariance-dr", (1, 1)),
         ("right-triviality-u", (1, 0))))),
    (TWO_IDENTITY_COLUMNS, ((1, 0, 2), (1, 0, 2), (2, 0, 1), (1, 0, 2)),
     (False, False, True, (
         ("mixed-commutation", (0,)), ("left-equivariance-dl", (0, 2)),
         ("right-triviality-d", (0, 0))))),
    (((1, 1, 1), (2, 2, 2), (0, 0, 0)), ((0, 1, 2),) * 4,
     (False, True, True, (("kink-inversion", (0,)),))),
]


@pytest.mark.parametrize("rows, maps, expected", KIMURA_REPORTS)
def test_kimura_report_of_wrong_candidates(rows, maps, expected):
    # each failing check reports its first witness in scan order, and the
    # checks report in axiom order
    report = check_kimura_axioms(validate_rack(rows), FourLegStructure(*maps))
    assert (report.core_ok, report.d_form_ok, report.u_form_ok,
            report.failures) == expected
    assert not report.passed


def test_kimura_axioms_all_enumerated_structures_order_up_to_4():
    for n in range(5):
        for rack in enumerate_racks(n):
            for s in enumerate_structures(rack):
                report = check_kimura_axioms(rack, s)
                assert report.passed, (rack.rows, s, report.failures)
                assert report.d_form_ok and report.u_form_ok


def test_kimura_rejects_non_function_maps():
    t2 = trivial_quandle(2)
    with pytest.raises(ValueError):
        check_kimura_axioms(t2, FourLegStructure((0, 5), (0, 1), (0, 1), (0, 1)))


def test_make_fourleg_packs_derived_maps():
    fl = make_fourleg(permutation_rack(n_cycle(3)), n_cycle(3), identity(3))
    assert fl.structure.dl == inverse(n_cycle(3))
    assert fl.structure.dr == compose(inverse(n_cycle(3)), inverse(n_cycle(3)))
