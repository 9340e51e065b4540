import pytest

from legrack.coloring import (
    VerifyReport,
    apply_word,
    brute_force_colorings,
    count_colorings,
    fixed_points,
    perm_fast_count,
    permutation_fourleg,
    permutation_structures,
    unreduced_loop_permutation,
    verify_indistinguishability,
)
from legrack.fourleg import enumerate_structures, make_fourleg, FourLegRack
from legrack.front import (
    builtin_fixtures,
    classical_invariants,
    fundamental_presentation,
    left_trefoil,
    rotate_basepoint,
    stabilize,
    stabilized_unknot,
    standard_unknot,
)
from legrack.perms import compose, identity, inverse, power
from legrack.racks import dihedral_quandle, trivial_quandle


def trivial_fourleg(n):
    return make_fourleg(trivial_quandle(n), identity(n), identity(n))


def three_cycle_fourleg(ul=None, ur=None):
    sigma = (1, 2, 0)
    return permutation_fourleg(sigma, ul or identity(3), ur or identity(3))


def test_unknot_counts():
    pres = fundamental_presentation(standard_unknot())
    for k in (1, 2, 3, 5):
        assert count_colorings(pres, trivial_fourleg(k)) == k
    assert count_colorings(pres, three_cycle_fourleg()) == 0


def test_trefoil_counts():
    pres = fundamental_presentation(left_trefoil())
    assert count_colorings(pres, trivial_fourleg(3)) == 3
    assert count_colorings(pres, trivial_fourleg(2)) == 2


def test_apply_word_order():
    fl = three_cycle_fourleg()
    maps = {"ul": fl.structure.ul, "ur": fl.structure.ur,
            "dl": fl.structure.dl, "dr": fl.structure.dr}
    # earliest letter applies first: dl(ur(x))
    for x in range(3):
        assert apply_word(("ur", "dl"), maps, x) == \
            maps["dl"][maps["ur"][x]]


@pytest.mark.parametrize("name", sorted(builtin_fixtures()))
def test_count_matches_brute_force(name):
    pres = fundamental_presentation(builtin_fixtures()[name])
    racks = [trivial_fourleg(2), trivial_fourleg(3),
             make_fourleg(trivial_quandle(3), (0, 2, 1), (1, 0, 2)),
             make_fourleg(dihedral_quandle(3), identity(3), identity(3)),
             three_cycle_fourleg(),
             three_cycle_fourleg(ul=(1, 2, 0), ur=(2, 0, 1))]
    for fl in racks:
        assert count_colorings(pres, fl) == brute_force_colorings(pres, fl)


def test_count_invariant_under_basepoint_rotation():
    racks = [trivial_fourleg(3), three_cycle_fourleg(ul=(1, 2, 0))]
    for code in builtin_fixtures().values():
        for fl in racks:
            baseline = count_colorings(fundamental_presentation(code), fl)
            for k in range(1, len(code.events)):
                rotated = fundamental_presentation(rotate_basepoint(code, k))
                assert count_colorings(rotated, fl) == baseline


def _fast_path_cases():
    """(structure, invariants, presentation) triples: every structure of
    order <= 3 with every fixture, and every structure of order <= 4 with
    three fronts of |rot| >= 2, which no fixture reaches."""
    steep = [stabilized_unknot(3, 0), stabilized_unknot(0, 2),
             stabilize(stabilize(left_trefoil(), -1), -1)]
    assert sorted(classical_invariants(c).rot for c in steep) == [-3, -2, 3]
    for max_order, codes in ((3, builtin_fixtures().values()), (4, steep)):
        fronts = [(classical_invariants(c), fundamental_presentation(c))
                  for c in codes]
        for _, fl in permutation_structures(max_order,
                                            conjugacy_reps_only=False):
            for inv, pres in fronts:
                yield fl, inv, pres


def test_reduced_loop_matches_unreduced_loop():
    # the closed form against the loop map built letter by letter; the two
    # maps are only conjugate, so their fixed points are compared
    for fl, inv, pres in _fast_path_cases():
        s = fl.structure
        loop = unreduced_loop_permutation(pres, fl.rack.column(0), s.ul, s.ur)
        assert perm_fast_count(fl, inv) == fixed_points(loop)


def test_perm_fast_count_matches_generic_counter():
    for fl, inv, pres in _fast_path_cases():
        assert perm_fast_count(fl, inv) == count_colorings(pres, fl)


def test_permutation_fourleg_validation():
    with pytest.raises(ValueError, match="commute"):
        permutation_fourleg((1, 2, 0), (0, 2, 1), identity(3))
    fl = permutation_fourleg((1, 2, 0), (1, 2, 0), identity(3))
    sigma_inv = inverse((1, 2, 0))
    assert fl.structure.dl == sigma_inv
    assert fl.structure.dr == compose(sigma_inv, sigma_inv)


def test_perm_fast_count_rejects_non_permutation_rack():
    fl = make_fourleg(dihedral_quandle(3), identity(3), identity(3))
    with pytest.raises(ValueError, match="permutation rack"):
        perm_fast_count(fl, classical_invariants(standard_unknot()))


def test_permutation_structures_enumeration():
    pairs = list(permutation_structures(3))
    # order 1: 1; order 2: id gives 4, swap gives 4; order 3 reps:
    # id -> 36, transposition -> 4, 3-cycle -> 9
    assert len(pairs) == 1 + 4 + 4 + 36 + 4 + 9
    assert all(isinstance(fl, FourLegRack) for _, fl in pairs)
    full = list(permutation_structures(3, conjugacy_reps_only=False))
    assert len(full) == 1 + 4 + 4 + 36 + 3 * 4 + 2 * 9


def test_verify_indistinguishability_passes_on_fixtures():
    report = verify_indistinguishability(builtin_fixtures(), max_order=3)
    assert report.passed
    assert not report.violations
    # groups with >= 2 members actually exercise the comparison
    fat = [names for names in report.groups.values() if len(names) >= 2]
    assert len(fat) >= 3
    assert report.rows
    counted = {(r.code_name, r.rack_id, r.ul, r.ur) for r in report.rows}
    assert len(counted) == len(report.rows)


def test_verify_report_flags_violations():
    ok = VerifyReport(groups={}, rows=(), violations=())
    bad = VerifyReport(groups={}, rows=(), violations=("witness",))
    assert ok.passed and not bad.passed


def test_structures_on_trivial_quandle_agree_with_fast_path():
    # T_n is the permutation rack of the identity; every (ul, ur) qualifies
    inv = classical_invariants(left_trefoil())
    pres = fundamental_presentation(left_trefoil())
    for s in enumerate_structures(trivial_quandle(3)):
        fl = FourLegRack(trivial_quandle(3), s)
        assert perm_fast_count(fl, inv) == count_colorings(pres, fl)
