import itertools
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from legrack.perms import (
    Perm,
    PermGroup,
    burnside_pair_count,
    compose,
    conjugate,
    cycle_string,
    identity,
    inverse,
    parse_cycles,
    power,
    subgroup_closure,
    symmetric_group,
    validate_perm,
)


def centralizer(group: PermGroup, others) -> PermGroup:
    """Elements of ``group`` commuting with every permutation in ``others``,
    found by composing both ways: the oracle of ``RackTable.gl_center`` and
    of the census centralizer table."""
    others = [validate_perm(s) for s in others]
    if any(len(s) != group.degree for s in others):
        raise ValueError("degree mismatch between group and centralized set")
    kept = frozenset(
        g for g in group.elements
        if all(compose(g, s) == compose(s, g) for s in others)
    )
    return PermGroup(group.degree, kept)


@dataclass(frozen=True)
class PairOrbit:
    """One orbit of pairs under diagonal conjugation, with its canonical rep."""

    representative: tuple[Perm, Perm]
    members: tuple[tuple[Perm, Perm], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def diagonal_pair_orbits(pairs, group: PermGroup) -> list[PairOrbit]:
    """Partition ``pairs`` into orbits of g.(a,b) = (gag^-1, gbg^-1).

    Orbits are returned sorted by their lexicographically least pair.  This
    conjugates every pair by every group element; it is the oracle that
    ``fourleg.classify_structures`` and ``burnside_pair_count`` are checked
    against.
    """
    pairs = {(validate_perm(a), validate_perm(b)) for a, b in pairs}
    for a, b in pairs:
        if len(a) != group.degree or len(b) != group.degree:
            raise ValueError("pair degree does not match acting group")
    elements = group.sorted_elements()
    seen: set[tuple[Perm, Perm]] = set()
    orbits = []
    for pair in sorted(pairs):
        if pair in seen:
            continue
        a, b = pair
        orbit = {(conjugate(g, a), conjugate(g, b)) for g in elements}
        if not orbit <= pairs:
            raise ValueError("pair set is not closed under the group action")
        seen |= orbit
        members = tuple(sorted(orbit))
        orbits.append(PairOrbit(members[0], members))
    return sorted(orbits, key=lambda o: o.representative)


def perms_of(n):
    return st.permutations(list(range(n))).map(tuple)


def test_compose_identity_and_involution():
    assert compose(identity(2), (1, 0)) == (1, 0)
    assert compose((1, 0), (1, 0)) == identity(2)


def test_compose_hand_evaluated_convention():
    # p = 3-cycle 0->1->2->0, q = swap of 0,1; (p o q)(0) = p(1) = 2, etc.
    p = (1, 2, 0)
    q = (1, 0, 2)
    assert compose(p, q) == (2, 1, 0)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(perms_of(n), perms_of(n), perms_of(n))))
def test_compose_associative_and_inverse(pqr):
    p, q, r = pqr
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, inverse(p)) == identity(len(p))
    assert compose(inverse(p), p) == identity(len(p))


def test_power_negative_and_zero():
    p = (1, 2, 0)
    assert power(p, 0) == identity(3)
    assert power(p, 3) == identity(3)
    assert power(p, -1) == inverse(p)
    assert power(p, -2) == compose(inverse(p), inverse(p))


def test_power_matches_repeated_compose():
    for p in itertools.permutations(range(4)):
        for k in range(-13, 14):
            step = p if k >= 0 else inverse(p)
            expected = identity(4)
            for _ in range(abs(k)):
                expected = compose(step, expected)
            assert power(p, k) == expected


def test_power_huge_exponent_is_one_pass():
    p = (1, 2, 0, 4, 3)
    start = time.perf_counter()
    assert power(p, 10**9) == (1, 2, 0, 3, 4)
    assert power(p, -10**9 - 1) == (1, 2, 0, 4, 3)
    assert time.perf_counter() - start < 1.0


def test_subgroup_closure_examples():
    assert subgroup_closure([(1, 0)]).order == 2
    assert subgroup_closure([(1, 0, 2), (0, 2, 1)]).order == 6
    assert subgroup_closure([], degree=3) == PermGroup(3, frozenset({identity(3)}))
    assert subgroup_closure([], degree=1).elements == {identity(1)}


@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(perms_of(n), min_size=1, max_size=2)))
def test_closure_is_closed(gens):
    group = subgroup_closure(gens)
    elems = group.sorted_elements()
    for a in elems:
        for b in elems:
            assert compose(a, b) in group


def test_centralizer_examples():
    s3 = symmetric_group(3)
    assert centralizer(s3, [identity(3)]).order == 6
    assert centralizer(s3, [(1, 2, 0)]).elements == \
        subgroup_closure([(1, 2, 0)]).elements
    s2 = symmetric_group(2)
    assert centralizer(s2, [(1, 0)]).order == 2


def test_centralizer_is_subgroup():
    s4 = symmetric_group(4)
    c = centralizer(s4, [(1, 0, 3, 2)])
    for a in c.sorted_elements():
        for b in c.sorted_elements():
            assert compose(a, b) in c


def test_pair_orbits_trivial_action():
    s2 = symmetric_group(2)
    pairs = [(a, b) for a in s2 for b in s2]
    assert len(diagonal_pair_orbits(pairs, s2)) == 4


def test_pair_orbits_fixed_point():
    s3 = symmetric_group(3)
    orbits = diagonal_pair_orbits([(identity(3), identity(3))], s3)
    assert len(orbits) == 1 and orbits[0].size == 1


def test_burnside_formula_small():
    assert burnside_pair_count(subgroup_closure([], degree=1)) == 1
    assert burnside_pair_count(symmetric_group(2)) == 4  # (4 + 4) / 2
    assert burnside_pair_count(symmetric_group(3)) == 11  # (36 + 3*4 + 2*9) / 6
    # A_3 x A_3 under S_3: (a, b) ~ (a^-1, b^-1), so (9 + 3*1 + 2*9) / 6
    a3 = subgroup_closure([(1, 2, 0)])
    assert burnside_pair_count(symmetric_group(3), a3) == 5
    assert burnside_pair_count(symmetric_group(3), a3.elements) == 5
    assert burnside_pair_count(symmetric_group(3), set()) == 0


@pytest.mark.parametrize("group", [
    subgroup_closure([], degree=3),
    symmetric_group(2),
    symmetric_group(3),
    subgroup_closure([(1, 2, 3, 0)]),
    subgroup_closure([(1, 0, 2, 3), (0, 1, 3, 2)]),
    symmetric_group(4),
    subgroup_closure([(1, 2, 3, 4, 0)]),
    subgroup_closure([(1, 2, 0, 3), (1, 0, 2, 3)]),
    # S_3 x S_3 on {0,1,2} and {3,4,5}, and S_3 x C_2 on {0,1,2} and {3,4}:
    # their subset cases below are proper and meet classes of several sizes
    subgroup_closure([(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5),
                      (0, 1, 2, 4, 5, 3), (0, 1, 2, 4, 3, 5)]),
    subgroup_closure([(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]),
])
def test_burnside_matches_explicit_orbits(group):
    assert group.order <= 120
    pairs = [(a, b) for a in group for b in group]
    orbits = diagonal_pair_orbits(pairs, group)
    assert burnside_pair_count(group) == len(orbits)
    assert sum(o.size for o in orbits) == group.order ** 2
    for o in orbits:
        assert o.representative == min(o.members)
    # subset case: the centralizer of a normal subgroup (the one generated
    # by the squares) is normal, so its pairs form a union of orbits
    normal = subgroup_closure([compose(g, g) for g in group], group.degree)
    subset = centralizer(group, normal.elements)
    sub_pairs = [(a, b) for a in subset for b in subset]
    assert burnside_pair_count(group, subset) == \
        len(diagonal_pair_orbits(sub_pairs, group))


def test_burnside_rejects_subset_that_is_not_a_union_of_classes():
    with pytest.raises(ValueError, match="not closed"):
        burnside_pair_count(symmetric_group(3), {identity(3), (1, 0, 2)})
    with pytest.raises(ValueError, match="not contained"):
        burnside_pair_count(subgroup_closure([(1, 2, 0)]), {(1, 0, 2)})


def test_orbit_reps_are_canonical_and_sorted():
    s3 = symmetric_group(3)
    pairs = [(a, b) for a in s3 for b in s3]
    orbits = diagonal_pair_orbits(pairs, s3)
    reps = [o.representative for o in orbits]
    assert reps == sorted(reps)


def test_cycle_string_and_parse_roundtrip():
    assert cycle_string(identity(4)) == "()"
    assert cycle_string((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
    for text, n in [("(0 1 2)(3 4)", 5), ("()", 3), ("(1 3)", 4),
                    ("(0 1) (2 3)", 4)]:
        p = parse_cycles(text, n)
        assert parse_cycles(cycle_string(p), n) == p
    assert parse_cycles(" (0 1) ( 2,3 ) ", 4) == (1, 0, 3, 2)


def test_parse_cycles_rejects_garbage():
    for bad in ["(0 1", "(0 0)", "(0 1)(1 2)", "(9)"]:
        with pytest.raises(ValueError):
            parse_cycles(bad, 3)


def test_validate_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        validate_perm((0, 0, 2))
    # a bool is an int in Python, and 1.0 == 1, but neither is a point
    for bad in [(True, False), (False,), (0, True), (1.0, 0)]:
        with pytest.raises(ValueError, match="not a permutation"):
            validate_perm(bad)


def test_conjugate_matches_definition():
    g, p = (1, 2, 0), (1, 0, 2)
    assert conjugate(g, p) == compose(compose(g, p), inverse(g))


def test_group_degree_consistency():
    with pytest.raises(ValueError):
        PermGroup(3, frozenset({(0, 1)}))
