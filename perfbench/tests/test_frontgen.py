import random

import pytest

from legrack.coloring import brute_force_colorings, count_colorings
from legrack.fourleg import classify_structures, make_fourleg
from legrack.front import (
    CrossingPass,
    classical_invariants,
    fundamental_presentation,
    left_trefoil,
)
from legrack.racks import dihedral_quandle, trivial_quandle

import frontgen


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_trefoil_sum_invariants_and_arcs(k):
    code = frontgen.trefoil_sum(k)
    inv = classical_invariants(code)
    assert (inv.tb, inv.rot) == (-6 * k + (k - 1), -k)
    passes = [ev for ev in code.events if isinstance(ev, CrossingPass)]
    assert len({ev.crossing for ev in passes}) == 3 * k
    assert fundamental_presentation(code).generators == 3 * k


def test_trefoil_sum_of_one_is_the_trefoil():
    assert frontgen.trefoil_sum(1) == left_trefoil()
    with pytest.raises(ValueError):
        frontgen.trefoil_sum(0)


def test_seeded_front_bookkeeping():
    for seed in range(20):
        for k in (1, 2, 3):
            f = frontgen.seeded_front(k, 3, random.Random(seed))
            assert f.tb == -6 * k + (k - 1) - 3
            assert f.rot == -k + sum(f.signs)
            assert (f.tb + f.rot) % 2 == 1
            for code in f.placements:
                inv = classical_invariants(code)
                assert (inv.tb, inv.rot) == (f.tb, f.rot)


def test_front_set_is_determined_by_the_seed():
    assert frontgen.front_set(7) == frontgen.front_set(7)
    sets = {tuple(f.placements for f in frontgen.front_set(s)) for s in range(5)}
    assert len(sets) == 5


def test_placements_differ_but_count_the_same():
    fronts = frontgen.front_set(3, summands=(1, 2, 2))
    assert any(f.placements[0] != f.placements[1] for f in fronts)
    for rack in (trivial_quandle(3), dihedral_quandle(3)):
        for cls in classify_structures(rack):
            fl = make_fourleg(rack, cls.ul, cls.ur)
            for f in fronts:
                pa, pb = (fundamental_presentation(c) for c in f.placements)
                assert count_colorings(pa, fl) == count_colorings(pb, fl)


def test_single_trefoil_counts_match_brute_force():
    f = frontgen.front_set(5, summands=(1,))[0]
    rack = trivial_quandle(3)
    for cls in classify_structures(rack):
        fl = make_fourleg(rack, cls.ul, cls.ur)
        for code in f.placements:
            pres = fundamental_presentation(code)
            assert count_colorings(pres, fl) == brute_force_colorings(pres, fl)
