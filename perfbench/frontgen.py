"""Seeded large fronts for the ``fronts`` workload.

A front is a connected sum of k left trefoils carrying a seeded multiset of
stabilizations.  The connected sum of A and B removes the ``R D`` cusp of A
and the ``L U`` cusp of B and splices the event sequences there; B's
crossings are renumbered after A's.  Each front comes in two placements:
the same stabilizations inserted at different seeded positions.  Moving a
stabilization along the knot is a Legendrian isotopy, so both placements
must have equal coloring counts under every 4-Legendrian rack.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import legrack.front as front
from legrack.front import CrossingPass, Cusp, FrontCode

# Stabilizations per front, each placed twice.
STABILIZATIONS = 2


@dataclass(frozen=True)
class SeededFront:
    name: str
    summands: int
    signs: tuple[int, ...]
    tb: int
    rot: int
    placements: tuple[FrontCode, FrontCode]


def _crossing_ids(code: FrontCode) -> set[int]:
    return {ev.crossing for ev in code.events if isinstance(ev, CrossingPass)}


def connected_sum(a: FrontCode, b: FrontCode) -> FrontCode:
    """A # B, joined at the first ``R D`` cusp of A and ``L U`` cusp of B."""
    p = a.events.index(Cusp("R", "D"))
    q = b.events.index(Cusp("L", "U"))
    offset = max(_crossing_ids(a), default=0)
    b_events = tuple(
        CrossingPass(ev.crossing + offset, ev.sign, ev.role)
        if isinstance(ev, CrossingPass) else ev
        for ev in b.events)
    return front.validate_front(a.events[p + 1:] + a.events[:p]
                          + b_events[q + 1:] + b_events[:q])


def trefoil_sum(k: int) -> FrontCode:
    """Connected sum of ``k`` >= 1 left trefoils."""
    if k < 1:
        raise ValueError("a connected sum needs at least one summand")
    code = front.left_trefoil()
    for _ in range(k - 1):
        code = connected_sum(code, front.left_trefoil())
    return code


def place_stabilizations(code: FrontCode, signs, rng: random.Random) -> FrontCode:
    """Insert one stabilization per sign, in seeded order at seeded positions."""
    order = list(signs)
    rng.shuffle(order)
    for sign in order:
        code = front.stabilize(code, sign,
                               position=rng.randrange(len(code.events) + 1))
    return code


def seeded_front(k: int, stabilizations: int, rng: random.Random) -> SeededFront:
    """k trefoils, ``stabilizations`` seeded signs, two seeded placements."""
    base = trefoil_sum(k)
    signs = tuple(sorted(rng.choice((1, -1)) for _ in range(stabilizations)))
    placements = (place_stabilizations(base, signs, rng),
                  place_stabilizations(base, signs, rng))
    trefoil = front.classical_invariants(front.left_trefoil())
    tb = k * trefoil.tb + (k - 1) - len(signs)
    rot = k * trefoil.rot + sum(signs)
    for code in placements:
        inv = front.classical_invariants(code)
        if (inv.tb, inv.rot) != (tb, rot):
            raise ValueError(f"k={k} signs={signs}: got (tb, rot)="
                             f"({inv.tb}, {inv.rot}), expected ({tb}, {rot})")
    if (tb + rot) % 2 != 1:
        raise ValueError(f"k={k}: tb + rot = {tb + rot} is even, so no "
                         f"Legendrian knot realizes the front")
    name = f"trefoil{k}_" + "".join("+" if s > 0 else "-" for s in signs)
    return SeededFront(name, k, signs, tb, rot, placements)


def front_set(seed: int, summands=(1, 2, 3, 4)) -> list[SeededFront]:
    """One seeded front per summand count; the same seed gives the same set."""
    rng = random.Random(seed)
    return [seeded_front(k, STABILIZATIONS, rng) for k in summands]
