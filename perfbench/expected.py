"""Exact reference values the benchmark checks program output against.

Kept here rather than imported from the test suite, so that the benchmark
stands on its own.  The census table is built from the published rack
counts and the gate's structure counts; importing the module checks that
the counts are consistent (kei within involutory racks and quandles,
those within racks) and that the order-4 rack list has A181771's size.
"""
from __future__ import annotations

# Racks up to isomorphism, orders 0..6 (Vojtechovsky-Yang, Math. Comp. 2019;
# OEIS A181771, with the empty rack at order 0).
A181771 = (1, 1, 2, 6, 19, 74, 353)

# Quandles up to isomorphism, orders 0..6 (OEIS A181769, empty one at 0).
A181769 = (1, 1, 1, 3, 7, 22, 73)

# Acceptance-gate structure-class counts: (racks, involutory, quandles, kei).
GATE_STRUCTURE_COUNTS = {
    0: (1, 1, 1, 1),
    1: (1, 1, 1, 1),
    2: (8, 8, 4, 4),
    3: (33, 24, 16, 16),
    4: (249, 196, 84, 74),
    5: (1592, 850, 448, 342),
    6: (15944, 9248, 3137, 2228),
}

FAMILIES = ("racks", "involutory", "quandles", "kei")

# Rack-class counts per family for the families with no outside oracle.
_INVOLUTORY = (1, 1, 2, 5, 13, 42, 180)
_KEI = (1, 1, 1, 3, 5, 13, 41)


def _census_csv() -> str:
    lines = ["order,family,rack_classes,structure_classes"]
    for order in range(7):
        racks = (A181771[order], _INVOLUTORY[order], A181769[order], _KEI[order])
        for family, rc, sc in zip(FAMILIES, racks,
                                  GATE_STRUCTURE_COUNTS[order]):
            lines.append(f"{order},{family},{rc},{sc}")
    return "".join(line + "\n" for line in lines)


# `legrack census --max-order 6 --no-header`, byte for byte.
CENSUS_CSV = _census_csv()

# Sweep, by the largest order n: (permutation 4-Legendrian structures of
# order <= n, sum of every generic coloring count over them and the 12
# built-in fixtures).  n = 5 is the gate's sweep; n = 3, whose counts agree
# with the brute-force counter, is the size the benchmark's tests run.
SWEEP = {3: (75, 1416), 5: (20427, 597744)}

# One table per rack class of order 4, rows separated by spaces
# (row x lists x > 0, ..., x > 3).
_ORDER4 = """
0000 1222 2333 3111
0000 2333 3111 1222
0000 2222 3333 1111
1111 2222 3333 0000
0011 1100 2233 3322
0000 1111 2233 3322
0000 1111 2333 3222
0011 1100 3333 2222
0000 1111 3333 2222
1100 0011 2233 3322
1111 0000 2233 3322
1111 0000 3333 2222
0001 1112 2220 3333
0312 2130 3021 1203
0011 1100 2222 3333
0000 1111 2322 3233
0000 1111 2222 3333
0000 1132 2321 3213
0011 1100 3322 2233
"""
ORDER4_RACKS = tuple(
    tuple(tuple(int(c) for c in row) for row in line.split())
    for line in _ORDER4.strip().splitlines())

# Structure classes over the fronts rack list: R3, R5 and the Alexander
# quandle (5, 2) have a trivial group of GL-structures (one class each),
# T3 has 11, the order-4 racks together have the gate's 249, and the
# permutation racks of an n-cycle have n^2 (n = 3, 4).
FRONTS_STRUCTURES = 1 + 1 + 1 + 11 + GATE_STRUCTURE_COUNTS[4][0] + 9 + 16


def _check() -> None:
    for order in range(7):
        racks, inv, quandles, kei = GATE_STRUCTURE_COUNTS[order]
        if not (kei <= min(inv, quandles) and max(inv, quandles) <= racks):
            raise ValueError(f"gate counts for order {order} are not nested")
        if not (_KEI[order] <= min(_INVOLUTORY[order], A181769[order])
                and max(_INVOLUTORY[order], A181769[order]) <= A181771[order]):
            raise ValueError(f"rack counts for order {order} are not nested")
    if len(set(ORDER4_RACKS)) != A181771[4]:
        raise ValueError("the order-4 rack list does not match A181771")


_check()
