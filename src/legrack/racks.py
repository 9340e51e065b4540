"""Finite racks as operation tables: validation, example families, symmetry groups.

Elements are always the indices 0..n-1.  ``table[x][y] = x > y`` where ``>``
is the rack operation, so each column ``y`` is the translation map ``b_y``.
"""
from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .perms import (
    FrozenRecord,
    Perm,
    PermGroup,
    cycle_type,
    cycles,
    identity,
    inverse,
    power,
    subgroup_closure,
    validate_perm,
)


class RackError(ValueError):
    """Axiom or format violation, carrying the axiom name and a witness."""

    def __init__(self, message: str, axiom: str | None = None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class RackTable(FrozenRecord):
    """A validated n x n rack operation table."""

    n: int
    rows: tuple[tuple[int, ...], ...]
    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, rows=rows)

    @classmethod
    def from_columns(cls, columns) -> RackTable:
        """The table whose column y is ``columns[y]``, not checked; the
        given tuples are kept as its ``columns`` rather than rebuilt."""
        table = cls(len(columns), tuple(zip(*columns)))
        table.__dict__["columns"] = tuple(columns)
        return table

    @cached_property
    def columns(self) -> tuple[Perm, ...]:
        return tuple(zip(*self.rows))

    @cached_property
    def inv_rows(self) -> tuple[tuple[int, ...], ...]:
        """``inv_rows[x][y] = x >^-1 y``, the inverse table by rows: row x
        reads the inverted columns at x."""
        return tuple(zip(*(inverse(c) for c in self.columns)))

    @cached_property
    def is_permutation_rack(self) -> bool:
        """Whether every column is the kink, x > y = kink(x): then X is the
        permutation rack of its kink (``permutation_rack``)."""
        return self.columns.count(self.flags.kink) == self.n

    @cached_property
    def generic_counts(self) -> dict[tuple[Perm, ...], dict]:
        """The coloring memo that both counters share, in two levels, one
        inner dict per tuple of composed cusp words; see the ``coloring``
        module docstring."""
        return {}

    @cached_property
    def _kink_powers(self) -> dict[int, Perm]:
        return {}

    def kink_power(self, k: int) -> Perm:
        """kink^k for any integer k, computed once per table; both coloring
        counters read it on a memo miss."""
        p = self._kink_powers.get(k)
        if p is None:
            p = self._kink_powers[k] = power(self.flags.kink, k)
        return p

    @cached_property
    def column_types(self) -> tuple[tuple[int, ...], ...]:
        """Cycle type of each column, computed once per table."""
        return tuple(cycle_type(c) for c in self.columns)

    @cached_property
    def element_colors(self) -> tuple[tuple, ...]:
        """Per element x: the cycle type of column x, the length of x's
        cycle under the kink and the value multiplicities of row x, in
        descending order.  An isomorphism phi carries each of the three at
        x to the same at phi(x), so the colors are isomorphism invariants
        that ``_iso_search`` and the census's coset method match on."""
        kink_len = [1] * self.n
        for cyc in cycles(self.flags.kink):
            for x in cyc:
                kink_len[x] = len(cyc)
        return tuple(
            (ct, kl, tuple(sorted(map(row.count, set(row)), reverse=True)))
            for ct, kl, row in zip(self.column_types, kink_len, self.rows))

    @cached_property
    def flags(self) -> RackFlags:
        """Kink map and quandle / involutory flags; see ``rack_flags``."""
        n = self.n
        kink = tuple(self.rows[x][x] for x in range(n))
        return RackFlags(
            is_quandle=kink == identity(n),
            is_involutory=all(c[c[x]] == x for c in self.columns
                              for x in range(n)),
            kink=kink)

    @cached_property
    def automorphisms(self) -> PermGroup:
        """Aut(X), computed once per table; see ``automorphism_group``.

        On a permutation rack (``is_permutation_rack``) Aut(X) is the
        kink's centralizer, listed from its cycle type (``_centralizer``;
        see ``permutation_rack``).  Any other table is searched
        (``_iso_search``)."""
        if self.is_permutation_rack:
            return PermGroup(self.n, _centralizer(self.flags.kink))
        return PermGroup(self.n, frozenset(_iso_search(self, self)))

    @cached_property
    def gl_center(self) -> PermGroup:
        """U_X = C_Aut(Inn), the group of GL-structures, computed once per
        table.

        The columns generate Inn(X), so an automorphism commutes with all
        of Inn(X) exactly when it commutes with every column; Inn(X) itself
        is never listed.  An automorphism g carries column y to column g(y)
        (g b_y g^-1 = b_g(y)), so g commutes with b_y exactly when
        b_g(y) = b_y, and no permutations are composed.  For the
        permutation rack of sigma every column is sigma, and U_X is the
        centralizer of sigma.
        """
        columns = self.columns
        return PermGroup(self.n, frozenset(
            g for g in self.automorphisms.elements
            if all(columns[x] == c for x, c in zip(g, columns))))


class RackFlags(NamedTuple):
    is_quandle: bool
    is_involutory: bool
    kink: Perm


def validate_rack(table) -> RackTable:
    """Validate R1/R2 for a candidate table; raise RackError with a witness."""
    if isinstance(table, RackTable):
        rows = table.rows
    else:
        rows = tuple(tuple(row) for row in table)
    n = len(rows)
    for x, row in enumerate(rows):
        if len(row) != n:
            raise RackError(f"row {x} has length {len(row)}, expected {n}",
                            axiom="shape", witness=x)
        for y, v in enumerate(row):
            if (isinstance(v, bool) or not isinstance(v, int)
                    or not 0 <= v < n):
                raise RackError(f"entry out of range at ({x},{y}): {v!r}",
                                axiom="range", witness=(x, y))
    for y in range(n):
        col = [rows[x][y] for x in range(n)]
        if sorted(col) != list(range(n)):
            raise RackError(f"R1 violated: column {y} is not a bijection",
                            axiom="R1", witness=y)
    for z in range(n):
        col_z = [rows[x][z] for x in range(n)]
        for y in range(n):
            yz = col_z[y]
            for x in range(n):
                if rows[rows[x][y]][z] != rows[col_z[x]][yz]:
                    raise RackError(
                        f"R2 violated at (x,y,z)=({x},{y},{z})",
                        axiom="R2", witness=(x, y, z))
    return RackTable(n, rows)


def rack_flags(rack: RackTable) -> RackFlags:
    """Kink map x -> x>x plus the quandle / involutory flags, cached on the
    table after the first call."""
    return rack.flags


# --- example families ------------------------------------------------------

def trivial_quandle(n: int) -> RackTable:
    return validate_rack([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> RackTable:
    return validate_rack([[(2 * y - x) % n for y in range(n)] for x in range(n)])


def alexander_quandle(n: int, t: int) -> RackTable:
    if n > 0 and gcd(t % n, n) != 1:
        raise RackError(f"alexander: gcd(t,n) must be 1, got t={t}, n={n}")
    return validate_rack(
        [[((1 - t) * y + t * x) % n for y in range(n)] for x in range(n)]
    )


def ts_rack(n: int, t: int, s: int) -> RackTable:
    if n > 0 and gcd(t % n, n) != 1:
        raise RackError(f"ts_rack: gcd(t,n) must be 1, got t={t}, n={n}")
    if n > 0 and (s * s - s * (1 - t)) % n != 0:
        raise RackError(f"ts_rack: s^2 = s(1-t) mod n fails for t={t}, s={s}, n={n}")
    return validate_rack([[(t * x + s * y) % n for y in range(n)] for x in range(n)])


def permutation_rack(sigma) -> RackTable:
    """The permutation rack of sigma, x > y = sigma(x).

    Every column is sigma, so R1 holds, and (x > y) > z = sigma^2(x) =
    (x > z) > (y > z) is R2: the table is valid without a check.  A
    permutation phi is an automorphism exactly when phi o sigma = sigma o
    phi, and it then commutes with every column, so Aut(X) = U_X = C(sigma),
    which ``RackTable.automorphisms`` lists from sigma's cycle type
    (``_centralizer``) with no search.  ``_iso_search`` is its oracle.
    """
    sigma = validate_perm(sigma)
    return RackTable.from_columns((sigma,) * len(sigma))


def _centralizer(sigma: Perm) -> frozenset[Perm]:
    """C(sigma), listed from sigma's cycle type.

    An element of C(sigma) maps each cycle of sigma onto a cycle of the
    same length, the cycles of each length k onto each other in any of
    m_k! ways, and then rotates each image in any of k ways; every such map
    commutes with sigma.  So |C(sigma)| = prod_k k^m_k m_k!.  Fixed points
    are the cycles of length 1, which ``cycles`` omits.
    """
    n = len(sigma)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in cycles(sigma) + [(x,) for x in range(n) if sigma[x] == x]:
        by_length.setdefault(len(cyc), []).append(cyc)
    sources = list(itertools.chain.from_iterable(by_length.values()))
    elements = []
    image = [0] * n
    for targets in itertools.product(
            *map(itertools.permutations, by_length.values())):
        targets = list(itertools.chain.from_iterable(targets))
        for shifts in itertools.product(*(range(len(c)) for c in sources)):
            for src, dst, s in zip(sources, targets, shifts):
                for x, y in zip(src, dst[s:] + dst[:s]):
                    image[x] = y
            elements.append(tuple(image))
    return frozenset(elements)


# --- automorphisms and isomorphisms ----------------------------------------

def _iso_search(src: RackTable, dst: RackTable):
    """Yield the table isomorphisms src -> dst one at a time, in
    lexicographic order, by a backtracking search with propagation.

    Assigning phi(x)=v forces phi(src[x][y]) = dst[v][phi(y)] for every
    already-assigned y (and symmetrically), which prunes hard; a forced
    pair whose source is assigned is compared on the spot, any other is
    queued.  x may only go to a v of the same ``element_colors`` entry:
    every isomorphism keeps the colors, so this cuts only branches that
    cannot succeed.  The smallest unassigned x branches, over v ascending,
    so the isomorphisms come in lexicographic order.  A branch is undone
    by stack height: the elements it assigned are those past the length
    ``assigned`` had before it.
    """
    n = src.n
    if dst.n != n:
        return
    src_colors = src.element_colors
    dst_colors = dst.element_colors
    if sorted(src_colors) != sorted(dst_colors):
        return
    srows, drows = src.rows, dst.rows
    fwd = [-1] * n
    bwd = [-1] * n
    assigned: list[int] = []

    def assign(x: int, v: int) -> bool:
        queue = [(x, v)]
        while queue:
            x, v = queue.pop()
            if fwd[x] != -1:
                if fwd[x] != v:
                    return False
                continue
            if bwd[v] != -1 or src_colors[x] != dst_colors[v]:
                return False
            fwd[x] = v
            bwd[v] = x
            assigned.append(x)
            sx, dv = srows[x], drows[v]
            for y in assigned:
                fy = fwd[y]
                s, w = sx[y], dv[fy]
                fs = fwd[s]
                if fs == -1:
                    queue.append((s, w))
                elif fs != w:
                    return False
                s, w = srows[y][x], drows[fy][v]
                fs = fwd[s]
                if fs == -1:
                    queue.append((s, w))
                elif fs != w:
                    return False
        return True

    def extend():
        if len(assigned) == n:
            yield tuple(fwd)
            return
        x = fwd.index(-1)
        for v in range(n):
            if bwd[v] != -1 or src_colors[x] != dst_colors[v]:
                continue
            k = len(assigned)
            if assign(x, v):
                yield from extend()
            for i in assigned[k:]:
                bwd[fwd[i]] = -1
                fwd[i] = -1
            del assigned[k:]

    try:
        yield from extend()
    finally:
        # extend holds itself through its closure.  Dropping that reference
        # frees this search's lists now rather than in a cyclic collection,
        # also when the caller abandons the search after a first yield.
        del extend


def automorphism_group(rack: RackTable) -> PermGroup:
    """Aut(X), cached on the table after the first search."""
    return rack.automorphisms


def inner_group(rack: RackTable) -> PermGroup:
    """Inn(X), the closure of the column translation maps."""
    return subgroup_closure(rack.columns, degree=rack.n)


# --- text format ------------------------------------------------------------

def rack_to_text(rack: RackTable) -> str:
    lines = [str(rack.n)]
    for row in rack.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# The largest order ``rack_from_text`` reads.  Validating a table checks
# its n^3 triples for R2: about 0.8 s at order 256 (Python 3.11 on a
# 2-vCPU VM), and eight times as long per doubling of n.
MAX_RACK_ORDER = 256


# An integer in ASCII digits, as ``rack_to_text`` writes it, so ``int``
# never sees "+1", "0_3" or non-ASCII digits.  A minus is let through to
# the checks that reject a negative order or entry with their own reason.
_INT_TOKEN = re.compile(r"-?[0-9]+")
# Lines end at "\n" (a "\r" before it is dropped) and tokens are
# separated by ASCII spaces and tabs: ``str.splitlines`` and ``str.split``
# would also take the other Unicode line breaks and spaces, which
# ``rack_to_text`` never writes.
_BLANKS = re.compile(r"[ \t]+")


def _int_tokens(lineno: int, raw: str, line: str) -> list[int]:
    tokens = _BLANKS.split(line)
    if not all(map(_INT_TOKEN.fullmatch, tokens)):
        raise RackError(f"line {lineno}: expected integers separated by "
                        f"spaces or tabs, got {raw!r}")
    return [int(tok) for tok in tokens]


def rack_from_text(text: str) -> RackTable:
    """The rack of a ``.rack`` text: its order on the first line that is
    not blank or a comment, then one row of integers per line.  The order
    is checked against ``MAX_RACK_ORDER`` before any row is parsed."""
    lines = [(lineno, raw, line)
             for lineno, raw in enumerate(text.split("\n"), start=1)
             if (line := raw.split("#", 1)[0].strip(" \t\r"))]
    if not lines:
        raise RackError("empty rack file")
    header = _int_tokens(*lines[0])
    lineno = lines[0][0]
    if len(header) != 1:
        raise RackError(f"line {lineno}: expected a single order, got {header}")
    n = header[0]
    if n < 0:
        raise RackError(f"line {lineno}: order must be nonnegative, got {n}")
    if n > MAX_RACK_ORDER:
        raise RackError(f"line {lineno}: order {n} is above {MAX_RACK_ORDER}, "
                        f"the largest order read: validating a table checks "
                        f"its n^3 triples, about 0.8 s at order "
                        f"{MAX_RACK_ORDER} and 8 times as long per doubling")
    body = lines[1:]
    if len(body) != n:
        raise RackError(f"expected {n} table rows, got {len(body)}")
    return validate_rack([_int_tokens(*row) for row in body])


def load_rack(path) -> RackTable:
    with open(path, encoding="utf-8") as fh:
        return rack_from_text(fh.read())


def save_rack(rack: RackTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rack_to_text(rack))
