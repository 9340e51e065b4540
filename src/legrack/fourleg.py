"""4-Legendrian structures on finite racks and their classification.

A 4-Legendrian structure is an ordered pair (ul, ur) of GL-structures,
i.e. elements of U_X, the centralizer of Inn(X) inside Aut(X), which
``RackTable.gl_center`` reads off the columns that generate Inn(X).  The
two down maps follow from the pair: dl = ur^-1 o kink^-1 and
dr = ul^-1 o kink^-1, written once in ``_down_maps``.  ``make_fourleg``
builds one structure after checking its pair against U_X;
``enumerate_structures`` is the one walk of U_X x U_X, which
``coloring.permutation_structures`` reuses.

ul and ur are automorphisms, which commute with the kink, so all four maps
commute with it, and dl o ur = ur o dl = dr o ul = ul o dr = kink^-1
(Kimura's axioms 1-2).  So in a cusp word, read earliest letter first, an
adjacent (ur, dl), (dl, ur), (ul, dr) or (dr, ul) composes to kink^-1:
``cancel_cusp_pairs`` cancels such pairs, and a word W composes to
kink^-c o R, R the word left and c the number of pairs cancelled.
``word_indices`` writes a word's letters as positions in the structure
tuple, the form in which the coloring counters compose it.
"""
from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .perms import (
    Perm,
    compose,
    conjugate,
    inverse,
    validate_perm,
)
from .racks import RackTable, automorphism_group, rack_flags


class FourLegStructure(NamedTuple):
    ul: Perm
    ur: Perm
    dl: Perm
    dr: Perm


class FourLegRack:
    """A 4-Legendrian structure on a rack table, with ``generic_slices``,
    the inner dicts of the rack table's coloring memo
    (``RackTable.generic_counts``) that the coloring counters have read
    for it, each under the string key of the reduced words whose
    permutations key it (``Presentation.slice_key``), and the composed
    words of its slices of two or more words, under their index words.
    The ``coloring`` module docstring describes the memo.

    A sweep builds each structure once and counts it at once, so the
    cache is a slot, made empty with the instance.  The structure compares,
    hashes and prints by (rack, structure) alone.  It has no assignment
    guard: a guarded constructor would cost more than the structure's
    first count on the sweep.

    The memo's outer key holds only the reduced words' permutations.  So
    every structure on one table must satisfy axioms 1-2 for that table's
    kink, as every structure ``make_fourleg`` and ``enumerate_structures``
    build does.
    """

    __slots__ = ("rack", "structure", "generic_slices")
    rack: RackTable
    structure: FourLegStructure
    generic_slices: dict[str, dict]

    def __init__(self, rack: RackTable, structure: FourLegStructure):
        self.rack = rack
        self.structure = structure
        self.generic_slices = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rack, self.structure) == (other.rack, other.structure)

    def __hash__(self):
        return hash((self.rack, self.structure))

    def __repr__(self):
        return f"FourLegRack(rack={self.rack!r}, structure={self.structure!r})"


def word_indices(word: tuple[str, ...]) -> tuple[int, ...]:
    """The cusp word ``word`` as the positions of its letters among the
    fields of ``FourLegStructure``: letter i of the word is the map
    ``structure[word_indices(word)[i]]`` of any structure."""
    return tuple(map(FourLegStructure._fields.index, word))


# The adjacent letter pairs that compose to kink^-1 (Kimura's axioms 1-2).
_CANCELLING_PAIRS = (("ur", "dl"), ("dl", "ur"), ("ul", "dr"), ("dr", "ul"))


def cancel_cusp_pairs(word: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """(R, c): ``word`` with its adjacent cancelling pairs removed by a
    stack, and the number c of pairs removed.

    On every structure W = kink^-c o R, W and R the permutations of
    ``word`` and R: each pair removed composes to kink^-1, which commutes
    with every map.  R has no adjacent cancelling pair left.
    """
    stack: list[str] = []
    for letter in word:
        if stack and (stack[-1], letter) in _CANCELLING_PAIRS:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack), (len(word) - len(stack)) // 2


class StructureClass(NamedTuple):
    """One isomorphism class of 4-Legendrian structures on a fixed rack."""

    ul: Perm
    ur: Perm
    orbit_size: int


def _down_maps(kink: Perm, elems) -> list[Perm]:
    """u^-1 o kink^-1 for each u of ``elems``, the kink inverted once: the
    down map dl of a structure whose ur is u, and dr of one whose ul is u."""
    kink_inv = inverse(kink)
    return [compose(inverse(u), kink_inv) for u in elems]


def make_fourleg(rack: RackTable, ul, ur) -> FourLegRack:
    """The 4-Legendrian rack of the GL-structures (ul, ur) on ``rack``, with
    its down maps derived from them; raises ValueError unless both lie in
    U_X, i.e. are automorphisms commuting with every column."""
    ul = validate_perm(ul)
    ur = validate_perm(ur)
    center = rack.gl_center
    if ul not in center or ur not in center:
        raise ValueError("ul and ur must be GL-structures: automorphisms "
                         "that commute with every column (elements of U_X)")
    dl, dr = _down_maps(rack_flags(rack).kink, (ur, ul))
    return FourLegRack(rack, FourLegStructure(ul, ur, dl, dr))


def enumerate_structures(rack: RackTable) -> Iterator[FourLegStructure]:
    """Yield all |U_X|^2 structures, one per step, lexicographically ordered
    by (ul, ur); they share one down-map tuple per element of U_X.  Each is
    made by ``tuple.__new__``, which skips the Python frame of the named
    tuple's own constructor and gives the same instance."""
    elems = rack.gl_center.sorted_elements()
    downs = _down_maps(rack_flags(rack).kink, elems)
    new = tuple.__new__
    for ul, dr in zip(elems, downs):
        for ur, dl in zip(elems, downs):
            yield new(FourLegStructure, (ul, ur, dl, dr))


def classify_structures(rack: RackTable) -> list[StructureClass]:
    """Orbit representatives of U_X x U_X under diagonal conjugation by Aut(X).

    Returned sorted by canonical (lexicographically least) representative,
    each with the size of its orbit.  U_X is normal in Aut(X): for h in
    Aut, h b_y h^-1 = b_{h(y)}, so h Inn h^-1 = Inn and h U_X h^-1
    centralizes Inn as well.  So Aut acts on U_X by conjugation.

    Listing rule: walk U_X in sorted order, skipping every ``a`` already in
    the conjugacy class of an earlier one.  One pass over Aut gives the class
    K(a) and the centralizer C(a).  Walk U_X again in sorted order, skipping
    every ``b`` already in the C(a)-orbit of an earlier one; each new ``b``
    gives the class of (a, b), of size |K(a)| |C(a).b|.

    Why (a, b) is the least pair of its orbit: the first entries of the
    orbit's pairs are exactly K(a), whose least element is ``a`` (the first
    one the walk meets).  The pairs starting with ``a`` are (a, g b g^-1)
    for g in C(a), i.e. one C(a)-orbit, whose least element is ``b``.  The
    orbit size is |Aut| / |C(a) n C(b)| = |K(a)| |C(a) : C(a) n C(b)|.

    Cost: |Aut| conjugations per representative a plus |C(a)| per class
    listed, at most |U| |Aut| + sum_a |C(a)| |U| in all, against
    |U|^2 |Aut| for conjugating every pair by every automorphism.
    """
    elems = rack.gl_center.sorted_elements()
    aut = automorphism_group(rack).sorted_elements()
    classes: list[StructureClass] = []
    covered_a: set[Perm] = set()
    for a in elems:
        if a in covered_a:
            continue
        klass: set[Perm] = set()
        cent = []
        for g in aut:
            c = conjugate(g, a)
            klass.add(c)
            if c == a:
                cent.append(g)
        covered_a |= klass
        covered_b: set[Perm] = set()
        for b in elems:
            if b in covered_b:
                continue
            orbit = {conjugate(g, b) for g in cent}
            covered_b |= orbit
            classes.append(StructureClass(a, b, len(klass) * len(orbit)))
    return classes


# --- Kimura's eight-axiom characterization ----------------------------------

class KimuraReport(NamedTuple):
    """Outcome of the eight-axiom check on an arbitrary candidate quadruple.

    The published axiom list repeats its seventh line where a u-map analogue
    is expected, so the d-form and the presumed u-form are checked and
    reported separately instead of silently picking one.
    """

    core_ok: bool
    d_form_ok: bool
    u_form_ok: bool
    failures: tuple[tuple[str, tuple], ...]

    @property
    def passed(self) -> bool:
        return self.core_ok and self.d_form_ok and self.u_form_ok


def check_kimura_axioms(rack: RackTable, s: FourLegStructure) -> KimuraReport:
    """Check the eight-axiom definition; maps may be arbitrary functions X->X."""
    n = rack.n
    rows = rack.rows
    ul, ur, dl, dr = s.ul, s.ur, s.dl, s.dr
    for m in (ul, ur, dl, dr):
        if len(m) != n or any(not (0 <= v < n) for v in m):
            raise ValueError("candidate maps must be functions on range(n)")
    failures: list[tuple[str, tuple]] = []

    def holds(name: str, witnesses, rule) -> bool:
        # records the first witness, in scan order, that breaks the rule
        for w in witnesses:
            if not rule(*w):
                failures.append((name, w))
                return False
        return True

    points = [(x,) for x in range(n)]
    pairs = [(x, y) for x in range(n) for y in range(n)]
    core = [
        # Axiom 1: dl ur = ur dl = dr ul = ul dr as functions.
        holds("mixed-commutation", points,
              lambda x: dl[ur[x]] == ur[dl[x]] == dr[ul[x]] == ul[dr[x]]),
        # Axiom 2: dr ul (x > x) = x.
        holds("kink-inversion", points, lambda x: dr[ul[rows[x][x]]] == x),
    ]
    # Axioms 3-6: f(x > y) = f(x) > y for each of the four maps.
    core += [holds(f"left-equivariance-{name}", pairs,
                   lambda x, y, f=f: f[rows[x][y]] == rows[f[x]][y])
             for name, f in (("dl", dl), ("ul", ul), ("dr", dr), ("ur", ur))]
    # Axiom 7 (the d-form) and the presumed u-form in place of its repeat:
    # x > f(y) = x > y for both maps f of the form.
    d_form_ok, u_form_ok = [
        holds(f"right-triviality-{form}", pairs,
              lambda x, y, f=f, g=g:
                  rows[x][f[y]] == rows[x][y] == rows[x][g[y]])
        for form, f, g in (("d", dl, dr), ("u", ul, ur))]
    return KimuraReport(all(core), d_form_ok, u_form_ok, tuple(failures))
