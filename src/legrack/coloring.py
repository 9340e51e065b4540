"""Coloring counts of Legendrian fronts by finite 4-Legendrian racks.

``count_colorings`` is the generic counter over a fundamental presentation,
and ``brute_force_colorings`` its exhaustive oracle.  A coloring gives each
arc a color so that color(out) = W(color(in)) >^sign color(over) at every
crossing.  Each relation reads rows[a] = T[W(a)], with T the rack table for
sign +1 and the inverse table for sign -1, so its output is rows[a][o], W
the relation's cusp word composed into one permutation.  A front without
crossings has one arc, and its colorings are the colors its closure word
W fixes.  The oracle composes each relation's rows once per call, applying
the unreduced cusp word letter by letter, and then checks every one of
the |X|^generators assignments; it shares no code with the generic counter.

So the count depends only on the rack table, the presentation and the
permutations W of its cusp words, and a shorter list of permutations fixes
those.  The counter is run only on structures that satisfy Kimura's axioms
1-2, as every one ``fourleg`` builds does: dl o ur = ur o dl = dr o ul =
ul o dr = kink^-1, and the kink commutes with all four maps.  So each cusp
word W is kink^-c o R, R the word with adjacent (ur, dl), (dl, ur),
(ul, dr) and (dr, ul) pairs cancelled (``cancel_cusp_pairs``) and c the
number of pairs cancelled.  On one rack table the kink is fixed,
and c is fixed by the presentation, so the permutations of the
presentation's distinct nonempty reduced words
(``Presentation.reduced_words``, computed when the presentation is
made) fix every W, and W fixes them back; they key the memo below.  So
a miss reads only what the key holds: the permutations R of the reduced
words, which the memo's inner dict keeps next to its counts, and kink
powers read off the rack table (``RackTable.kink_power``).  With
crossings it builds each relation's rows from W_i = kink^-c_i o R_i and
sign_i (``Presentation.row_specs``, made with the memo keys), level by
level of the schedule below (``_levels``), and runs the search.  Without
them W = kink^-c o R fixes x exactly when R(x) = kink^c(x), R the
reduced closure word's permutation (the identity if it reduces to ()).

A relation whose input and over-arc are colored forces its output arc,
whatever the colors, so the search follows a schedule fixed by the
presentation alone (``Presentation.schedule``, cached on it).  The search
branches on one arc per level; the level's steps are the relations that
become complete once that arc is colored, in forcing order, each forcing
its output arc or checking it.  A level colors its branch arc, runs its
steps, and stops the color at the first failed check; the last level
counts the colors that pass.  Deeper levels write only their own arcs, so
nothing is undone.  The relations of a fundamental presentation form one
cycle, arc i -> arc i+1, so once every over-arc and one arc are colored
forcing colors every arc: the search branches on the over-arcs first (each
level the one that forces the most arcs) and on at most one more arc.  A
hand-built presentation need not be one cycle, so the branch arcs then
fall back to any arc still uncolored.

For the permutation rack of sigma (x > y = sigma(x) for every y) a crossing
moves the under strand's color by sigma^+-1 whatever color the over strand
carries, so a coloring is one basepoint color fixed by the loop map: the
cusp maps in traversal order times sigma^writhe (its letter-by-letter
oracle is in ``tests/test_coloring.py``).  The four structure maps commute
with sigma, and two adjacent cusps of opposite vertical direction compose
to sigma^-1 (e.g. dl o ur = ur^-1 sigma^-1 ur).  Cancelling such pairs
leaves, up to conjugation, (dr o dl)^rot o sigma^(rot+tb); a surviving pair
of up cusps is sigma^-2 times an inverse down pair.  The kink map is sigma,
so dr o dl = ul^-1 sigma^-1 ur^-1 sigma^-1 = h^-1 sigma^-2 with h = ur o ul,
and the loop map is conjugate to h^-rot o sigma^(tb-rot).  ul commutes with
sigma, so conjugating by ul gives the closed form g^-rot o sigma^(tb-rot)
with g = ul o h o ul^-1 = ul o ur: the cusp word (ur, ul) composed, which
the generic counter composes for an up-cusp pair as well, so both counters
share one product per structure.  Conjugate maps have equally many fixed
points, so ``perm_fast_count`` counts the colorings of any front from
(tb, rot) alone.

Both counters memoize on the rack table in one dict of two levels
(``RackTable.generic_counts``), shared by all the table's structures.
Its outer key is a tuple of permutations: for ``count_colorings`` those
of the presentation's reduced words, for ``perm_fast_count`` the one
product g.  An inner dict holds generic counts under ``Presentation.key``,
a string, and closed-form counts under the front's ``ClassicalInvariants``
record, which fixes (tb, rot).  A record never equals a string, so the two
counters share inner dicts but never a count, and the sweep's comparison
of them stays independent.  Each key is exact: the generic count is fixed
by the table, the presentation and its reduced words' permutations; the
closed form by the table, g and (tb, rot).  Each structure holds the
inner dicts it has read (``FourLegRack.generic_slices``) under string
keys: the generic counter's under ``Presentation.slice_key``, the repr of
the reduced words, and the closed form's under the same string for its
one word (ur, ul), so the two share it.  The presentation's strings are
made once and hash once, so a hit is two lookups in one small frame that
reads plain attributes and builds no key.  A structure's first touch of
some reduced words (``_slice``) composes them from the presentation's
``index_words``, each word's letters as indices into the structure tuple,
by ``itemgetter`` alone, with no letter lookup and no attribute by name;
it keeps a composed word only for a slice of two or more words, the one
case in which another slice of the structure can read it again.  It then
takes the inner dict of their permutations, made only if no other
structure of the rack made one, which holds them as ``perms``; a count
the inner dict lacks is computed from those by a private helper, which
never sees the structure.  On the built-in fixtures every word reduces
to (), (ur, ul) or (dr, dl): the unknot's (ur, dl) reduces to (), so all
the structures of a rack share its count.  For a fixed ul, ur -> ul o ur
is a bijection of U_X, so the |U_X|^2 structures of one permutation rack
share |U_X| products g.  On any other rack
(``RackTable.is_permutation_rack``) the closed form's miss raises, so it
stores no count and every call raises.

Permutation racks get their structures the way every rack does: U_X is the
rack's ``gl_center``, drawn from ``RackTable.automorphisms``, which on a
table whose columns all equal the kink is the centralizer of sigma listed
from its cycle type, so no automorphism search runs;
``permutation_fourleg`` is ``make_fourleg`` on the permutation rack, and
``permutation_structures`` walks each rack's structures with
``enumerate_structures``.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from operator import eq, itemgetter
from typing import NamedTuple

from .fourleg import FourLegRack, enumerate_structures, make_fourleg, word_indices
from .perms import Perm, cycle_string, cycle_type
from .racks import RackTable, permutation_rack
from .front import Presentation, classical_invariants, fundamental_presentation


def apply_word(word, maps, x: int) -> int:
    """Apply a cusp word in traversal order (earliest letter first)."""
    for letter in word:
        x = maps[letter][x]
    return x


def _relation_output(rel, maps, rack, a: int, o: int) -> int:
    v = apply_word(rel.word, maps, a)
    return (rack.rows if rel.sign == 1 else rack.inv_rows)[v][o]


def count_colorings(pres: Presentation, fl: FourLegRack) -> int:
    """Number of homomorphisms from the presented fundamental rack to ``fl``.

    Precondition: ``fl`` satisfies Kimura's axioms 1-2 for its rack
    table's kink, as every structure ``make_fourleg`` and
    ``enumerate_structures`` build does.

    Memoized under ``pres.key`` in the inner dict of the permutations of
    ``pres.index_words``, which ``fl`` holds under ``pres.slice_key`` (see
    the module docstring); a miss is counted by ``_generic_miss``.  Its
    oracles are ``brute_force_colorings`` and, in the tests, a counter
    that rescans every relation after each assignment.
    """
    counts = fl.generic_slices.get(pres.slice_key)
    if counts is None:
        counts = _slice(fl, pres.slice_key, pres.index_words)
    count = counts.get(pres.key)
    if count is None:
        count = counts[pres.key] = _generic_miss(pres, fl.rack, counts.perms)
    return count


class _Slice(dict):
    """An inner dict of the rack table's coloring memo.  Besides its counts
    it holds ``perms``, its outer key: the permutations of the reduced
    words that its counts are for, which a miss reads."""

    __slots__ = ("perms",)


def _slice(fl: FourLegRack, key: str, words) -> _Slice:
    """The inner dict of the rack table's memo for the permutations of the
    nonempty index words ``words`` on ``fl``, made if no structure of the
    rack made it, and held by ``fl`` under ``key``: a structure's first
    touch of them.

    The permutation of (i_1, ..., i_k) is m_k(...m_1(a)), m_j = s[i_j] and
    s the structure tuple, earliest letter first.  Each composition starts
    at m_1 itself and composes each later map m as ``itemgetter(*w)(m)``,
    m o w in one C call.  On at most one point every map is the identity,
    and a one-index itemgetter would return a scalar, so there the
    composition is m_1.

    A word can recur under another key of the same structure only if one
    of the two keys has two or more words.  So the words of such a slice
    are kept in ``fl.generic_slices`` under the index word itself, a tuple
    that never equals a string key, and read from there by the next such
    slice; a one-word slice composes its word and keeps nothing.
    """
    s = fl.structure
    held = fl.generic_slices
    keep = len(words) > 1
    perms = []
    for word in words:
        w = held.get(word) if keep else None
        if w is None:
            w = s[word[0]]
            if len(w) > 1:
                for i in word[1:]:
                    w = itemgetter(*w)(s[i])
            if keep:
                held[word] = w
        perms.append(w)
    perms = tuple(perms)
    memo = fl.rack.generic_counts
    counts = memo.get(perms)
    if counts is None:
        counts = memo[perms] = _Slice()
        counts.perms = perms
    held[key] = counts
    return counts


def _generic_miss(pres: Presentation, rack: RackTable, perms) -> int:
    """The count ``count_colorings`` stores on a miss, read off the rack
    table and ``perms``, the permutations of ``pres.index_words`` that key
    the inner dict it goes to: the miss sees nothing else of the structure.

    With crossings ``_search`` runs on ``_levels``.  Without them the count
    is the x with R(x) = kink^c(x), R the reduced closure word's
    permutation (the identity if it reduces to ()) and c its cancelled
    pairs (``pres.closure_pairs``): the fixed points of W = kink^-c o R.
    """
    if pres.relations:
        return _search(_levels(pres, rack, perms), pres.generators, rack.n)
    return sum(map(eq, perms[0] if perms else range(rack.n),
                   rack.kink_power(pres.closure_pairs)))


def _levels(pres: Presentation, rack: RackTable, perms) -> list:
    """``pres.schedule`` with each step's relation rows in place of its
    relation: one (branch arc, steps) per level, each step (rows, in_arc,
    over_arc, out_arc, forces), ``rows[a][o] = W(a) >^sign o``: the rack's
    rows (sign +1) or ``RackTable.inv_rows`` (sign -1) read at W(a).
    W = kink^-c o R, R the permutation of the relation's reduced word, read
    off ``perms``, and kink^-c read off the rack table.  Each distinct rows
    list (``pres.row_specs``, made with the presentation) is built once."""
    # a relation whose word reduces to () reads position -1: the identity
    perms = (*perms, range(rack.n))
    tables = []
    for j, c, sign in pres.row_specs:
        w = perms[j]
        if c:
            w = map(rack.kink_power(-c).__getitem__, w)
        table = rack.rows if sign == 1 else rack.inv_rows
        tables.append(list(map(table.__getitem__, w)))
    return [(level.arc, [(tables[k], a, o, b, forces)
                         for _, a, o, b, forces, k in level.steps])
            for level in pres.schedule]


def _search(levels, generators: int, n: int) -> int:
    """Colorings by n colors of a presentation with ``generators`` arcs,
    searched by ``levels`` (``_levels``): each level colors its branch arc
    and runs its steps, a force step writing its output arc and a check
    step comparing it (see the module docstring)."""
    last = len(levels) - 1
    values = [0] * generators

    def extend(depth: int) -> int:
        # Deeper levels only write arcs that this level has not colored,
        # so nothing needs undoing between colors.
        g, steps = levels[depth]
        total = 0
        for x in range(n):
            values[g] = x
            for r, a, o, b, forces in steps:
                v = r[values[a]][values[o]]
                if forces:
                    values[b] = v
                elif values[b] != v:
                    break
            else:
                total += 1 if depth == last else extend(depth + 1)
        return total

    count = extend(0)
    # extend holds itself through its closure.  Dropping that reference
    # frees this search's levels now rather than in a cyclic collection.
    del extend
    return count


def brute_force_colorings(pres: Presentation, fl: FourLegRack) -> int:
    """Independent oracle: scan all |X|^generators assignments.

    Before the scan each relation's rows are composed once per call: row x
    is the rack table's row (the inverse table's for sign -1) at W(x), W
    the relation's cusp word as written, unreduced, applied letter by
    letter by ``apply_word``.  An assignment is a coloring when every
    relation's output arc reads rows[color(in)][color(over)].  The oracle
    shares no code with the generic counter: no cancelled pairs, kink
    powers, composed permutations, schedule or memo.
    """
    rack = fl.rack
    maps = fl.structure._asdict()
    n = rack.n
    if not pres.relations:
        return sum(1 for x in range(n)
                   if apply_word(pres.closure_word, maps, x) == x)
    rels = []
    for rel in pres.relations:
        table = rack.rows if rel.sign == 1 else rack.inv_rows
        rows = [table[apply_word(rel.word, maps, x)] for x in range(n)]
        rels.append((rows, rel.in_arc, rel.over_arc, rel.out_arc))
    count = 0
    for values in itertools.product(range(n), repeat=pres.generators):
        if all(values[b] == rows[values[a]][values[o]]
               for rows, a, o, b in rels):
            count += 1
    return count


# --- permutation racks -----------------------------------------------------------

# The closed form's one word, the up-cusp word whose permutation is
# ul o ur, as index words, and the key under which a structure holds its
# inner dict: a presentation whose cusp words all reduce to it has the
# same ``slice_key``, so the two counters share that inner dict.
_UP_PAIR_WORDS = (word_indices(("ur", "ul")),)
_UP_PAIR_KEY = repr((("ur", "ul"),))


def permutation_fourleg(sigma, ul, ur) -> FourLegRack:
    """4-Legendrian permutation rack of sigma; ``make_fourleg`` checks that
    ul and ur lie in U_X, which here is the centralizer of sigma."""
    return make_fourleg(permutation_rack(sigma), ul, ur)


def perm_fast_count(fl: FourLegRack, inv) -> int:
    """Coloring count of any front with classical invariants ``inv`` by the
    permutation 4-Legendrian rack ``fl``: the number of fixed points of
    g^-rot o sigma^(tb-rot), g = ul o ur.

    The loop map is conjugate to (dr o dl)^rot o sigma^(rot+tb) =
    (ur o ul)^-rot o sigma^(tb-rot) (see the module docstring), and
    conjugating that by ul gives this closed form, since ul commutes with
    sigma.  Conjugate permutations have equally many fixed points, so the
    count depends only on (tb, rot).

    Memoized under ``inv`` itself in the inner dict of the one word
    (ur, ul), whose permutation is g (see the module docstring); a miss is
    counted by ``_fast_miss``, which raises on a rack that is not a
    permutation rack.
    """
    counts = fl.generic_slices.get(_UP_PAIR_KEY)
    if counts is None:
        counts = _slice(fl, _UP_PAIR_KEY, _UP_PAIR_WORDS)
    count = counts.get(inv)
    if count is None:
        count = counts[inv] = _fast_miss(fl.rack, counts.perms[0], inv)
    return count


def _fast_miss(rack: RackTable, g: Perm, inv) -> int:
    """The count ``perm_fast_count`` stores on a miss, read off the rack
    table and g, the permutation that keys the inner dict it goes to.

    g^-rot(sigma^(tb-rot)(x)) = x exactly when g^rot(x) = sigma^(tb-rot)(x),
    and for rot < 0, with y = sigma^(tb-rot)(x), exactly when
    g^-rot(y) = sigma^(rot-tb)(y).  So it compares g^|rot|, g composed
    onto itself |rot| - 1 times, with a power of sigma read off the rack
    table (``RackTable.kink_power``), and g is never inverted.  On at most
    one point every map is the identity, so there g^|rot| is g.
    """
    if not rack.is_permutation_rack:
        raise ValueError("not a permutation rack")
    rot, e = inv.rot, inv.tb - inv.rot
    if rot < 0:
        rot, e = -rot, -e
    w = g if rot else range(rack.n)
    if len(g) > 1:
        for _ in range(rot - 1):
            w = itemgetter(*w)(g)
    return sum(map(eq, w, rack.kink_power(e)))


# --- indistinguishability verification -------------------------------------------

class ColoringRow(NamedTuple):
    code_name: str
    tb: int
    rot: int
    rack_id: str
    ul: str
    ur: str
    count: int


class VerifyReport(NamedTuple):
    """The verdict of ``verify_indistinguishability``.

    ``rows`` is read once: each row is counted as it is read, and
    ``violations`` (the (tb, rot) group key and witness of each, in the
    order they were found) is complete only when ``rows`` is exhausted.
    """

    groups: dict[tuple[int, int], tuple[str, ...]]
    rows: Iterator[ColoringRow]
    violations: list[tuple[tuple[int, int], str]]

    @property
    def passed(self) -> bool:
        return not self.violations

    def group_passed(self, key: tuple[int, int]) -> bool:
        """The verdict on one (tb, rot) group: no violation names it."""
        return all(k != key for k, _ in self.violations)


def permutation_structures(max_order: int, conjugacy_reps_only: bool = True):
    """Yield (rack_id, FourLegRack) over permutation racks of order 1..max_order
    and all 4-Legendrian structures on each, sigma and then (ul, ur) in
    lexicographic order.

    The structures are those ``enumerate_structures`` yields from the
    rack's U_X (here the centralizer of sigma), one per step, never a list
    of them, and the structures of one sigma share a single rack table."""
    for n in range(1, max_order + 1):
        seen_types = set()
        for sigma in itertools.permutations(range(n)):
            if conjugacy_reps_only:
                t = cycle_type(sigma)
                if t in seen_types:
                    continue
                seen_types.add(t)
            rack = permutation_rack(sigma)
            rack_id = f"perm{n}:{cycle_string(sigma)}"
            for s in enumerate_structures(rack):
                yield rack_id, FourLegRack(rack, s)


def verify_indistinguishability(codes, max_order: int) -> VerifyReport:
    """Group fronts by (tb, rot) and check that every 4-Legendrian permutation
    rack of order <= max_order gives equal coloring counts within each group.

    ``codes`` maps names to FrontCode values.  Coloring counts by permutation
    racks depend only on (tb, rot), so any violation indicates an
    implementation bug and is reported with a witness.  The rows are
    counted as the report's ``rows`` is read, one structure at a time, so
    memory does not grow with the number of rows.
    """
    groups: dict[tuple[int, int], list[str]] = {}
    fronts = {}
    for name, code in codes.items():
        inv = classical_invariants(code)
        fronts[name] = inv, fundamental_presentation(code)
        groups.setdefault((inv.tb, inv.rot), []).append(name)
    violations: list[tuple[tuple[int, int], str]] = []

    def rows() -> Iterator[ColoringRow]:
        for rack_id, fl in permutation_structures(max_order):
            ul_str = cycle_string(fl.structure.ul)
            ur_str = cycle_string(fl.structure.ur)
            counts = {}
            for name, (inv, pres) in fronts.items():
                counts[name] = count_colorings(pres, fl)
                yield ColoringRow(name, inv.tb, inv.rot, rack_id,
                                  ul_str, ur_str, counts[name])
            for key, members in groups.items():
                if len({counts[m] for m in members}) > 1:
                    detail = ", ".join(f"{m}={counts[m]}" for m in members)
                    violations.append((key, f"(tb,rot)={key} rack={rack_id} "
                                            f"ul={ul_str} ur={ur_str}: "
                                            f"{detail}"))

    return VerifyReport(
        groups={k: tuple(v) for k, v in groups.items()},
        rows=rows(),
        violations=violations,
    )
