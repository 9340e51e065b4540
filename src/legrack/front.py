"""Combinatorial front-projection codes for oriented Legendrian knots.

A front code is a cyclic sequence of events read along the orientation:
cusps (side L/R, vertical U/D) and crossing passes (id, sign, over/under).
From it we compute the classical invariants and the finitely presented
fundamental 4-Legendrian rack: arcs break at under-passes, cusp operators
accumulate along each arc, and every crossing contributes one relation

    color(out) = W(color(in)) >^sign color(over)

with W the arc's accumulated cusp word (earliest operator applied first).
"""
from __future__ import annotations

import re
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

from .fourleg import FourLegStructure, cancel_cusp_pairs, word_indices
from .perms import FrozenRecord


class FrontError(ValueError):
    """Front-code validation or parse failure."""


class Cusp(NamedTuple):
    side: str       # 'L' or 'R'
    vertical: str   # 'U' or 'D'


class CrossingPass(NamedTuple):
    crossing: int
    sign: int       # +1 or -1
    role: str       # 'O' (over) or 'U' (under)


FrontEvent = Cusp | CrossingPass


class FrontCode(NamedTuple):
    events: tuple[FrontEvent, ...]


class ClassicalInvariants(NamedTuple):
    tb: int
    rot: int
    writhe: int
    up_cusps: int
    down_cusps: int


# Cusp-to-operator convention, isolated so a mirrored convention is a
# one-line change: side and vertical pick the matching structure map.
_CUSP_OPERATOR = {
    ("L", "U"): "ul",
    ("R", "U"): "ur",
    ("L", "D"): "dl",
    ("R", "D"): "dr",
}


def cusp_operator(side: str, vertical: str) -> str:
    return _CUSP_OPERATOR[(side, vertical)]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def validate_front(events) -> FrontCode:
    """Validate the cyclic event sequence; raise FrontError with the reason."""
    events = tuple(events)
    roles: dict[int, set[str]] = {}
    signs: dict[int, int] = {}
    cusp_sides = []
    for i, ev in enumerate(events):
        if isinstance(ev, Cusp):
            if ev.side not in ("L", "R") or ev.vertical not in ("U", "D"):
                raise FrontError(f"event {i}: malformed cusp {ev!r}")
            cusp_sides.append(ev.side)
        elif isinstance(ev, CrossingPass):
            if (not _is_int(ev.crossing) or not _is_int(ev.sign)
                    or ev.sign not in (1, -1) or ev.role not in ("O", "U")):
                raise FrontError(f"event {i}: malformed crossing pass {ev!r}")
            if ev.crossing in signs and signs[ev.crossing] != ev.sign:
                raise FrontError(
                    f"crossing {ev.crossing}: inconsistent sign between passes")
            signs[ev.crossing] = ev.sign
            had = roles.setdefault(ev.crossing, set())
            if ev.role in had:
                raise FrontError(
                    f"crossing {ev.crossing}: repeated {ev.role!r} pass")
            had.add(ev.role)
        else:
            raise FrontError(f"event {i}: unknown event {ev!r}")
    for cid, had in roles.items():
        if had != {"O", "U"}:
            raise FrontError(f"crossing {cid}: needs one over and one under pass")
    inv = classical_invariants(FrontCode(events))
    up, down = inv.up_cusps, inv.down_cusps
    if up == 0 or down == 0:
        raise FrontError("front must have at least one up and one down cusp")
    if (up + down) % 2 != 0:
        raise FrontError("total cusp count must be even")
    for a, b in zip(cusp_sides, cusp_sides[1:] + cusp_sides[:1]):
        if a == b:
            raise FrontError(
                f"adjacent cusps on the same side ({a}) violate alternation")
    # tb + rot = writhe - U, and tb + rot is odd for every Legendrian knot
    tb_plus_rot = inv.tb + inv.rot
    if tb_plus_rot % 2 == 0:
        raise FrontError(
            f"tb + rot = writhe - up cusps = {tb_plus_rot} is even, but it is "
            f"odd for every Legendrian knot: no Legendrian knot realizes "
            f"this front")
    return FrontCode(events)


def classical_invariants(code: FrontCode) -> ClassicalInvariants:
    """tb = w - (D+U)/2 and rot = (D-U)/2, so tb + rot = w - U."""
    signs: dict[int, int] = {}
    up = down = 0
    for ev in code.events:
        if isinstance(ev, Cusp):
            if ev.vertical == "U":
                up += 1
            else:
                down += 1
        else:
            signs[ev.crossing] = ev.sign
    writhe = sum(signs.values())
    return ClassicalInvariants(
        tb=writhe - (down + up) // 2,
        rot=(down - up) // 2,
        writhe=writhe,
        up_cusps=up,
        down_cusps=down,
    )


def rotate_basepoint(code: FrontCode, k: int) -> FrontCode:
    k %= len(code.events)
    return FrontCode(code.events[k:] + code.events[:k])


def stabilize(code: FrontCode, sign: int, position: int | None = None) -> FrontCode:
    """Insert a zig-zag at ``position``, by default the end: two down cusps
    for sign=+1 (tb-1, rot+1), two up cusps for sign=-1 (tb-1, rot-1).
    The pair is (R, L) if the cusp cyclically before ``position`` is an L
    cusp and (L, R) otherwise: on a valid code, the one alternating order."""
    if sign not in (1, -1):
        raise FrontError("stabilization sign must be +1 or -1")
    events = code.events
    if position is None:
        position = len(events)
    if not 0 <= position <= len(events):
        raise FrontError(f"insertion position {position} out of range")
    before = next((ev.side for ev in reversed(events[position:]
                                              + events[:position])
                   if isinstance(ev, Cusp)), None)
    vertical = "D" if sign == 1 else "U"
    sides = ("R", "L") if before == "L" else ("L", "R")
    return validate_front(events[:position]
                          + tuple(Cusp(side, vertical) for side in sides)
                          + events[position:])


# --- fundamental presentation -------------------------------------------------

class Relation(NamedTuple):
    in_arc: int
    out_arc: int
    over_arc: int
    word: tuple[str, ...]   # cusp operators in traversal order
    sign: int
    crossing: int


class ScheduleStep(NamedTuple):
    """One relation of a forcing schedule: once its input and over-arc are
    colored it forces its output arc (``forces``) or checks it.  What
    fixes its relation's rows is ``Presentation.row_specs[rows]``.
    """
    relation: int
    in_arc: int
    over_arc: int
    out_arc: int
    forces: bool
    rows: int


class ScheduleLevel(NamedTuple):
    """The branch arc of one search level and the steps its coloring runs."""
    arc: int
    steps: tuple[ScheduleStep, ...]


def _check_word(field: str, word) -> None:
    if not isinstance(word, tuple):
        raise ValueError(f"{field} must be a tuple of letters, got {word!r}")
    for letter in word:
        if letter not in FourLegStructure._fields:
            raise ValueError(f"{field} has {letter!r}, not one of "
                             f"{', '.join(FourLegStructure._fields)}")


class Presentation(FrozenRecord):
    """A finite presentation of a fundamental 4-Legendrian rack: one
    relation per crossing, or, without crossings, one arc and its closure
    word.  It compares and hashes by value.

    What ``coloring.count_colorings`` reads is computed once, when the
    presentation is made, and stored as plain attributes that stay out of
    its equality, hash and repr:
    - ``key``, the presentation by value as a string, its inner key in
      ``RackTable.generic_counts``: two presentations have equal keys
      exactly when they are equal, and a string caches its hash;
    - ``reduced_words``, the distinct nonempty words its cusp words reduce
      to, sorted: each relation's word, or the closure word when there are
      no crossings, with adjacent cancelling pairs removed
      (``cancel_cusp_pairs``).  On one rack table their permutations fix
      those of all its cusp words, since the kink and each word's number
      of cancelled pairs are fixed, so the counter keys its memo on them;
    - ``slice_key``, ``reduced_words`` as a string (its repr), under which
      a structure holds the inner dict of their permutations: equal
      exactly when the reduced words are, and hashed once;
    - ``index_words``, each reduced word as the positions of its letters
      among the fields of ``FourLegStructure`` (``word_indices``), so its
      permutation is composed from the structure tuple by index alone;
    - ``closure_pairs``, the number c of cancelling pairs removed from the
      closure word, so that it composes to kink^-c o R, R its reduced
      word; a miss without crossings reads it;
    - ``row_specs``, the distinct (reduced_index, pairs, sign) of the
      relations, in relation order: a relation's rows read its sign's
      table at W(a) = kink^-pairs(R(a)), R its reduced word, at
      ``reduced_index`` of ``reduced_words`` or -1 when R is ().
      Relations with equal triples have equal rows on every structure;
    - ``relation_rows``, each relation's index into ``row_specs``.
    The last two come out of the same reduction of each cusp word as the
    memo keys, so every word is reduced once.  Only the search schedule
    (``schedule``) waits: the first miss with crossings, its one reader,
    makes it, and it is cached on the presentation.

    A presentation no front could give raises ValueError naming the field:
    ``relations`` is a tuple of ``Relation``, every word is a tuple of
    structure maps, every arc is an int in range(generators), every sign is
    +1 or -1, a presentation without relations has exactly one generator,
    and only such a presentation has a closure word.
    """

    generators: int
    relations: tuple[Relation, ...]
    # Cusp word of the single closed arc when there are no crossings.
    closure_word: tuple[str, ...]
    key: str
    reduced_words: tuple[tuple[str, ...], ...]
    slice_key: str
    index_words: tuple[tuple[int, ...], ...]
    closure_pairs: int
    row_specs: tuple[tuple[int, int, int], ...]
    relation_rows: tuple[int, ...]
    _fields = ("generators", "relations", "closure_word")

    def __init__(self, generators: int, relations: tuple[Relation, ...],
                 closure_word: tuple[str, ...] = ()):
        m = generators
        if not _is_int(m):
            raise ValueError(f"generators must be an int, got {m!r}")
        if not isinstance(relations, tuple):
            raise ValueError(f"relations must be a tuple of Relation, "
                             f"got {relations!r}")
        if not relations and m != 1:
            raise ValueError(f"generators must be 1 without relations, "
                             f"got {m!r}")
        if relations and closure_word:
            raise ValueError("closure_word must be empty when there are "
                             "relations")
        _check_word("closure_word", closure_word)
        for i, rel in enumerate(relations):
            if not isinstance(rel, Relation):
                raise ValueError(f"relations[{i}] must be a Relation, "
                                 f"got {rel!r}")
            for name in ("in_arc", "out_arc", "over_arc"):
                arc = getattr(rel, name)
                if not _is_int(arc) or not 0 <= arc < m:
                    raise ValueError(f"relations[{i}].{name} must be an int "
                                     f"in range({m}), got {arc!r}")
            if not _is_int(rel.sign) or rel.sign not in (1, -1):
                raise ValueError(f"relations[{i}].sign must be +1 or -1, "
                                 f"got {rel.sign!r}")
            if not _is_int(rel.crossing):
                raise ValueError(f"relations[{i}].crossing must be an int, "
                                 f"got {rel.crossing!r}")
            _check_word(f"relations[{i}].word", rel.word)
        words = [rel.word for rel in relations] or [closure_word]
        cancelled = list(map(cancel_cusp_pairs, words))
        reduced = tuple(sorted({r for r, _ in cancelled if r}))
        position = {r: j for j, r in enumerate(reduced)}
        rows: dict[tuple[int, int, int], int] = {}
        relation_rows = tuple(
            rows.setdefault((position.get(r, -1), c, rel.sign), len(rows))
            for rel, (r, c) in zip(relations, cancelled))
        self.__dict__.update(generators=m, relations=relations,
                             closure_word=closure_word,
                             key=repr((m, relations, closure_word)),
                             reduced_words=reduced,
                             slice_key=repr(reduced),
                             index_words=tuple(map(word_indices, reduced)),
                             closure_pairs=0 if relations
                             else cancelled[0][1],
                             row_specs=tuple(rows),
                             relation_rows=relation_rows)

    @cached_property
    def schedule(self) -> tuple[ScheduleLevel, ...]:
        """The forcing a coloring search runs, one level per branch arc.

        A relation whose input and over-arc are colored forces its output
        arc, whatever the rack and the colors.  So which arcs are colored
        after each branch step, and which relations become complete there,
        follow from the presentation alone.  Each level takes, among the
        over-arcs not yet colored (or, once none is left, among all arcs
        not yet colored), the arc that forces the most arcs, lower index
        first on a tie.  Its steps are the relations that become complete
        once that arc is colored, in the order forcing reaches them: a step
        forces its output arc if that arc is not yet colored and otherwise
        checks it.  Every relation is one step of one level, and after the
        last level every arc is colored.
        """
        m = self.generators
        watch: list[list[int]] = [[] for _ in range(m)]
        for i, rel in enumerate(self.relations):
            for arc in dict.fromkeys((rel.in_arc, rel.over_arc)):
                watch[arc].append(i)
        over = {rel.over_arc for rel in self.relations}
        known = [False] * m
        done = [False] * len(self.relations)

        def color(g: int, known: list[bool], done: list[bool]):
            """Color ``g`` and every arc it forces, marking them in ``known``
            and the relations that become complete in ``done``; return the
            arcs colored and the steps, in order."""
            known[g] = True
            trail = [g]
            steps = []
            for arc in trail:   # the trail grows as arcs are forced
                for i in watch[arc]:
                    rel = self.relations[i]
                    if done[i] or not (known[rel.in_arc]
                                       and known[rel.over_arc]):
                        continue
                    done[i] = True
                    b = rel.out_arc
                    steps.append(ScheduleStep(i, rel.in_arc, rel.over_arc, b,
                                              not known[b],
                                              self.relation_rows[i]))
                    if not known[b]:
                        known[b] = True
                        trail.append(b)
            return trail, tuple(steps)

        levels = []
        while not all(known):
            unknown = [g for g in range(m) if not known[g]]
            g = max([g for g in unknown if g in over] or unknown,
                    key=lambda g: (len(color(g, known[:], done[:])[0]), -g))
            levels.append(ScheduleLevel(g, color(g, known, done)[1]))
        return tuple(levels)


def fundamental_presentation(code: FrontCode) -> Presentation:
    """Validate ``code`` and present its fundamental 4-Legendrian rack.

    One walk from just after the first under-pass: a cusp extends the
    current arc's word, an over-pass records the current arc as its
    crossing's over-arc, and the i-th under-pass ends arc i, relation i.
    With no under-pass the code is one closed arc, walked from its first
    event, and its cusp word is the closure word."""
    events = validate_front(code.events).events
    start = next((i + 1 for i, ev in enumerate(events)
                  if isinstance(ev, CrossingPass) and ev.role == "U"), 0)
    unders: list[tuple[CrossingPass, tuple[str, ...]]] = []
    over_arc: dict[int, int] = {}
    word: list[str] = []
    for ev in events[start:] + events[:start]:
        if isinstance(ev, Cusp):
            word.append(cusp_operator(ev.side, ev.vertical))
        elif ev.role == "O":
            over_arc[ev.crossing] = len(unders)
        else:
            unders.append((ev, tuple(word)))
            word = []
    if not unders:
        return Presentation(generators=1, relations=(), closure_word=tuple(word))
    m = len(unders)
    return Presentation(generators=m, relations=tuple(
        Relation(in_arc=i, out_arc=(i + 1) % m, over_arc=over_arc[ev.crossing],
                 word=w, sign=ev.sign, crossing=ev.crossing)
        for i, (ev, w) in enumerate(unders)))


# --- fixtures ----------------------------------------------------------------

def standard_unknot() -> FrontCode:
    return validate_front((Cusp("R", "U"), Cusp("L", "D")))


def left_trefoil() -> FrontCode:
    """The left-handed trefoil front with (tb, rot) = (-6, -1): three negative
    crossings, U=4, D=2, arc cusp words (ur dl), (ur ul), (dr ul)."""
    return validate_front((
        Cusp("R", "U"), Cusp("L", "D"),
        CrossingPass(3, -1, "O"), CrossingPass(1, -1, "U"),
        Cusp("R", "U"), Cusp("L", "U"),
        CrossingPass(2, -1, "O"), CrossingPass(3, -1, "U"),
        Cusp("R", "D"), Cusp("L", "U"),
        CrossingPass(1, -1, "O"), CrossingPass(2, -1, "U"),
    ))


def stabilized_unknot(positive: int, negative: int,
                      alternate: bool = False) -> FrontCode:
    """S+^a S-^b of the standard unknot, each stabilization at the end;
    ``alternate`` interleaves the signs, negative first, and puts every
    second one at the start: a different event sequence with the same
    classical invariants.  Raises FrontError on a negative count."""
    if positive < 0 or negative < 0:
        raise FrontError(f"stabilization counts must be nonnegative, got "
                         f"{positive} positive and {negative} negative")
    signs = [1] * positive + [-1] * negative
    if alternate:
        signs = [sign for pair in zip_longest([-1] * negative, [1] * positive)
                 for sign in pair if sign]
    code = standard_unknot()
    for i, sign in enumerate(signs):
        code = stabilize(code, sign, position=0 if alternate and i % 2 else None)
    return code


def kinked_unknot(signs) -> FrontCode:
    """Unknot with one Reidemeister-1 style kink per sign; an odd number of
    kinks makes tb + rot even, which ``validate_front`` rejects.

    A combinatorial code, not a front: a kink's O and U passes are adjacent,
    and a cusp-free stretch of a front is x-monotone, so it cannot close."""
    events: list[FrontEvent] = [Cusp("R", "U"), Cusp("L", "D")]
    for i, sign in enumerate(signs, start=1):
        events.extend((CrossingPass(i, sign, "O"), CrossingPass(i, sign, "U")))
    return validate_front(events)


def trefoil_with_kinks() -> FrontCode:
    """Left trefoil plus one positive and one negative kink: same (tb, rot).

    A combinatorial code, not a front: a kink's O and U passes are adjacent,
    and a cusp-free stretch of a front is x-monotone, so it cannot close."""
    base = left_trefoil()
    extra = (CrossingPass(4, 1, "O"), CrossingPass(4, 1, "U"),
             CrossingPass(5, -1, "O"), CrossingPass(5, -1, "U"))
    return validate_front(base.events + extra)


def builtin_fixtures() -> dict[str, FrontCode]:
    """Named front codes used throughout the test and verification suites."""
    return {
        "unknot": standard_unknot(),
        "trefoil": left_trefoil(),
        "unknot_s1p": stabilized_unknot(1, 0),
        "unknot_s1m": stabilized_unknot(0, 1),
        "unknot_s1p1m": stabilized_unknot(1, 1),
        "unknot_s1m1p": stabilized_unknot(1, 1, alternate=True),
        "unknot_kinks_mm": kinked_unknot((-1, -1)),
        "unknot_kinks_pm": kinked_unknot((1, -1)),
        "unknot_s2p3m": stabilized_unknot(2, 3),
        "unknot_s2p3m_alt": stabilized_unknot(2, 3, alternate=True),
        "unknot_s3p2m": stabilized_unknot(3, 2),
        "trefoil_kinks_pm": trefoil_with_kinks(),
    }


# --- text format ---------------------------------------------------------------

# A crossing id as ``front_to_text`` writes it: an optional minus and
# ASCII digits, so ``int`` never sees "+1", "1_0" or non-ASCII digits.
_CROSSING_ID = re.compile(r"-?[0-9]+")


def front_to_text(code: FrontCode) -> str:
    lines = []
    for ev in code.events:
        if isinstance(ev, Cusp):
            lines.append(f"CUSP {ev.side} {ev.vertical}")
        else:
            sign = "+" if ev.sign == 1 else "-"
            lines.append(f"X {ev.crossing} {sign} {ev.role}")
    return "\n".join(lines) + "\n"


def front_from_text(text: str) -> FrontCode:
    events: list[FrontEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "CUSP" and len(parts) == 3:
            events.append(Cusp(parts[1], parts[2]))
        elif parts[0] == "X" and len(parts) == 4 and parts[2] in ("+", "-"):
            if not _CROSSING_ID.fullmatch(parts[1]):
                raise FrontError(f"line {lineno}: bad crossing id {parts[1]!r}")
            events.append(CrossingPass(int(parts[1]),
                                       1 if parts[2] == "+" else -1, parts[3]))
        else:
            raise FrontError(f"line {lineno}: unrecognized event {raw!r}")
    return validate_front(events)


def load_front(path) -> FrontCode:
    with open(path, encoding="utf-8") as fh:
        return front_from_text(fh.read())


def save_front(code: FrontCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(front_to_text(code))
