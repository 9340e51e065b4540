import gc
import hashlib
import itertools
import sys
import tracemalloc
from operator import eq

import pytest

import legrack.coloring
import legrack.fourleg
import legrack.front
from legrack.census import enumerate_racks
from legrack.coloring import (
    VerifyReport,
    _levels,
    _relation_output,
    _slice,
    apply_word,
    brute_force_colorings,
    count_colorings,
    perm_fast_count,
    permutation_fourleg,
    permutation_structures,
    verify_indistinguishability,
)
from legrack.fourleg import (
    FourLegRack,
    cancel_cusp_pairs,
    classify_structures,
    enumerate_structures,
    make_fourleg,
    word_indices,
)
from legrack.front import (
    CrossingPass,
    Cusp,
    Presentation,
    Relation,
    ClassicalInvariants,
    builtin_fixtures,
    classical_invariants,
    fundamental_presentation,
    left_trefoil,
    rotate_basepoint,
    stabilize,
    stabilized_unknot,
    standard_unknot,
    validate_front,
)
from legrack.perms import compose, identity, inverse, power
from legrack.racks import (
    RackTable,
    alexander_quandle,
    dihedral_quandle,
    permutation_rack,
    trivial_quandle,
)


def fixed_points(p):
    return sum(map(eq, p, range(len(p))))


def memo_size(memo):
    """Counts stored in a two-level memo of ``RackTable``."""
    return sum(map(len, memo.values()))


def word_perms(fl, words):
    """The permutation of each nonempty cusp word of ``words`` on ``fl``,
    composed as a structure's first touch composes reduced words
    (``_slice``), on a fresh copy of its table."""
    fresh = FourLegRack(RackTable(fl.rack.n, fl.rack.rows), fl.structure)
    return _slice(fresh, "", tuple(map(word_indices, words))).perms


def word_perm(fl, word):
    """The permutation of the cusp word ``word`` on ``fl`` (``word_perms``);
    the identity for ()."""
    return word_perms(fl, [word])[0] if word else identity(fl.rack.n)


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


def test_generic_miss_leaves_no_cyclic_garbage():
    # a search's levels are freed when it returns, not by the collector
    pres = fundamental_presentation(left_trefoil())
    structures = [trivial_fourleg(3), three_cycle_fourleg()]
    gc.collect()
    gc.disable()
    try:
        counts = [count_colorings(pres, fl) for fl in structures]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert counts == [3, 0]


def scan_colorings(pres, fl):
    """Reference counter: backtracking over arcs in index order; after each
    assignment it rescans every relation until nothing changes, applying
    cusp words letter by letter."""
    rack = fl.rack
    maps = fl.structure._asdict()
    n = rack.n
    m = pres.generators
    if not pres.relations:
        return sum(1 for x in range(n)
                   if apply_word(pres.closure_word, maps, x) == x)
    values = [-1] * m

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for rel in pres.relations:
                a, o, b = values[rel.in_arc], values[rel.over_arc], values[rel.out_arc]
                if a == -1 or o == -1:
                    continue
                out = _relation_output(rel, maps, rack, a, o)
                if b == -1:
                    values[rel.out_arc] = out
                    trail.append(rel.out_arc)
                    changed = True
                elif b != out:
                    return False
        return True

    def extend():
        for g in range(m):
            if values[g] == -1:
                break
        else:
            return 1
        total = 0
        for x in range(n):
            trail = [g]
            values[g] = x
            if propagate(trail):
                total += extend()
            for i in trail:
                values[i] = -1
        return total

    return extend()


def two_trefoil_sum():
    """Connected sum of two left trefoils: the first one's ``R D`` cusp and
    the second one's ``L U`` cusp are removed and the event sequences are
    spliced there; the second trefoil's crossings become 4, 5, 6."""
    a = left_trefoil().events
    b = tuple(CrossingPass(ev.crossing + 3, ev.sign, ev.role)
              if isinstance(ev, CrossingPass) else ev
              for ev in left_trefoil().events)
    p = a.index(Cusp("R", "D"))
    q = b.index(Cusp("L", "U"))
    return validate_front(a[p + 1:] + a[:p] + b[q + 1:] + b[:q])


def structure_classes(n):
    """One 4-Legendrian structure per class, on every rack of order n."""
    return [make_fourleg(rack, cls.ul, cls.ur)
            for rack in enumerate_racks(n)
            for cls in classify_structures(rack)]


def test_two_trefoil_sum():
    code = two_trefoil_sum()
    inv = classical_invariants(code)
    # tb(K # K') = tb(K) + tb(K') + 1, rot(K # K') = rot(K) + rot(K')
    assert (inv.tb, inv.rot) == (-11, -2)
    assert fundamental_presentation(code).generators == 6


def oracle_fronts():
    return dict(builtin_fixtures(), trefoil_sum=two_trefoil_sum(),
                trefoil_s1p1m=stabilize(stabilize(left_trefoil(), 1), -1,
                                        position=4))


def assert_rows_match_relation_output(fl, fronts):
    maps = fl.structure._asdict()
    for pres in fronts:
        levels = _levels(pres, fl.rack,
                         word_perms(fl, pres.reduced_words))
        assert [arc for arc, _ in levels] == [lv.arc for lv in pres.schedule]
        for level, (_, steps) in zip(pres.schedule, levels):
            assert len(steps) == len(level.steps)
            for step, (rows, *arcs) in zip(level.steps, steps):
                assert tuple(arcs) == step[1:5]
                rel = pres.relations[step.relation]
                assert list(rows) == [
                    tuple(_relation_output(rel, maps, fl.rack, a, o)
                          for o in range(fl.rack.n))
                    for a in range(fl.rack.n)]


def test_compiled_rows_match_relation_output():
    """The row-level tests (this one and its warm-cache twin) are the guard
    on cusp-word letter order: they check the rows the counter builds
    (``_levels``, from the reduced words' permutations and the kink)
    against the relation read letter by letter.

    The stabilized trefoil has four-letter cusp words on crossing arcs, and
    composing a word in the wrong order changes these rows.  Count-level
    tests are a weaker guard: with the composition in ``_slice`` reversed,
    the only count tests that fail are ``test_closure_word_letter_order``
    and the fast path's first touch.
    """
    fronts = [fundamental_presentation(c) for c in oracle_fronts().values()]
    for fl in structure_classes(3) + structure_classes(4):
        assert_rows_match_relation_output(fl, fronts)


def reversed_words(pres):
    return Presentation(pres.generators, tuple(
        rel._replace(word=rel.word[::-1]) for rel in pres.relations))


def test_compiled_rows_match_relation_output_with_warm_cache():
    # a structure and its table warmed by presentations whose words are
    # the reverses of these, their slices and kink powers filled, must
    # still give these presentations' rows
    fronts = [fundamental_presentation(c) for c in oracle_fronts().values()]
    for fl in structure_classes(3) + structure_classes(4):
        for pres in fronts:
            count_colorings(reversed_words(pres), fl)
        assert_rows_match_relation_output(fl, fronts)


def test_row_cache_keeps_the_signs_of_one_word_apart():
    # two one-arc presentations with the same cusp word and opposite signs,
    # colored one after the other on a rack table whose memo starts empty:
    # they share W, so only the presentation in the key keeps them apart
    word = ("ur", "dl", "ul")
    plus, minus = (Presentation(1, (Relation(0, 0, 0, word, sign, 1),))
                   for sign in (1, -1))
    signs_differ = False
    for n in range(1, 5):
        for fl in structure_classes(n):
            want = {p: brute_force_colorings(p, fl) for p in (plus, minus)}
            signs_differ |= want[plus] != want[minus]
            for order in ((plus, minus), (minus, plus)):
                cold = FourLegRack(RackTable(fl.rack.n, fl.rack.rows),
                                   fl.structure)
                for pres in order:
                    assert count_colorings(pres, cold) == want[pres]
    assert signs_differ


def test_schedule_colors_every_arc_and_runs_every_relation_once():
    presentations = [fundamental_presentation(c)
                     for c in oracle_fronts().values()]
    for pres in presentations + [two_cycle_presentation()]:
        colored: set[int] = set()
        forced = []
        steps = []
        for level in pres.schedule:
            assert level.arc not in colored
            colored.add(level.arc)
            for i, a, o, b, forces, k in level.steps:
                rel = pres.relations[i]
                assert (a, o, b) == (rel.in_arc, rel.over_arc, rel.out_arc)
                # what fixes the relation's rows: its reduced word's
                # position (-1 for ()), its cancelled pairs and its sign
                j, c, sign = pres.row_specs[k]
                reduced = pres.reduced_words[j] if j >= 0 else ()
                assert cancel_cusp_pairs(rel.word) == (reduced, c)
                assert sign == rel.sign
                assert a in colored and o in colored
                assert forces == (b not in colored)
                if forces:
                    colored.add(b)
                    forced.append(b)
                steps.append(i)
        assert sorted(steps) == list(range(len(pres.relations)))
        assert len(set(pres.row_specs)) == len(pres.row_specs)
        assert {st.rows for lv in pres.schedule for st in lv.steps} == \
            set(range(len(pres.row_specs)))
        assert sorted(forced) == sorted(
            set(range(pres.generators)) - {lv.arc for lv in pres.schedule})
        assert colored == set(range(pres.generators))


def test_a_presentation_reduces_each_cusp_word_once(monkeypatch):
    """Making a presentation and running its first miss with crossings
    reduce each relation's cusp word once: the memo keys, ``row_specs``,
    ``relation_rows`` and the schedule all come from that one reduction."""
    calls = []

    def recording(word):
        calls.append(word)
        return cancel_cusp_pairs(word)

    monkeypatch.setattr(legrack.front, "cancel_cusp_pairs", recording)
    pres = fundamental_presentation(two_trefoil_sum())
    words = [rel.word for rel in pres.relations]
    assert len(words) == 6 and calls == words
    fl = structure_classes(3)[-1]
    cold = FourLegRack(RackTable(fl.rack.n, fl.rack.rows), fl.structure)
    assert count_colorings(pres, cold) == brute_force_colorings(pres, fl)
    assert "schedule" in vars(pres)
    assert calls == words


@pytest.mark.parametrize("n", range(5))
def test_count_matches_oracles_on_every_structure_class(n):
    codes = oracle_fronts()
    fronts = {name: fundamental_presentation(c) for name, c in codes.items()}
    for pres in fronts.values():
        # one cycle: the over-arcs and at most one more arc force the rest
        over = {rel.over_arc for rel in pres.relations}
        assert len(pres.schedule) <= len(over) + 1
    for fl in structure_classes(n):
        for name, pres in fronts.items():
            count = count_colorings(pres, fl)
            assert count == scan_colorings(pres, fl), (name, fl.structure)
            if n ** pres.generators <= 10 ** 4:
                assert count == brute_force_colorings(pres, fl), \
                    (name, fl.structure)


def two_cycle_presentation():
    return Presentation(generators=4, relations=(
        Relation(0, 1, 0, ("ur", "dl"), -1, 1),
        Relation(1, 0, 0, (), 1, 2),
        Relation(2, 3, 0, ("ul",), 1, 3),
        Relation(3, 2, 0, ("dr", "ur"), -1, 4),
    ))


def test_two_cycle_presentation_branches_on_each_cycle():
    # arcs 0 -> 1 -> 0 and 2 -> 3 -> 2, every over-arc is arc 0: coloring
    # the over-arcs forces arc 1 only, so the search must also branch on
    # an arc of the second cycle
    pres = two_cycle_presentation()
    assert tuple(lv.arc for lv in pres.schedule) == (0, 2)
    for n in range(5):
        for fl in structure_classes(n):
            count = count_colorings(pres, fl)
            assert count == brute_force_colorings(pres, fl)
            assert count == scan_colorings(pres, fl)


def test_apply_word_order():
    fl = three_cycle_fourleg()
    maps = {"ul": fl.structure.ul, "ur": fl.structure.ur,
            "dl": fl.structure.dl, "dr": fl.structure.dr}
    # earliest letter applies first: dl(ur(x))
    for x in range(3):
        assert apply_word(("ur", "dl"), maps, x) == \
            maps["dl"][maps["ur"][x]]


def test_word_perm_matches_apply_word():
    """A structure's first touch (``_slice``) composes each nonempty cusp
    word of length <= 4, as index words (``word_indices``), the one-letter
    words included, as ``apply_word`` applies it letter by letter, on every
    structure class of order <= 3, all the words in one call, and keeps
    their permutations as the inner dict's ``perms``."""
    words = [w for k in range(1, 5)
             for w in itertools.product(("ul", "ur", "dl", "dr"), repeat=k)]
    assert len(words) == 340
    assert word_indices(("ul", "ur", "dl", "dr")) == (0, 1, 2, 3)
    structures = [fl for n in range(4) for fl in structure_classes(n)]
    assert len(structures) == 43
    for fl in structures:
        maps = fl.structure._asdict()
        perms = word_perms(fl, words)
        assert len(perms) == len(words)
        for w, perm in zip(words, perms):
            assert perm == tuple(apply_word(w, maps, x)
                                 for x in range(fl.rack.n)), \
                (fl.rack.rows, fl.structure, w)


def test_structure_caches_stay_out_of_equality_hash_and_repr():
    """A ``FourLegRack`` whose cache the counters have filled equals a cold
    one and hashes like it, its repr shows only the rack and the structure,
    and every instance gets a cache of its own."""
    codes = builtin_fixtures().values()
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in codes]
    warm = permutation_fourleg((1, 2, 0), (1, 2, 0), (2, 0, 1))
    for inv, pres in fronts:
        assert count_colorings(pres, warm) == perm_fast_count(warm, inv)
    # one inner dict per distinct slice key of the fixtures: the closed
    # form's is held among the generic counter's, under the key of the
    # fronts whose words all reduce to (ur, ul)
    keys = {pres.slice_key for _, pres in fronts}
    assert keys == {"()", "(('ur', 'ul'),)", "(('dr', 'dl'),)"}
    assert warm.generic_slices.keys() == keys
    cold = FourLegRack(warm.rack, warm.structure)
    assert not cold.generic_slices
    assert cold == warm and hash(cold) == hash(warm)
    assert len({cold, warm}) == 1
    assert repr(warm) == repr(cold) == \
        f"FourLegRack(rack={warm.rack!r}, structure={warm.structure!r})"
    assert cold.generic_slices is not warm.generic_slices


def test_memo_hits_run_in_one_frame_and_first_touch_composes_once():
    """On a warm structure a hit of either counter starts no Python frame
    besides its own: no helper, no property, no key built by Python code.
    A fresh structure on a table whose memos hold its counts composes each
    distinct word it reads once: on the trivial rack of order 5 the
    fixtures reduce to (ur, ul) and (dr, dl), and the fast path reuses the
    first."""
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in builtin_fixtures().values()]
    rack = permutation_rack(identity(5))
    s = next(itertools.islice(enumerate_structures(rack), 7, None))
    assert s.ul != s.ur
    warm = FourLegRack(rack, s)
    counts = [(count_colorings(pres, warm), perm_fast_count(warm, inv))
              for inv, pres in fronts]
    fresh = FourLegRack(rack, s)
    composed = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is _slice.__code__:
            composed.extend(frame.f_locals["words"])

    sys.setprofile(record)
    try:
        again = [(count_colorings(pres, fresh), perm_fast_count(fresh, inv))
                 for inv, pres in fronts]
    finally:
        sys.setprofile(None)
    assert again == counts
    assert sorted(composed) == sorted(map(word_indices,
                                          [("dr", "dl"), ("ur", "ul")]))
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for inv, pres in fronts:
            count_colorings(pres, warm)
            perm_fast_count(warm, inv)
    finally:
        sys.setprofile(None)
    assert frames == ["count_colorings", "perm_fast_count"] * len(fronts)


def test_words_shared_by_slices_are_composed_once():
    """A word that two slices of one structure share, each of two or more
    words, is composed once: the second slice reads the permutation the
    first kept under the index word.  A one-word slice keeps nothing, so a
    structure whose slices all have at most one word, as on the fixtures,
    holds nothing but its inner dicts."""
    def two_arcs(w0, w1):
        return Presentation(2, (Relation(0, 1, 0, w0, -1, 1),
                                Relation(1, 0, 0, w1, 1, 2)))

    up = ("ur", "ul")
    one = Presentation(1, (), up)
    a = two_arcs(("dr", "dl"), up)
    b = two_arcs(up, up + up)
    assert (len(one.index_words), len(a.index_words), len(b.index_words)) \
        == (1, 2, 2)
    fl = make_fourleg(trivial_quandle(3), (0, 2, 1), (1, 0, 2))
    assert count_colorings(one, fl) == brute_force_colorings(one, fl)
    assert fl.generic_slices.keys() == {one.slice_key}
    for pres in (a, b):
        assert count_colorings(pres, fl) == brute_force_colorings(pres, fl)
    held = fl.generic_slices
    assert held.keys() == {one.slice_key, a.slice_key, b.slice_key,
                           (3, 2), (1, 0), (1, 0, 1, 0)}
    assert held[b.slice_key].perms[0] is held[a.slice_key].perms[1] \
        is held[(1, 0)]
    assert held[one.slice_key].perms == (held[(1, 0)],)
    assert held[(1, 0, 1, 0)] == word_perm(fl, up + up)


LETTER_ORDER_WORD = ("ul", "ur", "ur", "dr", "dl")


def test_closure_word_letter_order():
    # on T_5 with these maps, reversing this closure word changes its count
    # from 5 to 0, so applying a closure word's maps in the wrong order
    # fails here (the fixtures' closure words do not show it)
    word = LETTER_ORDER_WORD
    fl = make_fourleg(trivial_quandle(5), (0, 2, 3, 4, 1), (1, 2, 4, 0, 3))
    forward, backward = (Presentation(1, (), w) for w in (word, word[::-1]))
    assert count_colorings(forward, fl) == \
        brute_force_colorings(forward, fl) == 5
    assert count_colorings(backward, fl) == \
        brute_force_colorings(backward, fl) == 0


# The adjacent letter pairs that compose to kink^-1, by Kimura's axioms 1-2:
# dl o ur = ur o dl = dr o ul = ul o dr = kink^-1.
CANCELLING = {("ur", "dl"), ("dl", "ur"), ("ul", "dr"), ("dr", "ul")}


def test_cancelled_pairs_compose_to_kink_inverse():
    """Every cusp word W of length <= 5 composes, on every structure class
    of order <= 4, to kink^-c o R, (R, c) = cancel_cusp_pairs(W), and R has
    no adjacent cancelling pair left: the identity that makes the reduced
    words an exact key of the generic memo."""
    words = [w for k in range(6)
             for w in itertools.product(("ul", "ur", "dl", "dr"), repeat=k)]
    assert len(words) == 1365
    reductions = {w: cancel_cusp_pairs(w) for w in words}
    for w, (r, c) in reductions.items():
        assert len(w) == len(r) + 2 * c
        assert not CANCELLING & set(zip(r, r[1:])), (w, r)
    assert cancel_cusp_pairs(("ur", "dl", "dr", "dl", "ur", "ul")) == ((), 3)
    structures = [fl for n in range(5) for fl in structure_classes(n)]
    assert len(structures) == 292
    reduced = {r for r, _ in reductions.values()}
    for fl in structures:
        kink_inv = [power(inverse(fl.rack.flags.kink), c) for c in range(3)]
        maps = fl.structure._asdict()
        perms = {r: word_perm(fl, r) for r in reduced}
        for w, (r, c) in reductions.items():
            assert compose(kink_inv[c], perms[r]) == tuple(
                apply_word(w, maps, x) for x in range(fl.rack.n)), \
                (fl.rack.rows, fl.structure, w)


def test_crossingless_memo_matches_brute_force():
    """Fronts without crossings share the generic memo: on warm tables (one
    per rack, colored by all its structures in either order) and on fresh
    ones, every count of every structure of order <= 4 equals the
    brute-force count, and the warm memo holds one count per distinct
    (presentation, closure-word permutation).  The stabilized unknots give
    long closure words with up to seven cancelled pairs, so a miss that
    reads kink^-c for kink^c fails here."""
    fronts = [p for p in map(fundamental_presentation,
                             builtin_fixtures().values())
              if not p.relations]
    assert len(fronts) == 8
    fronts += [Presentation(1, (), w)
               for w in (LETTER_ORDER_WORD, LETTER_ORDER_WORD[::-1])]
    fronts += [fundamental_presentation(stabilized_unknot(a, b, alternate))
               for a in range(7) for b in range(7 - a)
               for alternate in (False, True)]
    fronts = list(dict.fromkeys(fronts))
    assert max(p.closure_pairs for p in fronts) == 7
    shared = False
    for n in range(5):
        for rack in enumerate_racks(n):
            structures = list(enumerate_structures(rack))
            brute = {(pres, s): brute_force_colorings(pres, fl)
                     for s in structures for fl in [FourLegRack(rack, s)]
                     for pres in fronts}
            for order in (structures, structures[::-1]):
                warm = RackTable(rack.n, rack.rows)
                keys = set()
                for s in order:
                    fl = FourLegRack(warm, s)
                    # the fronts are distinct, so every count of one
                    # structure on its own table is a miss
                    fresh = FourLegRack(RackTable(rack.n, rack.rows), s)
                    for pres in fronts:
                        assert count_colorings(pres, fl) == \
                            count_colorings(pres, fresh) == \
                            brute[pres, s], (rack.rows, s, pres)
                        keys.add((pres, word_perm(fl, pres.closure_word)))
                assert memo_size(warm.generic_counts) == len(keys)
                shared |= len(keys) < len(structures) * len(fronts)
    assert shared


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


def test_brute_force_applies_each_relation_word_once_per_color(monkeypatch):
    """The oracle composes each relation's rows before the scan, so it
    applies each cusp word once per color, not once per assignment."""
    calls = []
    real = legrack.coloring.apply_word

    def counting(word, maps, x):
        calls.append(word)
        return real(word, maps, x)

    monkeypatch.setattr(legrack.coloring, "apply_word", counting)
    pres = fundamental_presentation(left_trefoil())
    fl = make_fourleg(dihedral_quandle(3), identity(3), identity(3))
    assert brute_force_colorings(pres, fl) == 9
    assert len(calls) == len(pres.relations) * 3


def test_brute_force_shares_no_code_with_the_generic_counter(monkeypatch):
    """With the generic counter's search, its first touch and the Kimura
    reduction made to raise, the oracle still gives the generic counts of
    every fixture on every structure class of R3, R5 and the Alexander
    quandle Z5 with t = 2."""
    fronts = [fundamental_presentation(c) for c in builtin_fixtures().values()]
    structures = [make_fourleg(rack, cls.ul, cls.ur)
                  for rack in (dihedral_quandle(3), dihedral_quandle(5),
                               alexander_quandle(5, 2))
                  for cls in classify_structures(rack)]
    expected = [count_colorings(pres, fl)
                for fl in structures for pres in fronts]
    assert sum(expected) == 168

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the generic counter's code")

    for module, name in ((legrack.coloring, "_levels"),
                         (legrack.coloring, "_search"),
                         (legrack.coloring, "_slice"),
                         (legrack.fourleg, "cancel_cusp_pairs"),
                         (RackTable, "kink_power")):
        monkeypatch.setattr(module, name, forbidden)
    # fresh structures on fresh tables, so no memo the counts filled can
    # answer for the oracle
    fresh = [FourLegRack(RackTable(fl.rack.n, fl.rack.rows), fl.structure)
             for fl in structures]
    assert [brute_force_colorings(pres, fl)
            for fl in fresh for pres in fronts] == expected


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


def unreduced_loop_permutation(pres, fl):
    """Loop map of the permutation 4-Legendrian rack ``fl`` assembled letter
    by letter in traversal order: cusp maps and one sigma^sign per crossing
    relation, sigma read off the rack's first column."""
    sigma = fl.rack.columns[0]
    maps = fl.structure._asdict()
    loop = identity(len(sigma))
    for letter in pres.closure_word:
        loop = compose(maps[letter], loop)
    for rel in pres.relations:
        for letter in rel.word:
            loop = compose(maps[letter], loop)
        loop = compose(power(sigma, rel.sign), loop)
    return loop


def test_reduced_loop_matches_unreduced_loop():
    # the closed form against the loop map built letter by letter; the two
    # maps are only conjugate, so their fixed points are compared
    for fl, inv, pres in _fast_path_cases():
        loop = unreduced_loop_permutation(pres, fl)
        assert perm_fast_count(fl, inv) == fixed_points(loop)


def test_fast_path_memo_is_shared_by_the_structures_of_a_rack():
    """A rack table's memo, warmed by every structure on it in either
    order, hands each structure the count of its own loop map, and holds
    one closed-form count per (ul o ur, invariants record), in the inner
    dicts of the outer keys (ul o ur,).  The counts are keyed by the whole
    record, which fixes (tb, rot), so fronts whose records differ only in
    writhe or cusp numbers store a count each."""
    codes = [*builtin_fixtures().values(), stabilized_unknot(3, 0),
             stabilized_unknot(0, 2)]
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in codes]
    keys = {inv for inv, _ in fronts}
    assert len(keys) > len({(inv.tb, inv.rot) for inv in keys})
    for sigma in ((0, 1, 2), (1, 2, 0), (1, 0, 2, 3), (1, 2, 0, 3),
                  (0, 1, 2, 3)):
        rack = permutation_rack(sigma)
        center = rack.gl_center.sorted_elements()
        pairs = [(ul, ur) for ul in center for ur in center]
        products = {word_perm(make_fourleg(rack, ul, ur), ("ur", "ul"))
                    for ul, ur in pairs}
        assert products == {compose(ul, ur) for ul, ur in pairs}
        assert len(products) == len(center) < len(pairs)
        for order in (pairs, pairs[::-1]):
            warm = RackTable(rack.n, rack.rows)
            for ul, ur in order:
                fl = make_fourleg(warm, ul, ur)
                for inv, pres in fronts:
                    loop = unreduced_loop_permutation(pres, fl)
                    assert perm_fast_count(fl, inv) == fixed_points(loop), \
                        (sigma, ul, ur, inv)
            assert set(warm.generic_counts) == {(g,) for g in products}
            assert memo_size(warm.generic_counts) == \
                len(products) * len(keys)


def test_fast_path_first_on_a_fresh_structure():
    """``perm_fast_count`` as a fresh structure's first call composes
    ul o ur itself and keys the rack's memo on it alone; its counts match
    the loop map and the generic counter, which runs after it on the same
    structure and table."""
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in builtin_fixtures().values()]
    records = {inv for inv, _ in fronts}
    for _, fl in permutation_structures(4, conjugacy_reps_only=False):
        s = fl.structure
        fresh = FourLegRack(RackTable(fl.rack.n, fl.rack.rows), s)
        perm_fast_count(fresh, fronts[0][0])
        assert fresh.rack.generic_counts == {
            (compose(s.ul, s.ur),): fresh.generic_slices["(('ur', 'ul'),)"]}
        for inv, pres in fronts:
            count = perm_fast_count(fresh, inv)
            assert count == fixed_points(
                unreduced_loop_permutation(pres, fresh)), (s, inv)
            assert count_colorings(pres, fresh) == count, (s, inv)
        fast = fresh.rack.generic_counts[(compose(s.ul, s.ur),)]
        assert records <= fast.keys()


def test_generic_memo_is_shared_by_the_structures_of_a_rack():
    """A rack table's generic memo, warmed by every structure on it in
    either order, hands each structure the count a fresh table gives it and
    the brute-force count (taken once per key), and holds one count per
    distinct (presentation, W-tuple) key."""
    fronts = [p for p in map(fundamental_presentation, oracle_fronts().values())
              if p.relations]
    racks: dict[int, tuple[RackTable, list]] = {}
    for sigma in ((0, 1, 2), (1, 2, 0), (1, 0, 2, 3), (1, 2, 0, 3),
                  (0, 1, 2, 3)):
        rack = permutation_rack(sigma)
        center = rack.gl_center.sorted_elements()
        racks[id(rack)] = rack, [make_fourleg(rack, ul, ur).structure
                                 for ul in center for ur in center]
    for n in range(5):
        for fl in structure_classes(n):
            racks.setdefault(id(fl.rack), (fl.rack, []))[1].append(
                fl.structure)
    shared = False
    for rack, structures in racks.values():
        brute: dict = {}
        for order in (structures, structures[::-1]):
            warm = RackTable(rack.n, rack.rows)
            keys = set()
            for s in order:
                fl = FourLegRack(warm, s)
                fresh = FourLegRack(RackTable(rack.n, rack.rows), s)
                for pres in fronts:
                    count = count_colorings(pres, fl)
                    assert count == count_colorings(pres, fresh), \
                        (rack.rows, s, pres)
                    key = pres, tuple(word_perm(fl, rel.word)
                                      for rel in pres.relations)
                    keys.add(key)
                    if rack.n ** pres.generators <= 10 ** 4:
                        if key not in brute:
                            brute[key] = brute_force_colorings(pres, fl)
                        assert count == brute[key], (rack.rows, s, pres)
            assert memo_size(warm.generic_counts) == len(keys)
            shared |= len(keys) < len(structures) * len(fronts)
    assert shared


def test_memos_store_each_shared_count_once():
    """Every structure on the permutation racks of order <= 4, counted on
    the twelve fixtures by both counters, stores 1,166 generic counts over
    the 33 rack tables, the total the generic memo held when it was one
    flat dict, and one closed-form count per (g, invariants record): 143
    products g = ul o ur times the 8 distinct records of the fixtures.
    The closed form's outer keys (g,) are among the generic counter's, so
    the memo holds 176 outer keys, as the generic counter alone makes.  A
    change that stops structures sharing counts raises them."""
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in builtin_fixtures().values()]
    assert len(fronts) == 12
    racks = {}
    for _, fl in permutation_structures(4, conjugacy_reps_only=False):
        racks[id(fl.rack)] = fl.rack
        for inv, pres in fronts:
            assert count_colorings(pres, fl) == perm_fast_count(fl, inv)
    assert len(racks) == 33
    inner = [d for r in racks.values() for d in r.generic_counts.values()]
    assert len(inner) == 176
    keys = [k for d in inner for k in d]
    assert sum(isinstance(k, str) for k in keys) == 1166
    records = {inv for inv, _ in fronts}
    assert len(records) == 8
    fast = [d for d in inner if records & d.keys()]
    assert len(fast) == 143
    assert all(records <= d.keys() for d in fast)
    assert sum(isinstance(k, ClassicalInvariants) for k in keys) == \
        143 * len(records)
    assert len(keys) == 1166 + 143 * len(records)


def test_counters_share_inner_dicts_but_never_a_count():
    """The two counters keep their counts apart in the inner dicts they
    share: with every generic count of the permutation structures of
    order <= 3 made wrong, the closed form still returns its own counts,
    and with every closed-form count made wrong, the generic counter
    returns its own.  Each overwrite is read back by the counter it
    belongs to, so it reached the memo both counters read."""
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in builtin_fixtures().values()]
    for kind in (str, ClassicalInvariants):
        structures = [fl for _, fl in
                      permutation_structures(3, conjugacy_reps_only=False)]
        fast = [[perm_fast_count(fl, inv) for inv, _ in fronts]
                for fl in structures]
        generic = [[count_colorings(pres, fl) for _, pres in fronts]
                   for fl in structures]
        assert fast == generic
        inner = {id(d): d for fl in structures
                 for d in fl.rack.generic_counts.values()}.values()
        assert any(any(isinstance(k, str) for k in d) and
                   any(isinstance(k, ClassicalInvariants) for k in d)
                   for d in inner)
        for d in inner:
            for k in d:
                if isinstance(k, kind):
                    d[k] += 1000
        after_fast = [[perm_fast_count(fl, inv) for inv, _ in fronts]
                      for fl in structures]
        after_generic = [[count_colorings(pres, fl) for _, pres in fronts]
                         for fl in structures]
        shifted = [[c + 1000 for c in row] for row in generic]
        if kind is str:
            assert after_fast == fast and after_generic == shifted
        else:
            assert after_generic == generic and after_fast == shifted


def test_presentation_hash_is_by_value_and_keys_the_memo():
    # presentations built apart from one code share one memo entry; one
    # word reversed is another presentation, with an entry of its own
    a, b = (fundamental_presentation(left_trefoil()) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    first = a.relations[0]
    assert first.word != first.word[::-1]
    flipped = Presentation(a.generators,
                           (first._replace(word=first.word[::-1]),
                            *a.relations[1:]))
    assert flipped != a
    fl = three_cycle_fourleg(ul=(1, 2, 0))
    for pres in (a, b, flipped):
        assert count_colorings(pres, fl) == brute_force_colorings(pres, fl)
    assert memo_size(fl.rack.generic_counts) == 2


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


def test_fast_path_caches():
    inv = classical_invariants(standard_unknot())
    others = [r for r in enumerate_racks(4) if len(set(r.columns)) > 1]
    assert others
    for rack in [dihedral_quandle(3), *others]:
        fl = make_fourleg(rack, identity(rack.n), identity(rack.n))
        for _ in range(2):   # the memo must not skip the check
            with pytest.raises(ValueError, match="permutation rack"):
                perm_fast_count(fl, inv)
        assert not any(isinstance(k, ClassicalInvariants)
                       for d in rack.generic_counts.values() for k in d)
    # memoized counts, in either call order, equal counts of a fresh memo;
    # the memo lives on the rack table, so both sides get copies of it
    cases = list(_fast_path_cases())
    for order in (cases, cases[::-1]):
        warm: dict[int, RackTable] = {}
        for fl, inv, _ in order:
            shared = warm.setdefault(id(fl.rack),
                                     RackTable(fl.rack.n, fl.rack.rows))
            fresh = RackTable(fl.rack.n, fl.rack.rows)
            assert perm_fast_count(FourLegRack(shared, fl.structure), inv) == \
                perm_fast_count(FourLegRack(fresh, fl.structure), inv)


def test_permutation_structures_enumeration():
    pairs = list(permutation_structures(3))
    # order 1: 1; order 2: id gives 4, swap gives 4; order 3 reps:
    # id -> 36, transposition -> 4, 3-cycle -> 9
    assert len(pairs) == 1 + 4 + 4 + 36 + 4 + 9
    assert all(isinstance(fl, FourLegRack) for _, fl in pairs)
    full = list(permutation_structures(3, conjugacy_reps_only=False))
    assert len(full) == 1 + 4 + 4 + 36 + 3 * 4 + 2 * 9


def test_permutation_structures_builds_one_structure_per_step():
    """The sweep walks 20,427 structures; listing a rack's |U_X|^2 of them
    at once, 14,400 on the trivial rack of order 5, would raise its peak
    memory.  So pulling that rack's first structures, its U_X and down
    maps made, allocates less than a quarter of what the list of its
    structures alone would take."""
    structures = permutation_structures(5, conjugacy_reps_only=False)
    # the 1,107 structures of orders 1 to 4 come first
    for _ in range(1107):
        rack_id, fl = next(structures)
    assert rack_id == "perm4:(0 3)(1 2)"
    listed = 14400 * sys.getsizeof(fl.structure)
    del fl
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(40):
            rack_id, fl = next(structures)
            assert rack_id == "perm5:()"
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(fl.rack.gl_center.elements) ** 2 == 14400
    assert peak < listed / 4, (peak, listed)


def test_permutation_structures_are_pinned():
    # sha256 over every (rack_id, ul, ur, dl, dr) in yield order, pinned
    # from the listing that filtered S_n for the elements commuting with sigma
    digest = hashlib.sha256()
    count = 0
    for rack_id, fl in permutation_structures(5, conjugacy_reps_only=False):
        s = fl.structure
        digest.update(repr((rack_id, s.ul, s.ur, s.dl, s.dr)).encode())
        digest.update(b"\n")
        count += 1
    assert count == 20427
    assert digest.hexdigest() == \
        "975b916e79aa64591b669df20e6cf69864440c3eab5b33538de07c3a3e53f4dc"


def test_sweep_checksum():
    """The generic counts of the 12 fixtures over all 20,427 permutation
    structures of order <= 5, the sweep that the acceptance gate runs and
    the benchmark times, sum to 597,744, and the closed form agrees on
    every pair."""
    fronts = [(classical_invariants(c), fundamental_presentation(c))
              for c in builtin_fixtures().values()]
    assert len(fronts) == 12
    structures = total = 0
    for _, fl in permutation_structures(5, conjugacy_reps_only=False):
        for inv, pres in fronts:
            count = count_colorings(pres, fl)
            assert perm_fast_count(fl, inv) == count, (fl.structure, inv)
            total += count
        structures += 1
    assert structures == 20427
    assert total == 597744


def test_shared_table_counts_match_brute_force_and_a_fresh_table():
    """On all 68 structures of the racks of order <= 3, the count of each
    fixture, of a two-trefoil sum and of a stabilized trefoil on the table
    that all the rack's structures share equals the brute-force count and
    the count on a fresh copy of the table, so no two slices or counts
    collide under the string keys."""
    fronts = [fundamental_presentation(c) for c in oracle_fronts().values()]
    structures = 0
    for n in range(4):
        for rack in enumerate_racks(n):
            for s in enumerate_structures(rack):
                fl = FourLegRack(rack, s)
                structures += 1
                for pres in fronts:
                    fresh = FourLegRack(RackTable(rack.n, rack.rows), s)
                    count = count_colorings(pres, fl)
                    assert count == count_colorings(pres, fresh), \
                        (rack.rows, s, pres)
                    if n ** pres.generators <= 10 ** 4:
                        assert count == brute_force_colorings(pres, fl), \
                            (rack.rows, s, pres)
    assert structures == 68


def test_verify_indistinguishability_passes_on_fixtures():
    report = verify_indistinguishability(builtin_fixtures(), max_order=3)
    # the rows are counted as they are read, and read only once
    rows = list(report.rows)
    assert rows and not list(report.rows)
    assert report.passed
    assert not report.violations
    # groups with >= 2 members actually exercise the comparison
    fat = [names for names in report.groups.values() if len(names) >= 2]
    assert len(fat) >= 3
    counted = {(r.code_name, r.rack_id, r.ul, r.ur) for r in rows}
    assert len(counted) == len(rows)


def test_verify_report_flags_violations():
    ok = VerifyReport(groups={}, rows=iter(()), violations=[])
    bad = VerifyReport(groups={(-1, 0): ("a", "b"), (-2, 1): ("c",)},
                       rows=iter(()), violations=[((-1, 0), "witness")])
    assert ok.passed and not bad.passed
    assert not bad.group_passed((-1, 0)) and bad.group_passed((-2, 1))


def test_structures_on_trivial_quandle_agree_with_fast_path():
    # T_n is the permutation rack of the identity; every (ul, ur) qualifies
    inv = classical_invariants(left_trefoil())
    pres = fundamental_presentation(left_trefoil())
    for s in enumerate_structures(trivial_quandle(3)):
        fl = FourLegRack(trivial_quandle(3), s)
        assert perm_fast_count(fl, inv) == count_colorings(pres, fl)
