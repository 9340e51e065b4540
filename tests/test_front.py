import hashlib
import random

import pytest

from legrack.front import (
    Cusp,
    CrossingPass,
    FrontCode,
    FrontError,
    Presentation,
    builtin_fixtures,
    classical_invariants,
    cusp_operator,
    front_from_text,
    front_to_text,
    fundamental_presentation,
    kinked_unknot,
    left_trefoil,
    load_front,
    rotate_basepoint,
    save_front,
    stabilize,
    stabilized_unknot,
    standard_unknot,
    trefoil_with_kinks,
    validate_front,
)

PRESENTATIONS_SHA256 = (
    "4d429dcaf5be9638195f089f76a0a1624c81e4202c69db2795eb9b49c637d101")


def test_validate_rejects_same_side_cusps():
    with pytest.raises(FrontError, match="alternation"):
        validate_front((Cusp("R", "U"), Cusp("R", "D")))
    # cyclic adjacency counts too
    with pytest.raises(FrontError, match="alternation"):
        validate_front((Cusp("L", "U"), Cusp("R", "D"),
                        Cusp("L", "U"), Cusp("L", "D")))


def test_validate_rejects_unbalanced_cusps():
    with pytest.raises(FrontError, match="up and one down"):
        validate_front((Cusp("R", "U"), Cusp("L", "U")))
    with pytest.raises(FrontError, match="even"):
        validate_front((Cusp("R", "U"), Cusp("L", "D"), Cusp("R", "D")))


def test_validate_rejects_bad_crossing_passes():
    base = (Cusp("R", "U"), Cusp("L", "D"))
    with pytest.raises(FrontError, match="over and one under"):
        validate_front(base + (CrossingPass(1, 1, "O"),))
    with pytest.raises(FrontError, match="repeated"):
        validate_front(base + (CrossingPass(1, 1, "O"), CrossingPass(1, 1, "O")))
    with pytest.raises(FrontError, match="inconsistent sign"):
        validate_front(base + (CrossingPass(1, 1, "O"), CrossingPass(1, -1, "U")))
    with pytest.raises(FrontError, match="malformed"):
        validate_front(base + (CrossingPass(1, 2, "O"),))
    with pytest.raises(FrontError, match="malformed"):
        validate_front((Cusp("X", "U"), Cusp("L", "D")))


@pytest.mark.parametrize("crossing, sign", [(1, True), ("a", -1), (1.0, -1)])
def test_validate_rejects_a_bool_sign_and_a_crossing_id_that_is_no_int(
        crossing, sign):
    # left_trefoil with crossing 1's passes replaced; were it accepted,
    # the code would fail later, in fundamental_presentation or when its
    # own text is read back
    events = tuple(CrossingPass(crossing, sign, ev.role)
                   if isinstance(ev, CrossingPass) and ev.crossing == 1
                   else ev for ev in left_trefoil().events)
    with pytest.raises(FrontError, match="event 3: malformed crossing pass"):
        validate_front(events)


def test_every_code_validate_accepts_round_trips_through_text():
    """Seeded codes of 2-6 alternating cusps and 0-3 crossings, their ids
    and signs drawn with values of the wrong type among them: each code
    ``validate_front`` accepts is read back from its text with the same
    events, types included."""
    rng = random.Random(7)
    ids = (0, 1, 2, -3, 10 ** 12, True, 1.0, "a")
    signs = (1, -1, True, False, 1.0)
    accepted = 0
    for _ in range(2000):
        first = rng.choice("LR")
        events = [Cusp(first if i % 2 == 0 else "LR"[first == "L"],
                       rng.choice("UD"))
                  for i in range(2 * rng.randint(1, 3))]
        for cid in rng.sample(ids, rng.randint(0, 3)):
            sign = rng.choice(signs)
            for role in "OU":
                events.insert(rng.randint(0, len(events)),
                              CrossingPass(cid, sign, role))
        try:
            code = validate_front(events)
        except FrontError:
            continue
        accepted += 1
        assert repr(front_from_text(front_to_text(code))) == repr(code)
    assert accepted > 300


def test_cusp_operator_convention():
    assert cusp_operator("L", "U") == "ul"
    assert cusp_operator("R", "U") == "ur"
    assert cusp_operator("L", "D") == "dl"
    assert cusp_operator("R", "D") == "dr"


def test_unknot_invariants():
    inv = classical_invariants(standard_unknot())
    assert (inv.tb, inv.rot) == (-1, 0)
    assert (inv.writhe, inv.up_cusps, inv.down_cusps) == (0, 1, 1)


def test_trefoil_invariants():
    inv = classical_invariants(left_trefoil())
    assert (inv.tb, inv.rot) == (-6, -1)
    assert (inv.writhe, inv.up_cusps, inv.down_cusps) == (-3, 4, 2)


def test_rot_plus_tb_is_writhe_minus_up_cusps():
    for code in builtin_fixtures().values():
        inv = classical_invariants(code)
        assert inv.rot + inv.tb == inv.writhe - inv.up_cusps
        assert inv.rot - inv.tb == inv.down_cusps - inv.writhe


def test_stabilization_bookkeeping():
    code = standard_unknot()
    inv = classical_invariants(code)
    plus = stabilize(code, 1)
    minus = stabilize(code, -1)
    for stabbed, drot in ((plus, 1), (minus, -1)):
        got = classical_invariants(stabbed)
        assert got.tb == inv.tb - 1
        assert got.rot == inv.rot + drot


def test_random_stabilization_sequences():
    rng = random.Random(11)
    for _ in range(20):
        code = standard_unknot()
        tb, rot = -1, 0
        for _ in range(rng.randrange(1, 9)):
            sign = rng.choice((1, -1))
            pos = rng.randrange(0, len(code.events) + 1)
            code = stabilize(code, sign, position=pos)
            tb -= 1
            rot += sign
        inv = classical_invariants(code)
        assert (inv.tb, inv.rot) == (tb, rot)


def test_stabilize_rejects_bad_arguments():
    with pytest.raises(FrontError):
        stabilize(standard_unknot(), 0)
    with pytest.raises(FrontError):
        stabilize(standard_unknot(), 1, position=99)


def test_basepoint_rotation_preserves_invariants():
    for code in builtin_fixtures().values():
        inv = classical_invariants(code)
        for k in range(len(code.events)):
            assert classical_invariants(rotate_basepoint(code, k)) == inv


def test_unknot_presentation():
    pres = fundamental_presentation(standard_unknot())
    assert pres.generators == 1
    assert pres.relations == ()
    assert pres.closure_word == ("ur", "dl")


def test_kinked_unknot_presentation():
    # one kink on the standard unknot gives tb + rot = -2, which no
    # Legendrian knot has
    with pytest.raises(FrontError, match="tb \\+ rot .* is even"):
        kinked_unknot((-1,))
    # the same one-arc shape with two up cusps, where tb + rot = -3
    code = validate_front((Cusp("R", "U"), Cusp("L", "U"), Cusp("R", "D"),
                           Cusp("L", "D"), CrossingPass(1, -1, "O"),
                           CrossingPass(1, -1, "U")))
    inv = classical_invariants(code)
    assert (inv.tb, inv.rot) == (-3, 0)
    pres = fundamental_presentation(code)
    assert pres.generators == 1
    (rel,) = pres.relations
    assert (rel.in_arc, rel.out_arc, rel.over_arc) == (0, 0, 0)
    assert rel.word == ("ur", "ul", "dr", "dl")
    assert rel.sign == -1


def relabelings(pres):
    """All cyclic arc relabelings of a presentation's relation set."""
    m = pres.generators
    out = []
    for shift in range(m):
        out.append({
            ((r.in_arc + shift) % m, (r.out_arc + shift) % m,
             (r.over_arc + shift) % m, r.word, r.sign)
            for r in pres.relations})
    return out


def test_trefoil_presentation_matches_known_relations():
    pres = fundamental_presentation(left_trefoil())
    assert pres.generators == 3
    expected = {
        (0, 1, 2, ("ur", "ul"), -1),
        (1, 2, 0, ("dr", "ul"), -1),
        (2, 0, 1, ("ur", "dl"), -1),
    }
    assert expected in relabelings(pres)


def test_presentation_invariant_under_basepoint_rotation():
    code = left_trefoil()
    reference = relabelings(fundamental_presentation(code))
    for k in range(len(code.events)):
        rotated = fundamental_presentation(rotate_basepoint(code, k))
        assert rotated.generators == 3
        got = {(r.in_arc, r.out_arc, r.over_arc, r.word, r.sign)
               for r in rotated.relations}
        assert got in reference


@pytest.mark.parametrize("name", sorted(builtin_fixtures()))
def test_presentation_letter_accounting(name):
    code = builtin_fixtures()[name]
    inv = classical_invariants(code)
    pres = fundamental_presentation(code)
    words = [r.word for r in pres.relations] or [pres.closure_word]
    letters = [letter for w in words for letter in w]
    assert len(letters) == inv.up_cusps + inv.down_cusps
    assert sum(letter in ("ul", "ur") for letter in letters) == inv.up_cusps
    assert sum(letter in ("dl", "dr") for letter in letters) == inv.down_cusps
    # cusp sides alternate, so letters alternate between left and right maps
    full = [letter for w in words for letter in w]
    sides = ["L" if letter in ("ul", "dl") else "R" for letter in full]
    for a, b in zip(sides, sides[1:] + sides[:1]):
        assert a != b


def test_presentation_arc_structure():
    for code in builtin_fixtures().values():
        pres = fundamental_presentation(code)
        if not pres.relations:
            continue
        m = pres.generators
        assert len(pres.relations) == m
        assert [r.in_arc for r in pres.relations] == list(range(m))
        assert [r.out_arc for r in pres.relations] == \
            [(i + 1) % m for i in range(m)]
        assert {r.over_arc for r in pres.relations} <= set(range(m))


def test_stabilized_unknot_variants_differ_but_agree_on_invariants():
    a = stabilized_unknot(2, 3)
    b = stabilized_unknot(2, 3, alternate=True)
    assert a.events != b.events
    assert classical_invariants(a) == classical_invariants(b)


@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("counts", [(-1, 0), (0, -1), (-2, 3), (3, -2)])
def test_stabilized_unknot_rejects_negative_counts(counts, alternate):
    # read as zero, a negative count would silently give another front,
    # e.g. the standard unknot for (-1, 0)
    with pytest.raises(FrontError, match="nonnegative"):
        stabilized_unknot(*counts, alternate=alternate)


def _trefoil_with_first_relation(**changes):
    pres = fundamental_presentation(left_trefoil())
    first = pres.relations[0]._replace(**changes)
    return lambda: Presentation(pres.generators,
                                (first, *pres.relations[1:]))


@pytest.mark.parametrize("build, field", [
    # Unchecked, the counter counts the first four silently (R3 with the
    # identity structure gives 9, 3, 3 and 3 colorings), and the next two
    # fail inside it with IndexError and AttributeError.
    pytest.param(_trefoil_with_first_relation(sign=2),
                 r"relations\[0\]\.sign", id="sign-2"),
    pytest.param(_trefoil_with_first_relation(out_arc=-1),
                 r"relations\[0\]\.out_arc", id="negative-arc"),
    pytest.param(lambda: Presentation(0, ()), "generators",
                 id="no-relations-0-generators"),
    pytest.param(lambda: Presentation(3, ()), "generators",
                 id="no-relations-3-generators"),
    pytest.param(_trefoil_with_first_relation(over_arc=3),
                 r"relations\[0\]\.over_arc", id="arc-out-of-range"),
    pytest.param(_trefoil_with_first_relation(word=("ur", "xl")),
                 r"relations\[0\]\.word", id="unknown-letter"),
    # The other rules.
    pytest.param(_trefoil_with_first_relation(in_arc=True),
                 r"relations\[0\]\.in_arc", id="bool-arc"),
    pytest.param(_trefoil_with_first_relation(sign=True),
                 r"relations\[0\]\.sign", id="bool-sign"),
    pytest.param(lambda: Presentation(True, ()), "generators",
                 id="bool-generators"),
    pytest.param(lambda: Presentation(1, (), ("ur", "up")), "closure_word",
                 id="unknown-closure-letter"),
    pytest.param(lambda: Presentation(
                     3, fundamental_presentation(left_trefoil()).relations,
                     ("ur", "dl")),
                 "closure_word", id="closure-word-with-relations"),
    # Fields of the wrong type, which used to be accepted and then fail
    # with TypeError (unhashable list) in hash() or in the counter, or with
    # AttributeError (a plain tuple for a relation).
    pytest.param(lambda: Presentation(
                     3, list(fundamental_presentation(left_trefoil())
                             .relations)),
                 "relations", id="relations-list"),
    pytest.param(lambda: Presentation(1, (), ["ur", "dl"]), "closure_word",
                 id="closure-word-list"),
    pytest.param(_trefoil_with_first_relation(word=["ur", "ul"]),
                 r"relations\[0\]\.word", id="word-list"),
    pytest.param(lambda: Presentation(1, ((0, 0, 0, (), 1, 0),)),
                 r"relations\[0\]", id="relation-plain-tuple"),
    # A crossing id that is not an int entered the memo key unchecked.
    pytest.param(_trefoil_with_first_relation(crossing="x"),
                 r"relations\[0\]\.crossing", id="str-crossing"),
    pytest.param(_trefoil_with_first_relation(crossing=True),
                 r"relations\[0\]\.crossing", id="bool-crossing"),
])
def test_presentation_rejects_malformed_fields(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_text_roundtrip(tmp_path):
    for name, code in builtin_fixtures().items():
        text = front_to_text(code)
        assert front_from_text(text).events == code.events
        path = tmp_path / f"{name}.front"
        save_front(code, path)
        assert load_front(path).events == code.events


def test_text_parse_errors():
    with pytest.raises(FrontError, match="unrecognized"):
        front_from_text("CUSP R U\nWIBBLE\n")
    with pytest.raises(FrontError, match="bad crossing id"):
        front_from_text("CUSP R U\nCUSP L D\nX q + O\n")
    with pytest.raises(FrontError):  # validation still applies
        front_from_text("CUSP R U\nCUSP R D\n")
    # ASCII spaces and tabs between fields, "\n" between lines: with
    # ``str.split`` and ``str.splitlines`` each of these loads as the
    # standard unknot
    for text in ["CUSP R U\nCUSP\u3000L D\n", "CUSP R U\u2028CUSP L D\n"]:
        with pytest.raises(FrontError, match="separated by spaces or tabs"):
            front_from_text(text)
    assert front_from_text("CUSP\tR U\r\nCUSP L\t D\r\n").events == \
        standard_unknot().events


@pytest.mark.parametrize("cid", ["1_0", "+1", "\u0661"],
                         ids=["underscore", "plus", "arabic-indic-digit"])
def test_text_rejects_crossing_ids_the_writer_never_makes(cid):
    # int() reads each of these, and front_to_text would write it back as
    # a different string.
    text = front_to_text(left_trefoil()).replace("X 1 ", f"X {cid} ")
    with pytest.raises(FrontError, match="bad crossing id"):
        front_from_text(text)


def test_text_comments_ignored():
    text = "# unknot\nCUSP R U  # first\n\nCUSP L D\n"
    assert front_from_text(text).events == standard_unknot().events


def test_fixture_catalog():
    fixtures = builtin_fixtures()
    assert len(fixtures) == 12
    for code in fixtures.values():
        assert isinstance(code, FrontCode)
        validate_front(code.events)


def _presentation_text(pres):
    rels = "".join(f"{r.in_arc} {r.out_arc} {r.over_arc} {' '.join(r.word)} "
                   f"{r.sign} {r.crossing}\n" for r in pres.relations)
    return f"{pres.generators} {' '.join(pres.closure_word)}\n{rels}"


def test_presentations_of_random_stabilizations_are_pinned():
    # every rotation of 40 codes, each a trefoil code with 1-3 seeded
    # stabilizations at random positions; the hash was computed by a
    # separate multi-pass implementation of the walk
    rng = random.Random(27)
    digest = hashlib.sha256()
    for base in (left_trefoil(), trefoil_with_kinks()):
        for _ in range(20):
            code = base
            for _ in range(rng.randrange(1, 4)):
                code = stabilize(code, rng.choice((1, -1)),
                                 position=rng.randrange(len(code.events) + 1))
            for k in range(len(code.events)):
                pres = fundamental_presentation(rotate_basepoint(code, k))
                digest.update(_presentation_text(pres).encode())
    assert digest.hexdigest() == PRESENTATIONS_SHA256


@pytest.mark.parametrize("name", sorted(builtin_fixtures()))
def test_stabilize_takes_the_one_alternating_cusp_order(name):
    code = builtin_fixtures()[name]
    for position in range(len(code.events) + 1):
        for sign, vertical in ((1, "D"), (-1, "U")):
            valid = []
            for sides in (("L", "R"), ("R", "L")):
                events = (code.events[:position]
                          + tuple(Cusp(s, vertical) for s in sides)
                          + code.events[position:])
                try:
                    valid.append(validate_front(events))
                except FrontError:
                    pass
            assert len(valid) == 1
            assert stabilize(code, sign, position) == valid[0]
