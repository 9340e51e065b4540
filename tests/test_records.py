"""The package's records keep the behaviour of frozen dataclasses: each
prints as ``Name(field=value, ...)``, compares equal to another instance
built from equal values and hashes as the tuple of its fields, and refuses
assignment and deletion of a field.  ``FourLegRack`` alone has no
assignment guard: nothing assigns to it after ``__init__``, and a guarded
constructor would cost more than a structure's first count on the sweep."""
import pytest

from legrack.census import CensusRow
from legrack.coloring import ColoringRow, VerifyReport
from legrack.fourleg import (
    FourLegRack,
    FourLegStructure,
    KimuraReport,
    StructureClass,
    enumerate_structures,
)
from legrack.front import (
    ClassicalInvariants,
    CrossingPass,
    Cusp,
    FrontCode,
    Presentation,
    Relation,
)
from legrack.perms import PermGroup
from legrack.racks import RackFlags, RackTable, permutation_rack

RECORDS = [
    (lambda: PermGroup(2, frozenset({(0, 1)})),
     "PermGroup(degree=2, elements=frozenset({(0, 1)}))"),
    (lambda: RackTable(2, ((0, 0), (1, 1))),
     "RackTable(n=2, rows=((0, 0), (1, 1)))"),
    (lambda: RackFlags(True, True, (0, 1)),
     "RackFlags(is_quandle=True, is_involutory=True, kink=(0, 1))"),
    (lambda: FourLegStructure((1, 0), (0, 1), (1, 0), (0, 1)),
     "FourLegStructure(ul=(1, 0), ur=(0, 1), dl=(1, 0), dr=(0, 1))"),
    (lambda: FourLegRack(RackTable(1, ((0,),)),
                         FourLegStructure((0,), (0,), (0,), (0,))),
     "FourLegRack(rack=RackTable(n=1, rows=((0,),)), "
     "structure=FourLegStructure(ul=(0,), ur=(0,), dl=(0,), dr=(0,)))"),
    (lambda: StructureClass((0, 1), (1, 0), 1),
     "StructureClass(ul=(0, 1), ur=(1, 0), orbit_size=1)"),
    (lambda: KimuraReport(True, False, True, (("kink-inversion", (0,)),)),
     "KimuraReport(core_ok=True, d_form_ok=False, u_form_ok=True, "
     "failures=(('kink-inversion', (0,)),))"),
    (lambda: CensusRow(2, "kei", 2, 7),
     "CensusRow(order=2, family='kei', rack_count=2, structure_count=7)"),
    (lambda: Cusp("R", "U"), "Cusp(side='R', vertical='U')"),
    (lambda: CrossingPass(1, -1, "O"),
     "CrossingPass(crossing=1, sign=-1, role='O')"),
    (lambda: FrontCode((Cusp("R", "U"), Cusp("L", "D"))),
     "FrontCode(events=(Cusp(side='R', vertical='U'), "
     "Cusp(side='L', vertical='D')))"),
    (lambda: ClassicalInvariants(-1, 0, 0, 1, 1),
     "ClassicalInvariants(tb=-1, rot=0, writhe=0, up_cusps=1, "
     "down_cusps=1)"),
    (lambda: Relation(0, 0, 0, ("ur", "dl"), -1, 1),
     "Relation(in_arc=0, out_arc=0, over_arc=0, word=('ur', 'dl'), "
     "sign=-1, crossing=1)"),
    (lambda: Presentation(1, (Relation(0, 0, 0, ("ur",), 1, 1),)),
     "Presentation(generators=1, relations=(Relation(in_arc=0, out_arc=0, "
     "over_arc=0, word=('ur',), sign=1, crossing=1),), closure_word=())"),
    (lambda: ColoringRow("unknot", -1, 0, "perm1:()", "()", "()", 1),
     "ColoringRow(code_name='unknot', tb=-1, rot=0, rack_id='perm1:()', "
     "ul='()', ur='()', count=1)"),
    (lambda: VerifyReport({(-1, 0): ("unknot",)}, (), []),
     "VerifyReport(groups={(-1, 0): ('unknot',)}, rows=(), violations=[])"),
]


@pytest.mark.parametrize("make, text", RECORDS,
                         ids=[text.partition("(")[0] for _, text in RECORDS])
def test_record_repr_equality_hash_and_immutability(make, text):
    a, b = make(), make()
    assert a is not b
    assert repr(a) == text
    assert a == b and not a != b
    fields = getattr(type(a), "_fields", ("rack", "structure"))
    values = tuple(getattr(a, f) for f in fields)
    if isinstance(a, VerifyReport):
        # a dict field makes it unhashable, as it made the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    if isinstance(a, FourLegRack):
        return
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_presentation_precomputed_attributes_are_fixed_and_not_its_value():
    """``key``, ``reduced_words``, ``slice_key``, ``index_words``,
    ``closure_pairs``, ``row_specs`` and ``relation_rows``, computed when a
    presentation is made, are plain attributes that can be neither
    assigned nor deleted, and its equality, hash and repr read only its
    three fields."""
    rel = Relation(0, 0, 0, ("ur", "dl", "ul"), -1, 1)
    a, b = (Presentation(1, (rel,)) for _ in range(2))
    assert a.key == repr((1, (rel,), ()))
    assert a.reduced_words == (("ul",),)
    assert a.slice_key == "(('ul',),)"
    assert a.index_words == ((0,),)
    # the relation's word cancels a pair; only a closure word counts
    assert a.closure_pairs == 0
    assert a.row_specs == ((0, 1, -1),) and a.relation_rows == (0,)
    closed = Presentation(1, (), ("ur", "dl", "ul", "dr", "ur"))
    assert closed.reduced_words == (("ur",),)
    assert closed.slice_key == "(('ur',),)"
    assert closed.index_words == ((1,),)
    assert closed.closure_pairs == 2
    assert closed.row_specs == () and closed.relation_rows == ()
    two = Presentation(2, (Relation(0, 1, 0, ("dr", "dl"), 1, 1),
                           Relation(1, 0, 1, ("ul", "dr", "ur", "ul"), 1, 2)))
    assert two.reduced_words == (("dr", "dl"), ("ur", "ul"))
    assert two.slice_key == "(('dr', 'dl'), ('ur', 'ul'))"
    assert two.index_words == ((3, 2), (1, 0))
    assert two.row_specs == ((0, 0, 1), (1, 1, 1))
    assert two.relation_rows == (0, 1)
    # one reduced word: the pairs and the sign keep specs apart, and
    # relations with equal specs share one
    apart = Presentation(2, (Relation(0, 1, 0, ("ur",), 1, 1),
                             Relation(1, 0, 1, ("ul", "dr", "ur"), 1, 2),
                             Relation(0, 1, 1, ("ur",), -1, 3),
                             Relation(1, 0, 0, ("ur",), 1, 4)))
    assert apart.row_specs == ((0, 0, 1), (0, 1, 1), (0, 0, -1))
    assert apart.relation_rows == (0, 1, 2, 0)
    assert Presentation(1, (), ("ur", "dl")).slice_key == "()"
    names = ("key", "reduced_words", "slice_key", "index_words",
             "closure_pairs", "row_specs", "relation_rows")
    for p in (a, closed):
        assert set(names) <= vars(p).keys()
    for name in names:
        assert not hasattr(type(a), name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    # b's precomputed values replaced behind the guard: a and b still
    # compare, hash and print alike
    b.__dict__.update(key="other", reduced_words=(), slice_key="()",
                      index_words=(), closure_pairs=5, row_specs=(),
                      relation_rows=())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for name in names:
        assert name not in repr(a)


def test_enumerated_structures_are_constructor_built_ones():
    """``enumerate_structures`` makes each structure by ``tuple.__new__``:
    every one is a real ``FourLegStructure`` whose field access, equality,
    hash and repr match the one its constructor builds from its maps."""
    rack = permutation_rack((1, 0, 2, 3))
    structures = list(enumerate_structures(rack))
    assert len(structures) == len(rack.gl_center.elements) ** 2 == 16
    for s in structures:
        built = FourLegStructure(s.ul, s.ur, s.dl, s.dr)
        assert type(s) is FourLegStructure and isinstance(s, tuple)
        assert (s.ul, s.ur, s.dl, s.dr) == (s[0], s[1], s[2], s[3])
        assert s == built and not s != built and s is not built
        assert hash(s) == hash(built) == hash(tuple(built))
        assert repr(s) == repr(built)
        assert s._asdict() == built._asdict()
    assert len(set(structures)) == 16
