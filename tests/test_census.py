import hashlib
import itertools

import pytest

from legrack.census import (
    FAMILY_NAMES,
    _canonical_first_columns,
    _search_shard,
    _tables,
    census_counts,
    dedupe_racks,
    enumerate_racks,
)
from legrack.perms import compose, inverse
from legrack.racks import (
    RackError,
    RackTable,
    dihedral_quandle,
    find_isomorphism,
    permutation_rack,
    rack_flags,
    trivial_quandle,
    validate_rack,
)


def brute_force_racks(n):
    """Every valid rack table of order n, found by filtering all tables."""
    racks = []
    for rows in itertools.product(itertools.product(range(n), repeat=n),
                                  repeat=n):
        try:
            racks.append(validate_rack([list(r) for r in rows]))
        except RackError:
            continue
    return racks


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 6)])
def test_enumeration_matches_brute_force(n, count):
    reps = enumerate_racks(n)
    assert len(reps) == count
    brute = dedupe_racks(brute_force_racks(n)) if n else [RackTable(0, ())]
    assert len(brute) == count
    # same classes, not just same count
    for rep in reps:
        assert sum(find_isomorphism(rep, other) is not None
                   for other in brute) == 1


def test_isomorphism_class_counts():
    expected = {0: 1, 1: 1, 2: 2, 3: 6, 4: 19, 5: 74}
    for n, count in expected.items():
        assert len(enumerate_racks(n)) == count


def test_enumeration_yields_valid_pairwise_nonisomorphic_tables():
    for n in range(5):
        reps = enumerate_racks(n)
        for rack in reps:
            validate_rack(rack.rows)
        for a, b in itertools.combinations(reps, 2):
            assert find_isomorphism(a, b) is None


def test_enumeration_shard_independence():
    for n in (4, 5):
        serial = enumerate_racks(n, jobs=1)
        parallel = enumerate_racks(n, jobs=2)
        assert [r.rows for r in serial] == [r.rows for r in parallel]


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_product_table_matches_compose_and_inverse():
    for n in range(7):
        perms, _, prod, inv, _ = _tables(n)
        assert len(prod) == len(perms)
        assert [perms[i] for i in inv] == [inverse(p) for p in perms]
        rows = range(len(perms)) if n <= 5 else range(0, len(perms), 7)
        for i in rows:
            assert [perms[j] for j in prod[i]] == \
                [compose(perms[i], q) for q in perms]


# The search's raw output: every table of every shard, in order, for
# n = 1..6.  Any change to the branching, the pruning or the symmetry
# breaking shows here before it can show in the class counts.
RAW_TABLE_COUNTS = [1, 2, 8, 44, 446, 6941]
RAW_SHARDS_SHA256 = \
    "fedf16caac3d174d0a4ba62b2fefdc69100e7d600fefb1aaaeb86e8aeb0734ce"
REPRESENTATIVES_SHA256 = \
    "dbffe42d2146bff5aaf4068c96e7ccf770b58acb31999144275721e86aa107d7"


def test_search_shards_are_pinned():
    raw = [[_search_shard(n, fc) for fc in _canonical_first_columns(n)]
           for n in range(1, 7)]
    assert [sum(len(shard) for shard in r) for r in raw] == RAW_TABLE_COUNTS
    assert _sha256(raw) == RAW_SHARDS_SHA256


def test_class_representatives_are_pinned():
    reps = [[r.rows for r in enumerate_racks(n)] for n in range(7)]
    assert _sha256(reps) == REPRESENTATIVES_SHA256


def test_enumeration_envelope():
    with pytest.raises(NotImplementedError):
        enumerate_racks(7)
    with pytest.raises(ValueError):
        enumerate_racks(-1)


def test_known_families_are_represented():
    reps4 = enumerate_racks(4)
    for rack in [trivial_quandle(4), dihedral_quandle(4),
                 permutation_rack((1, 2, 3, 0)),
                 permutation_rack((1, 0, 3, 2))]:
        assert sum(find_isomorphism(rack, rep) is not None
                   for rep in reps4) == 1


CENSUS_TABLE = {
    # order: (racks, involutory, quandles, kei)
    0: (1, 1, 1, 1),
    1: (1, 1, 1, 1),
    2: (8, 8, 4, 4),
    3: (33, 24, 16, 16),
    4: (249, 196, 84, 74),
    5: (1592, 850, 448, 342),
}


@pytest.mark.parametrize("n", sorted(CENSUS_TABLE))
def test_structure_census_small_orders(n):
    rows = census_counts(n)
    assert [r.family for r in rows] == list(FAMILY_NAMES)
    assert tuple(r.structure_count for r in rows) == CENSUS_TABLE[n]
    assert all(r.order == n for r in rows)


def test_family_containments():
    for n in range(5):
        rows = {r.family: r for r in census_counts(n)}
        assert rows["kei"].rack_count <= rows["quandles"].rack_count
        assert rows["kei"].rack_count <= rows["involutory"].rack_count
        assert rows["quandles"].rack_count <= rows["racks"].rack_count
        assert rows["involutory"].rack_count <= rows["racks"].rack_count
        # membership flags agree with the counts
        racks = enumerate_racks(n)
        flags = [rack_flags(r) for r in racks]
        assert rows["quandles"].rack_count == sum(f.is_quandle for f in flags)
        assert rows["involutory"].rack_count == \
            sum(f.is_involutory for f in flags)
        assert rows["kei"].rack_count == \
            sum(f.is_quandle and f.is_involutory for f in flags)


def test_census_accepts_precomputed_racks():
    racks = enumerate_racks(3)
    assert census_counts(3, racks=racks) == census_counts(3)


def test_dedupe_is_idempotent_and_absorbs_relabelings():
    reps = enumerate_racks(3)
    assert [r.rows for r in dedupe_racks(reps)] == [r.rows for r in reps]
    # feeding a relabeled copy alongside the originals adds no class
    relabeled = validate_rack(
        [[{0: 1, 1: 0, 2: 2}[dihedral_quandle(3).op({1: 0, 0: 1, 2: 2}[x],
                                                     {1: 0, 0: 1, 2: 2}[y])]
          for y in range(3)] for x in range(3)])
    assert len(dedupe_racks(list(reps) + [relabeled])) == len(reps)
