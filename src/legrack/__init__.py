"""Finite racks, 4-Legendrian structures, and Legendrian front colorings."""

__version__ = "0.1.0"

from .perms import (
    PermGroup,
    burnside_pair_count,
    compose,
    cycle_string,
    identity,
    inverse,
    parse_cycles,
    subgroup_closure,
    symmetric_group,
)
from .racks import (
    RackError,
    RackFlags,
    RackTable,
    automorphism_group,
    inner_group,
    rack_flags,
    validate_rack,
)
from .fourleg import (
    FourLegRack,
    FourLegStructure,
    check_kimura_axioms,
    classify_structures,
    enumerate_structures,
    make_fourleg,
)
from .census import census_counts, enumerate_racks
from .front import (
    ClassicalInvariants,
    FrontCode,
    FrontError,
    Presentation,
    builtin_fixtures,
    classical_invariants,
    fundamental_presentation,
    stabilize,
    validate_front,
)
from .coloring import (
    brute_force_colorings,
    count_colorings,
    perm_fast_count,
    permutation_fourleg,
    verify_indistinguishability,
)
