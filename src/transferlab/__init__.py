"""Transfer maps, Sylow structure, and theorem verification for finite
permutation groups.

The layers, bottom up:

- perm, group: permutations, stabilizer-chain groups, cosets, quotients.
- iso: isomorphism tests, Aut(P) as a permutation group, all subgroups.
- series: central/derived/norm series and the standard normal functors.
- sylow: Sylow families, tame intersections, weak closure.
- transfer: pretransfer and transfer maps, focal subgroups, control of
  p-transfer.
- checkers: one checker per verified statement, plus the corpus scan.
- catalog, cli: built-in groups, catalog files, command line.
"""

from .caps import CapExceeded, Caps, DEFAULT_CAPS, current_caps, limits
from .perm import Perm, commutator, parse_cycles
from .group import (
    InvariantError,
    PermGroup,
    Transversal,
    QuotientGroup,
    centralizer,
    commutator_subgroup,
    conjugate_subgroup,
    core,
    derived_subgroup,
    double_coset_reps,
    intersection,
    intersection_order,
    is_maximal,
    normal_closure,
    normalizer,
    quotient_group,
    right_transversal,
    span,
)
from .iso import (
    GeneratorMap,
    abelian_invariants,
    abelianization_invariants,
    all_subgroups,
    automorphism_group,
    is_isomorphic,
    normal_subgroups,
)
from .series import (
    SeriesResult,
    a_p,
    center,
    derived_series,
    frattini_p,
    is_dedekind,
    is_nilpotent,
    is_p_nilpotent,
    is_p_solvable,
    is_pi_central_of_height,
    is_solvable,
    iterated_commutator,
    lower_central_series,
    nilpotency_class,
    norm,
    norm_length,
    norm_series,
    o_p,
    o_p_prime,
    o_upper_p,
    omega,
    p_length,
    p_prime_length,
    p_series,
    upper_central_series,
    z_k,
)
from .sylow import (
    SylowFamily,
    TameIntersectionRecord,
    all_sylow_subgroups,
    characteristic_subgroups_above,
    is_tame_intersection,
    is_weakly_closed,
    max_intersection_order,
    sylow_subgroup,
    tame_intersections_between,
)
from .transfer import (
    ControlReport,
    TransferResult,
    check_mackey,
    check_transitivity,
    controls_p_transfer,
    focal_subgroup,
    lemma23_witness,
    pretransfer,
    tate_agreement,
    transfer,
    transfer_evaluation,
)
from .checkers import (
    CHECKERS,
    CheckerVerdict,
    TheoremReport,
    run_checker,
    scan_corpus,
    verify_paper_witnesses,
)
from .catalog import (
    CatalogEntry,
    builtin_group,
    default_corpus,
    load_catalog,
    save_catalog,
)
