"""Upper bounds on the Hilbert-Schmidt distance between a state and the separable set.

The core loop draws random pure product states, keeps the ones that can
strictly shrink the squared distance to the target, and mixes them into a
running separable approximation by exact line search.  Companion tools
extrapolate the distance limit from the logged decay, accelerate runs by
symmetrization over finite groups, and turn the final approximation into
an entanglement witness.
"""

from .analysis import (
    Diagnostics,
    ExtrapolationFit,
    PowerFit,
    Witness,
    build_witness,
    correlation,
    diagnostics,
    fit_extrapolation,
    fit_power,
    max_sep_overlap,
)
from .errors import (
    CapacityError,
    DegenerateError,
    DimensionError,
    FileFormatError,
    ParameterError,
    SepdistError,
    ValidationError,
)
from .gilbert import (
    HaltCriteria,
    RunResult,
    RunState,
    StepOutcome,
    TraceRecord,
    line_search,
    preselect,
    run,
    step,
)
from .linalg import (
    DensityMatrix,
    assert_valid_density,
    contract_party,
    eig_hermitian,
    hermitize,
    hs_inner,
    hsd_sq,
    is_ppt,
    kron,
    maximally_mixed,
    min_eig_partial_transpose,
    partial_transpose,
    pure_density,
)
from .states import (
    SamplerConfig,
    StateSampler,
    bell,
    css_ghz,
    css_max_entangled,
    ghz,
    ghz_css_distance,
    ghz_css_weight,
    max_entangled,
    named_state,
    real_limit_bell,
    upb_tiles_state,
    upb_tiles_vectors,
)
from .symmetry import (
    SymmetryGroup,
    closure,
    invariance_check,
    is_separability_preserving,
    local_unitary,
    party_permutation,
    twirl,
    twirl_pure,
)

__version__ = "0.1.0"
