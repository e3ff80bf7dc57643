"""Upper bounds on the Hilbert-Schmidt distance between a state and the separable set.

The core loop draws random pure product states, keeps the ones that can
strictly shrink the squared distance to the target, and mixes them into a
running separable approximation by exact line search.  Companion tools
extrapolate the distance limit from the logged decay, accelerate runs by
symmetrization over finite groups, and turn the final approximation into
an entanglement witness.
"""

# cli records it in run metadata (meta.json's versions).
__version__ = "0.1.0"

from .analysis import (
    ExtrapolationFit,
    PowerFit,
    Witness,
    build_witness,
    correlation,
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
    TraceRecord,
    run,
)
from .linalg import (
    DensityMatrix,
    hermitize,
    hs_inner,
    hsd_sq,
    is_ppt,
    maximally_mixed,
    partial_transpose,
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
    PermutedLocal,
    SymmetryGroup,
    closure,
    invariance_check,
    local_unitary,
    party_permutation,
    twirl,
    twirl_pure,
)

