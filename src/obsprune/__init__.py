"""One-shot layer-wise pruning with second-order compensation and
loss-ordered channel reordering."""

from .baselines import magnitude_prune, wanda_prune
from .calibration import (
    HessianBundle,
    Layer,
    bundle_from_hessian,
    checked_layer,
    column_norms,
    importance_scores,
    raw_hessian,
)
from .engine import PruneOutcome, prune_layer, reconstruction_error
from .errors import (
    ConfigError,
    DimensionError,
    IndefiniteHessianError,
    NumericOverflowError,
    OracleScaleError,
    PruneError,
    SingularOracleError,
)
from .oracle import exact_masked_reconstruction, naive_obs_prune, obs_update_row
from .reorder import (
    METHODS,
    LossProfile,
    ReorderPlan,
    build_reorder_plan,
    loss_profile,
    prune_runs,
    rose_prune_layer,
)
from .rtns import read_manifest, read_tensor, write_manifest, write_tensor
from .synth import gen_activations, gen_columnar, gen_uniform
from .tensors import (
    Permutation,
    PruneMask,
    SemiStructured,
    SparsityConfig,
    apply_column_permutation,
)

__version__ = "0.1.0"
