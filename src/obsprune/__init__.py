"""One-shot layer-wise pruning with second-order compensation and
loss-ordered channel reordering."""

from .baselines import magnitude_prune, wanda_prune
from .calibration import (
    HessianBundle,
    accumulate_hessian,
    bundle_from_hessian,
    cholesky_inverse_identity_check,
    column_norms,
    raw_hessian,
)
from .engine import (
    PruneOutcome,
    obs_saliency,
    obs_update_row,
    prune_layer,
    reconstruction_error,
    select_block_mask,
)
from .errors import (
    ConfigError,
    DimensionError,
    IndefiniteHessianError,
    NumericOverflowError,
    OracleScaleError,
    PruneError,
    SingularOracleError,
)
from .oracle import exact_masked_reconstruction, naive_obs_prune
from .reorder import (
    LossProfile,
    ReorderPlan,
    build_reorder_plan,
    importance_scores,
    loss_profile,
    prune_with_block_order,
    rose_prune_from_hessian,
    rose_prune_layer,
)
from .rtns import read_manifest, read_tensor, write_manifest, write_tensor
from .synth import gen_activations, gen_columnar, gen_uniform
from .tensors import (
    Permutation,
    PruneMask,
    SemiStructured,
    SparsityConfig,
    Unstructured,
    apply_column_permutation,
    compose_permutations,
    mask_pattern_valid,
    mask_sparsity,
)

__version__ = "0.1.0"
