"""Hardware-friendly N:M sparsity with and without channel reordering.

Prunes a columnar layer to 2:4 and 4:8 patterns (exactly N nonzeros in every
group of M weights along each row) and shows that the pattern survives the
reorder-back step: the mask is valid N:M in the original channel order.
The reorder sorts whole 128-column blocks, the default blocksize of both
patterns, and columns only inside their group of M.

Run: python3 demos/02_semi_structured.py
"""

import numpy as np

from obsprune import (
    SparsityConfig,
    gen_activations,
    gen_columnar,
    rose_prune_layer,
)

ROWS, COLS = 32, 512
SEED = 3


def main():
    acts = [gen_activations(2 * COLS, COLS, correlation=0.3, seed=SEED + 1)]
    for n, m in ((2, 4), (4, 8)):
        cfg = SparsityConfig.semi_structured(n, m)
        bs = cfg.blocksize
        w = gen_columnar(ROWS, COLS, bs, hot_block_index=COLS // bs - 1,
                         hot_gain=10.0, seed=SEED)
        out, plan, profile = rose_prune_layer(w, acts, cfg)
        groups = out.mask.kept.reshape(ROWS, COLS // m, m)
        print(f"{n}:{m} pattern")
        print(f"  R_rel = {profile.relative_range:.3f}, "
              f"reordered = {plan.was_reordered}")
        print(f"  kept per {m}-group: min {groups.sum(axis=2).min()}, "
              f"max {groups.sum(axis=2).max()} (target {n})")
        print(f"  valid in original channel order: "
              f"{bool(np.all(groups.sum(axis=2) == n))}")
        print(f"  relative error {out.relative_error:.4f}")
        print(f"  overall sparsity "
              f"{1.0 - np.mean(out.mask.kept):.3f} (target {(m - n) / m})")
        print()


if __name__ == "__main__":
    main()
