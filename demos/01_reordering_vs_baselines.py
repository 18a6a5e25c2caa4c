"""Compare pruning methods on layers with and without column-block structure.

Builds two synthetic layers — one "columnar" (a single hot block of input
channels carries 10x-scale weights) and one uniform — then prunes both with
magnitude, activation-weighted magnitude, second-order compensation, and
second-order with loss-ordered reordering, printing the relative
reconstruction error of each.

Run: python3 demos/01_reordering_vs_baselines.py
"""

import numpy as np

from obsprune import (
    SparsityConfig,
    bundle_from_hessian,
    column_norms,
    gen_activations,
    gen_columnar,
    gen_uniform,
    importance_scores,
    loss_profile,
    magnitude_prune,
    prune_layer,
    raw_hessian,
    rose_prune_from_hessian,
    wanda_prune,
)

ROWS, COLS, BLOCK = 64, 256, 128
SPARSITY = 0.7
SEED = 0


def run_all(name, w, acts):
    cfg = SparsityConfig(sparsity=SPARSITY, blocksize=BLOCK)
    # the activations are read once; every method works from H = X.T X
    h = raw_hessian(acts)
    profile = loss_profile(importance_scores(w, column_norms(h)), cfg)
    bundle = bundle_from_hessian(h, cfg.damp_fraction)

    results = {
        "magnitude": magnitude_prune(w, cfg, h),
        "act-weighted magnitude": wanda_prune(w, cfg, h),
        "second-order": prune_layer(w, bundle, cfg),
    }
    reordered, plan, _ = rose_prune_from_hessian(w, h, cfg)
    results["second-order + reorder"] = reordered

    print(f"\n{name}: relative block-loss range R_rel = "
          f"{profile.relative_range:.3f} "
          f"({'reordered' if plan.was_reordered else 'left in place'})")
    for label, out in results.items():
        print(f"  {label:24s} relative error {out.relative_error:.4f}")


def main():
    acts = gen_activations(384, COLS, correlation=0.3, seed=SEED + 1)

    hot_last = gen_columnar(ROWS, COLS, BLOCK, hot_block_index=1,
                            hot_gain=10.0, seed=SEED)
    run_all("columnar layer (hot block last)", hot_last, [acts])

    flat = gen_uniform(ROWS, COLS, seed=SEED)
    run_all("uniform layer", flat, [acts])

    print("\nOn the columnar layer the gate fires and reordering lowers the")
    print("error; on the uniform layer the gate stays closed and the")
    print("reordering path reduces exactly to plain second-order pruning.")


if __name__ == "__main__":
    main()
