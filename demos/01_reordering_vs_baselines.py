"""Compare pruning methods on layers with and without column-block structure.

Builds two synthetic layers — one "columnar" (a single hot block of input
channels carries 10x-scale weights) and one uniform — then prunes both with
magnitude, activation-weighted magnitude, second-order compensation, and
second-order with loss-ordered reordering, printing the relative
reconstruction error of each.  The closing text names the method with the
lowest error on the columnar layer, read from the runs, and says why the
methods without compensation beat reordering there.

Run: python3 demos/01_reordering_vs_baselines.py
"""

import textwrap

from obsprune import (
    SparsityConfig,
    checked_layer,
    gen_activations,
    gen_columnar,
    gen_uniform,
    prune_runs,
)

ROWS, COLS, BLOCK = 64, 256, 128
SPARSITY = 0.7
HOT_GAIN = 10.0
SEED = 0
LABELS = {
    "magnitude": "magnitude",
    "wanda": "act-weighted magnitude",
    "sparsegpt": "second-order",
    "rose": "second-order + reorder",
}


def run_all(name, w, acts):
    cfg = SparsityConfig(sparsity=SPARSITY, blocksize=BLOCK)
    # the activations are read once, into the layer (W, H = X.T X),
    # checked once; every method works from it
    layer = checked_layer(w, acts)
    # rose is the same engine, swept in the column order of its reorder
    # plan; it runs last, and its plan and profile head the report
    runs = list(prune_runs(layer, list(LABELS), [cfg]))
    rose = runs[-1]

    print(f"\n{name}: relative block-loss range R_rel = "
          f"{rose.profile.relative_range:.3f} "
          f"({'reordered' if rose.plan.was_reordered else 'left in place'})")
    for run in runs:
        print(f"  {LABELS[run.method]:24s} relative error "
              f"{run.outcome.relative_error:.4f}")
    return {run.method: run.outcome.relative_error for run in runs}


def main():
    acts = gen_activations(384, COLS, correlation=0.3, seed=SEED + 1)

    hot_last = gen_columnar(ROWS, COLS, BLOCK, hot_block_index=1,
                            hot_gain=HOT_GAIN, seed=SEED)
    errors = run_all("columnar layer (hot block last)", hot_last, [acts])

    flat = gen_uniform(ROWS, COLS, seed=SEED)
    run_all("uniform layer", flat, [acts])

    text = (f"On the columnar layer the gate fires, and reordering lowers the "
            f"second-order error from {errors['sparsegpt']:.4f} to "
            f"{errors['rose']:.4f}.")
    lowest = min(errors, key=errors.get)
    if lowest in ("magnitude", "wanda"):
        lower = [f"{LABELS[m]} ({e:.4f})"
                 for m, e in errors.items() if e < errors["rose"]]
        text += (f" Lower still: {', '.join(lower)}; {LABELS[lowest]} is the "
                 f"lowest. The engine prunes exactly {SPARSITY:.0%} of every "
                 f"block, so the hot block, {HOT_GAIN:g}x the rest, loses "
                 f"{SPARSITY:.0%} of its weights too, while magnitude and "
                 f"act-weighted magnitude compare weights across the layer or "
                 f"a row and spare it.")
    text += (" On the uniform layer the gate stays closed and the reordering "
             "path reduces exactly to plain second-order pruning.")
    print("\n" + textwrap.fill(text, 70, break_on_hyphens=False))


if __name__ == "__main__":
    main()
