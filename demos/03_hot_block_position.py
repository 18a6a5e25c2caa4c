"""Why pruning order matters: sweep a hot block through every position.

The blocked second-order engine can only compensate a pruned weight with
columns that come later in the pruning order.  This script prunes the same
columnar layer eight times, each time forcing the hot (high-loss) block into
a different slot of an explicit block order, and prints the resulting final
error: the earlier the hot block is pruned, the more compensation capacity
remains and the lower the error.

Run: python3 demos/03_hot_block_position.py
"""

import numpy as np

from obsprune import (
    Permutation,
    SparsityConfig,
    bundle_from_hessian,
    checked_layer,
    gen_activations,
    gen_columnar,
    prune_layer,
)

ROWS, COLS, BLOCK = 64, 256, 32
HOT = 7
SEED = 0


def main():
    k = COLS // BLOCK
    cfg = SparsityConfig(sparsity=0.7, blocksize=BLOCK)
    w = gen_columnar(ROWS, COLS, BLOCK, HOT, hot_gain=10.0, seed=SEED)
    x = gen_activations(384, COLS, correlation=0.3, seed=SEED + 1)
    layer = checked_layer(w, [x])

    print(f"{k} blocks of {BLOCK} columns, hot block index {HOT}, "
          f"sparsity {cfg.sparsity}\n")
    print("hot-block position   final error")
    errors = []
    blocks = cfg.block_ranges(COLS)
    rest = [b for b in range(k) if b != HOT]
    for pos in range(k):
        # whole blocks in this order, the columns of each left in place
        order = rest[:pos] + [HOT] + rest[pos:]
        perm = Permutation(np.concatenate([np.arange(*blocks[b]) for b in order]))
        out = prune_layer(bundle_from_hessian(layer, perm), cfg)
        errors.append(out.final_error)
        bar = "#" * int(40 * out.final_error / max(errors[0], 1e-300) / 2)
        print(f"  {pos:2d} of {k - 1:2d}          {out.final_error:12.4e}  {bar}")

    monotone = np.all(np.diff(errors) >= 0)
    print(f"\nerror non-decreasing as the hot block moves later: {monotone}")


if __name__ == "__main__":
    main()
