"""Batch front door: prune layers, compare methods, detect columnar layers.

Subcommands
    prune    prune one layer and write pruned weights + a JSON report
    compare  run several methods over a sparsity list, write a CSV
    detect   report per-layer relative block-loss range and verdict
    verify   re-run the oracle cross-checks at small sizes

Weights and activations come from RTNS tensor files (``--weights`` /
``--acts`` manifest) or from the synthetic generators (``--synth``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import magnitude_prune, wanda_prune
from .calibration import (
    accumulate_hessian,
    bundle_from_hessian,
    column_norms,
    raw_hessian,
)
from .engine import obs_update_row, prune_layer
from .errors import ConfigError, NumericOverflowError, PruneError
from .oracle import exact_masked_reconstruction, naive_obs_prune
from .reorder import (
    importance_scores,
    loss_profile,
    prune_with_block_order,
    rose_prune_from_hessian,
)
from .rtns import (
    RtnsFormatError,
    atomic_write,
    read_manifest,
    read_tensor,
    write_json,
    write_tensor,
)
from .synth import gen_activations, gen_columnar, gen_uniform
from .tensors import SemiStructured, SparsityConfig

METHODS = ("magnitude", "wanda", "sparsegpt", "rose", "rose-ascending")

#: Seed offset separating activation draws from weight draws.
ACT_SEED_OFFSET = 1000003


def _parse_pattern(text):
    try:
        n, m = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"pattern must look like N:M, got {text!r}")
    return SemiStructured(n, m)


def _parse_sparsities(text):
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("sparsity list is empty")
    return [float(t) for t in items]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--sparsity", type=_parse_sparsities, default=None,
                   help="sparsity fraction, or comma list for compare")
    p.add_argument("--blocksize", type=int, default=None,
                   help="columns per pruning block (default 128)")
    p.add_argument("--pattern", type=_parse_pattern, default=None,
                   help="semi-structured N:M pattern; sets blocksize to M "
                        "and sparsity to (M-N)/M")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="relative-range gate for reordering (default 0.5)")
    p.add_argument("--damp", type=float, default=0.01,
                   help="Hessian dampening fraction (default 0.01)")
    p.add_argument("--weights", type=Path, default=None,
                   help="RTNS file with the layer weights")
    p.add_argument("--acts", type=Path, default=None,
                   help="JSON manifest listing activation batch files")
    p.add_argument("--synth", choices=("columnar", "uniform"), default=None,
                   help="generate weights instead of loading them")
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=256)
    p.add_argument("--hot-gain", type=float, default=10.0)
    p.add_argument("--hot-block", type=int, default=None,
                   help="hot block index for columnar synth (default: last)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=384,
                   help="synthetic calibration rows")
    p.add_argument("--correlation", type=float, default=0.3,
                   help="synthetic activation column correlation")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory for reports")


def _make_config(args) -> SparsityConfig:
    if args.pattern is not None:
        return SparsityConfig.semi_structured(
            args.pattern.n,
            args.pattern.m,
            damp_fraction=args.damp,
            columnar_threshold=args.threshold,
        )
    if not args.sparsity:
        raise SystemExit2("--sparsity is required without --pattern")
    return SparsityConfig(
        sparsity=args.sparsity[0],
        blocksize=args.blocksize if args.blocksize is not None else 128,
        damp_fraction=args.damp,
        columnar_threshold=args.threshold,
    )


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_inputs(args, config: SparsityConfig, weights=None):
    """Weights plus activation batches, from files or generators.

    ``weights`` overrides ``--weights`` with another layer's file.  The
    weights are checked here, before any Hessian work: they must be finite,
    and an n:m pattern must tile their columns.
    """
    if weights is None and args.synth is not None:
        if args.synth == "columnar":
            n_blocks = math.ceil(args.cols / config.blocksize)
            hot = args.hot_block if args.hot_block is not None else n_blocks - 1
            w = gen_columnar(
                args.rows, args.cols, config.blocksize, hot, args.hot_gain, args.seed
            )
        else:
            w = gen_uniform(args.rows, args.cols, args.seed)
        acts = [
            gen_activations(
                args.samples, args.cols, args.correlation, args.seed + ACT_SEED_OFFSET
            )
        ]
    else:
        weights = weights or args.weights
        if weights is None:
            raise SystemExit2("need --weights or --synth")
        w = read_tensor(weights)
        if args.acts is not None:
            acts = read_manifest(args.acts)
        else:
            acts = [
                gen_activations(
                    args.samples, w.shape[1], args.correlation,
                    args.seed + ACT_SEED_OFFSET,
                )
            ]
    if not np.all(np.isfinite(w)):
        raise NumericOverflowError(f"{weights or 'synthetic'} weights are not finite")
    config.block_ranges(w.shape[1])  # raises ConfigError for an untiled n:m
    return w, acts


def _run_method(method, w, raw, config):
    """Returns (outcome, plan_or_None, profile_or_None) from the raw Hessian."""
    if method == "magnitude":
        return magnitude_prune(w, config, raw), None, None
    if method == "wanda":
        return wanda_prune(w, config, raw), None, None
    if method == "sparsegpt":
        bundle = bundle_from_hessian(raw, config.damp_fraction)
        return prune_layer(w, bundle, config), None, None
    if method in ("rose", "rose-ascending"):
        return rose_prune_from_hessian(w, raw, config, descending=(method == "rose"))
    raise SystemExit2(f"unknown method {method!r}")


def _profile_for(w, raw, config):
    return loss_profile(importance_scores(w, column_norms(raw)), config)


def _config_doc(config: SparsityConfig, args) -> dict:
    pat = config.pattern
    doc = {
        "sparsity": config.sparsity,
        "blocksize": config.blocksize,
        "pattern": (f"{pat.n}:{pat.m}" if isinstance(pat, SemiStructured)
                    else "unstructured"),
        "damp_fraction": config.damp_fraction,
        "columnar_threshold": config.columnar_threshold,
        "seed": args.seed,
        "synth": args.synth,
    }
    return doc


def cmd_prune(args) -> int:
    config = _make_config(args)
    w, acts = _load_inputs(args, config)
    t0 = time.perf_counter()
    raw = raw_hessian(acts)
    if args.block_order is not None:
        outcome, plan = prune_with_block_order(w, raw, config, args.block_order)
        profile = None
    else:
        outcome, plan, profile = _run_method(args.method, w, raw, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if profile is None:
        profile = _profile_for(w, raw, config)

    args.out.mkdir(parents=True, exist_ok=True)
    weights_path = args.out / "pruned_weights.rtns"
    write_tensor(weights_path, outcome.pruned_weights)
    report = {
        "config": _config_doc(config, args),
        "method": args.method,
        "relative_error": outcome.relative_error,
        "absolute_error": outcome.final_error,
        "block_error_trajectory": list(outcome.block_error_trajectory),
        "R_rel": profile.relative_range,
        "was_reordered": bool(plan.was_reordered) if plan else False,
        "timings_ms": {"prune": wall_ms},
    }
    if plan is not None and plan.was_reordered:
        report["permutation"] = [int(i) for i in plan.permutation.forward]
    write_json(args.out / "report.json", report)
    print(f"wrote {weights_path} and {args.out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    if not args.sparsity:
        raise SystemExit2("--sparsity list is required")
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for m in methods:
        if m not in METHODS:
            raise SystemExit2(f"unknown method {m!r}")
    configs = [
        SparsityConfig(
            sparsity=sparsity,
            blocksize=args.blocksize if args.blocksize is not None else 128,
            damp_fraction=args.damp,
            columnar_threshold=args.threshold,
        )
        for sparsity in args.sparsity
    ]
    # the inputs depend on the blocksize only, which every config shares
    w, acts = _load_inputs(args, configs[0])
    raw = raw_hessian(acts)
    del acts
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for config in configs:
        profile = _profile_for(w, raw, config)
        for method in methods:
            t0 = time.perf_counter()
            outcome, plan, _ = _run_method(method, w, raw, config)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rows.append({
                "method": method,
                "sparsity": config.sparsity,
                "relative_error": outcome.relative_error,
                "r_rel": profile.relative_range,
                "was_reordered": bool(plan.was_reordered) if plan else False,
                "wall_ms": wall_ms,
            })
    out_path = args.out / "compare.csv"

    def write(f):
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    atomic_write(out_path, write, newline="")
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_detect(args) -> int:
    config = _make_config(args)
    if args.weights is not None:
        paths = [args.weights, *(args.more_weights or [])]
    elif args.synth is not None:
        paths = [None]
    else:
        raise SystemExit2("need --weights or --synth")
    layers = []
    for path in paths:
        w, acts = _load_inputs(args, config, path)
        profile = _profile_for(w, raw_hessian(acts), config)
        layers.append({
            "layer": f"synth-{args.synth}" if path is None else str(path),
            "R_rel": profile.relative_range,
            "columnar": profile.relative_range > config.columnar_threshold,
            "block_losses": list(profile.block_losses),
        })
    args.out.mkdir(parents=True, exist_ok=True)
    write_json(args.out / "detect.json", {"layers": layers})
    print(json.dumps({"layers": layers}, indent=2))
    return 0


def cmd_verify(args) -> int:
    """Oracle cross-checks at small sizes; exit 0 iff all pass."""
    rng = np.random.default_rng(args.seed)
    failures = 0

    for trial in range(20):
        n = int(rng.integers(4, 17))
        X = rng.standard_normal((2 * n, n))
        h = X.T @ X + 0.05 * np.eye(n)
        inv = np.linalg.inv(h)
        row = rng.standard_normal(n)
        q = int(rng.integers(0, n))
        kept = np.ones(n, dtype=bool)
        kept[q] = False
        got = obs_update_row(row, q, inv)
        ref = exact_masked_reconstruction(row, kept, h)
        if np.max(np.abs(got - ref)) > 1e-8:
            failures += 1
            print(f"FAIL single-column compensation, trial {trial}")

    for trial in range(10):
        n = int(rng.integers(8, 65))
        p = float(rng.choice([0.25, 0.5, 0.75]))
        X = rng.standard_normal((2 * n, n))
        W = rng.standard_normal((max(2, n // 2), n))
        config = SparsityConfig(sparsity=p, blocksize=16, damp_fraction=args.damp)
        bundle = accumulate_hessian([X], config.damp_fraction)
        fast = prune_layer(W, bundle, config)
        slow = naive_obs_prune(W, [X], config)
        if not np.array_equal(fast.mask.kept, slow.mask.kept):
            failures += 1
            print(f"FAIL mask equivalence, trial {trial}")
        denom = max(abs(slow.final_error), 1e-300)
        if abs(fast.final_error - slow.final_error) / denom > 1e-6:
            failures += 1
            print(f"FAIL error equivalence, trial {trial}")

    if failures:
        print(f"verify: {failures} failure(s)")
        return 1
    print("verify: all oracle cross-checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsprune",
        description="One-shot layer-wise pruning with second-order "
                    "compensation and loss-ordered reordering",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="prune one layer")
    p.add_argument("--method", choices=METHODS, default="rose")
    _add_common(p)
    p.add_argument("--block-order", type=lambda s: [int(x) for x in s.split(",")],
                   default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("compare", help="method x sparsity sweep to CSV")
    p.add_argument("--methods", default=None,
                   help="comma subset of " + ",".join(METHODS))
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("detect", help="columnar-layer detection")
    _add_common(p)
    p.add_argument("more_weights", nargs="*", type=Path,
                   help="additional layer weight files")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("verify", help="run oracle cross-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--damp", type=float, default=0.01)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --verify anywhere is a shorthand for the verify subcommand
    if "--verify" in argv:
        argv = ["verify"] + [a for a in argv if a != "--verify"]
    parser = build_parser()
    args = parser.parse_args(argv)
    # detect needs sparsity for the pre-pruning candidate size
    if args.command == "detect" and args.sparsity is None and args.pattern is None:
        args.sparsity = [0.7]
    try:
        return args.func(args)
    except (PruneError, RtnsFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
