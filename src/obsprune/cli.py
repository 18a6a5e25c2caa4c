"""Batch front door: prune layers, compare methods, detect columnar layers.

Subcommands
    prune    prune one layer and write pruned weights + a JSON report
    compare  run several methods over a sparsity list, write a CSV
    detect   report per-layer relative block-loss range and verdict
    verify   re-run the oracle cross-checks at small sizes

Weights and activations come from RTNS tensor files (``--weights`` /
``--acts`` manifest) or from the synthetic generators (``--synth``).  prune
and compare run every method through the library's one pipeline,
``reorder.prune_runs``; this module only reads inputs and writes reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (DAMP_FRACTION, Layer, checked_layer, column_norms,
                          importance_scores, raw_hessian)
from .errors import ConfigError, DimensionError, PruneError
from .oracle import cross_check
from .reorder import (COLUMNAR_THRESHOLD, METHODS, build_reorder_plan, check_runs,
                      loss_profile, prune_runs)
from .rtns import (
    RtnsFormatError,
    atomic_write,
    read_manifest,
    read_tensor,
    write_json,
    write_tensor,
)
from .synth import gen_activations, gen_columnar, gen_uniform
from .tensors import (BLOCKSIZE, SemiStructured, SparsityConfig, check_nonnegative,
                      finite_matrix)

#: Seed offset separating activation draws from weight draws.
ACT_SEED_OFFSET = 1000003
#: Column correlation of the synthetic activations.
ACT_CORRELATION = 0.3
#: Gain of --synth columnar's hot block over the rest.
HOT_GAIN = 10.0
#: the pre-pruning candidate sparsity of detect without --sparsity or --pattern
DETECT_SPARSITY = 0.7


def _parse_pattern(text):
    try:
        n, m = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"pattern must look like N:M, got {text!r}")
    try:
        return SemiStructured(n, m)
    except ConfigError as e:
        # argparse reports only the name of a converter's ValueError
        raise argparse.ArgumentTypeError(str(e))


def _parse_seed(text):
    # numpy's bit generators take no negative seed
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_sparsities(text):
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("sparsity list is empty")
    try:
        return [float(t) for t in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sparsity must be a number, got {text!r}")


def _add_common(p: argparse.ArgumentParser, damp: bool = True):
    """The options prune, compare and detect share; only those that factor take --damp."""
    p.add_argument("--sparsity", type=_parse_sparsities, default=None,
                   help="sparsity fraction, or comma list for compare "
                        f"(detect's default {DETECT_SPARSITY})")
    p.add_argument("--blocksize", type=int, default=None,
                   help=f"columns per pruning block (default {BLOCKSIZE})")
    p.add_argument("--pattern", type=_parse_pattern, default=None,
                   help="semi-structured N:M pattern; sets sparsity to "
                        "(M-N)/M and blocksize to the largest multiple of M "
                        f"up to {BLOCKSIZE}; masks are chosen per group of M")
    p.add_argument("--threshold", type=float, default=COLUMNAR_THRESHOLD,
                   help=f"reorder gate on the relative range (default {COLUMNAR_THRESHOLD})")
    if damp:
        p.add_argument("--damp", type=float, default=DAMP_FRACTION,
                       help=f"Hessian dampening fraction (default {DAMP_FRACTION})")
    p.add_argument("--weights", type=Path, default=None,
                   help="RTNS file with the layer weights")
    p.add_argument("--acts", type=Path, default=None,
                   help="JSON manifest listing activation batch files")
    p.add_argument("--synth", choices=("columnar", "uniform"), default=None,
                   help="generate weights instead of loading them")
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=256)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--samples", type=int, default=384,
                   help="synthetic calibration rows")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory for reports")


def _make_configs(args, default=None) -> list[SparsityConfig]:
    """One config per --sparsity value (else ``default``), or the one of --pattern."""
    if args.pattern is not None:
        if args.sparsity:
            raise ConfigError("--pattern sets the sparsity; drop --sparsity")
        pat = args.pattern
        return [SparsityConfig.semi_structured(pat.n, pat.m, args.blocksize)]
    if not args.sparsity and default is None:
        raise ConfigError("--sparsity is required without --pattern")
    blocksize = BLOCKSIZE if args.blocksize is None else args.blocksize
    return [SparsityConfig(s, blocksize) for s in args.sparsity or [default]]


def _make_config(args, default=None) -> SparsityConfig:
    """The one config of prune and detect."""
    configs = _make_configs(args, default)
    if len(configs) != 1:
        raise ConfigError(f"{args.command} takes one --sparsity value")
    return configs[0]


def _load_weights(args, config: SparsityConfig, path=None) -> np.ndarray:
    """The weights of the file ``path`` (default ``--weights``) or --synth's, checked."""
    if args.synth is not None:
        if args.synth == "columnar":
            hot = math.ceil(args.cols / config.blocksize) - 1  # the last block
            w = gen_columnar(
                args.rows, args.cols, config.blocksize, hot, HOT_GAIN, args.seed
            )
        else:
            w = gen_uniform(args.rows, args.cols, args.seed)
    else:
        path = path or args.weights
        if path is None:
            raise ConfigError("need --weights or --synth")
        w = read_tensor(path)
    return finite_matrix(w, f"{path or 'synthetic'} weights")


def _checked_weights(args, methods, configs, paths=(None,)) -> list[np.ndarray]:
    """The checked weights of each file in ``paths`` (None: --weights or --synth).

    ``--threshold`` is checked before any file is read, and every weight
    matrix, and the run list at its width (``check_runs``), before any
    activation.  ``--synth`` names no input file.  One ``--acts`` serves
    one width, so a file of another width than the first is rejected
    before the manifest is read.
    """
    check_nonnegative(args.threshold, "--threshold")
    if args.synth is not None and (
        args.weights or args.acts or getattr(args, "more_weights", None)
    ):
        raise ConfigError("--synth generates the layer and its activations; "
                          "it takes no --weights, --acts or weight files")
    # the inputs depend on the blocksize only, which every config shares
    weights = [_load_weights(args, configs[0], path) for path in paths]
    n = weights[0].shape[1]
    for path, w in zip(paths, weights):
        check_runs(w.shape[1], methods, configs, threshold=args.threshold)
        if args.acts is not None and w.shape[1] != n:
            raise DimensionError(f"{path} has {w.shape[1]} columns but {paths[0]} "
                                 f"has {n}; one --acts serves one width")
    return weights


def _activations(args, n: int):
    """The ``--acts`` batches, read lazily, or else width n's synthetic ones."""
    if args.acts is not None:
        return read_manifest(args.acts)
    return [gen_activations(args.samples, n, ACT_CORRELATION,
                            args.seed + ACT_SEED_OFFSET)]


def _load_layer(args, methods, configs) -> Layer:
    """The checked layer of --weights or --synth; ``--out`` is made once it passes.

    ``--damp`` is checked before any file is read.
    """
    check_nonnegative(args.damp, "--damp")
    [w] = _checked_weights(args, methods, configs)
    n = w.shape[1]
    layer = checked_layer(w, raw_hessian(_activations(args, n), n), args.damp)
    args.out.mkdir(parents=True, exist_ok=True)
    return layer


def _config_doc(config: SparsityConfig, args) -> dict:
    """The run's settings; detect factors nothing, so it has no ``damp_fraction``."""
    pat = config.pattern
    damp = {"damp_fraction": args.damp} if "damp" in args else {}
    return {
        "sparsity": config.sparsity,
        "blocksize": config.blocksize,
        "pattern": (f"{pat.n}:{pat.m}" if isinstance(pat, SemiStructured)
                    else "unstructured"),
        **damp,
        "columnar_threshold": args.threshold,
        "seed": args.seed,
        "synth": args.synth,
    }


def cmd_prune(args) -> int:
    config = _make_config(args)
    layer = _load_layer(args, [args.method], [config])
    [run] = prune_runs(layer, [args.method], [config], threshold=args.threshold)
    weights_path = args.out / "pruned_weights.rtns"
    write_tensor(weights_path, run.outcome.pruned_weights)
    report = {
        "config": _config_doc(config, args),
        **run.record(),
        "absolute_error": run.outcome.final_error,
        "block_error_trajectory": list(run.outcome.block_error_trajectory),
    }
    if run.plan.was_reordered:
        report["permutation"] = [int(i) for i in run.plan.permutation.forward]
    write_json(args.out / "report.json", report)
    print(f"wrote {weights_path} and {args.out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    methods = METHODS if args.methods is None else args.methods.split(",")
    configs = _make_configs(args)
    layer = _load_layer(args, methods, configs)
    # rows go in sparsity x method order, whatever order the runs finish in
    rows = [None] * (len(configs) * len(methods))
    for run in prune_runs(layer, methods, configs, threshold=args.threshold):
        rows[run.index] = run.record()
        del run  # its outcome is freed before the next run, not after it
    out_path = args.out / "compare.csv"

    def write(f):
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    atomic_write(out_path, write, newline="")
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_detect(args) -> int:
    """Score each layer from W and its width's ``column_norms``, building no H."""
    config = _make_config(args, DETECT_SPARSITY)
    paths = [p for p in (args.weights, *args.more_weights) if p is not None] or [None]
    weights = _checked_weights(args, (), [config], paths)
    norms = {}
    for n in dict.fromkeys(w.shape[1] for w in weights):
        norms[n] = column_norms(_activations(args, n), n)
    doc = {"config": _config_doc(config, args), "layers": []}
    for path, w in zip(paths, weights):
        name = f"synth-{args.synth}" if path is None else str(path)
        with np.errstate(over="ignore"):  # finite_matrix raises
            scores = importance_scores(w, norms[w.shape[1]])
        profile = loss_profile(finite_matrix(scores, f"{name} scores"), config)
        del scores
        doc["layers"].append({
            "layer": name,
            "r_rel": profile.relative_range,
            "columnar": build_reorder_plan(profile, config,
                                           threshold=args.threshold).was_reordered,
            "block_losses": list(profile.block_losses),
        })
    args.out.mkdir(parents=True, exist_ok=True)
    write_json(args.out / "detect.json", doc)
    print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args) -> int:
    """Oracle cross-checks at small sizes; exit 0 iff all pass."""
    failures = cross_check(args.seed)
    for line in failures:
        print(line)
    if failures:
        print(f"verify: {len(failures)} failure(s)")
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
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("compare", help="method x sparsity sweep to CSV")
    p.add_argument("--methods", default=None,
                   help="comma subset of " + ",".join(METHODS))
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("detect", help="columnar-layer detection")
    _add_common(p, damp=False)
    p.add_argument("more_weights", nargs="*", type=Path,
                   help="additional layer weight files")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("verify", help="run oracle cross-checks")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PruneError, RtnsFormatError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
