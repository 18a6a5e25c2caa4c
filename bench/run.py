"""Run one benchmark workload and print one JSON result as the last line.

    python3 bench/run.py --workload rose-columnar --seed 0 --seconds 15 --trace 0

The library is imported from ``src/`` beside this directory, never from an
installed copy; without those sources the script exits with code 1.  BLAS
threads are pinned before numpy loads.  After ``obsprune verify`` passes,
the inputs are generated from the seed ``SETUP_REPEATS`` times and one
untimed warm-up op runs; ``setup_s`` is the median generation time plus the
warm-up.  Ops then run back to back (a closed loop, one caller) until
``--seconds`` have passed and at least ``MIN_OPS`` ops have run.  Every
op's output is checked.  ``--trace 1`` alternates untraced and traced
ops and reports per-layer metrics per traced op instead.

A full record (environment, every op's time, relative error and digest,
and with ``--trace 1`` all spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
#: ops per run at least, so that a median never rests on one sample
MIN_OPS = 2
#: BLAS threads, capped at the CPUs this process may use
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """HEAD of the repository at ``root``, read from ``.git``; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_libraries():
    """Config string and live thread count of each OpenBLAS numpy/scipy loaded."""
    import ctypes
    import glob

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            entry = {"package": pkg.__name__, "library": Path(lib).name,
                     "config": None, "threads": None}
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                    get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    if get_config is not None and get_threads is not None:
                        get_config.restype = ctypes.c_char_p
                        get_threads.restype = ctypes.c_int
                        entry["config"] = get_config().decode()
                        entry["threads"] = get_threads()
            found.append(entry)
    return found


def environment(threads: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads_pinned": threads,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
    }


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare() -> int:
    """Pin BLAS threads and import obsprune from ``src/``; returns the thread count.

    Must run before numpy is imported.  Exits with code 1 if the sources are
    missing or another copy of the library would be imported.
    """
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "obsprune" / "__init__.py").is_file():
        sys.exit(f"error: obsprune sources not found under {src}")
    sys.path.insert(0, str(src))
    import obsprune

    if Path(obsprune.__file__).resolve().parent != (src / "obsprune").resolve():
        sys.exit(f"error: imported obsprune from {obsprune.__file__}")
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = prepare()
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(threads)
    live = {e["threads"] for e in env["blas_libraries"]} - {None}
    if live - {threads}:
        sys.exit(f"error: BLAS runs {sorted(live)} threads, pinned {threads}")

    with open(BENCH / "reference.json") as f:
        reference = json.load(f)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    OUT.mkdir(parents=True, exist_ok=True)

    verify_s, (verify_ok, verify_text) = timed(workloads.oracle_gate)
    tracer = spans.Tracer() if args.trace else None

    def recording(op, traced=True):
        return tracer.recording(op) if tracer and traced else contextlib.nullcontext()

    setup_times = []
    for i in range(SETUP_REPEATS):
        inputs = None  # frees the previous inputs before the next are made
        with recording(f"setup{i}"):
            dt, inputs = timed(workload.setup, args.seed, workdir)
        setup_times.append(dt)
    # high-water marks before and after the first op, to show which one sets it
    rss_mb = {"after_setup": peak_rss_mb()}
    warmup_s, result = timed(workload.op, inputs)
    warm = workload.check(inputs, result, args.seed, reference)
    del result
    rss_mb["after_warmup"] = peak_rss_mb()
    setup_s = statistics.median(setup_times) + warmup_s

    ops = []
    start = perf_counter()
    while True:
        traced = bool(tracer) and len(ops) % 2 == 1
        record = {"i": len(ops), "traced": traced}
        try:
            with recording(len(ops), traced):
                dt, result = timed(workload.op, inputs)
            checked = workload.check(inputs, result, args.seed, reference)
            del result
            record.update(s=dt, rel_error=checked.rel_error, digest=checked.digest,
                          problems=checked.problems)
        except Exception:
            record.update(s=None, rel_error=None, digest=None,
                          problems=[traceback.format_exc()])
        ops.append(record)
        if len(ops) >= MIN_OPS and perf_counter() - start >= args.seconds:
            break

    rss_mb["end"] = peak_rss_mb()
    failed = sum(1 for o in ops if o["problems"])
    plain = [o for o in ops if not o["traced"] and o["s"] is not None]
    op_p50 = statistics.median(o["s"] for o in plain) if plain else float("nan")
    if tracer:
        traced_ops = [o for o in ops if o["traced"] and o["s"] is not None]
        metrics = spans.per_layer_metrics(
            tracer, [o["i"] for o in traced_ops],
            [f"setup{i}" for i in range(SETUP_REPEATS)])
        traced_p50 = statistics.median(o["s"] for o in traced_ops) if traced_ops else float("nan")
        metrics["trace.overhead_s"] = {"value": traced_p50 - op_p50, "unit": "s"}
        ids = {o["i"] for o in traced_ops}
        calls = sum(1 for s in tracer.spans if s.op in ids) / max(len(ids), 1)
        metrics["trace.direct_s"] = {"value": calls * tracer.call_cost(), "unit": "s"}
        tracer.dump(OUT / f"{tag}-spans.json")
    else:
        rel = [o["rel_error"] for o in plain]
        metrics = {
            "op_s.p50": {"value": op_p50, "unit": "s"},
            "weights_per_s": {"value": workload.weights_per_op() * len(plain)
                              / sum(o["s"] for o in plain) if plain else 0.0,
                              "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb["end"], "unit": "MB"},
            "rel_error": {"value": statistics.median(rel) if rel else float("nan"),
                          "unit": "ratio"},
            "ok_frac": {"value": 1.0 - failed / len(ops), "unit": "frac"},
        }

    correct = verify_ok and not warm.problems and failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "verify": {"ok": verify_ok, "s": verify_s, "output": verify_text},
        "setup": {"repeats_s": setup_times, "warmup_s": warmup_s,
                  "warmup_rel_error": warm.rel_error, "warmup_digest": warm.digest,
                  "warmup_problems": warm.problems},
        "peak_rss_mb": rss_mb,
        "ops": ops, "failed_frac": failed / len(ops), "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
    if not verify_ok:
        print(f"verify failed: {verify_text}", file=sys.stderr)
    for problem in warm.problems:
        print(f"warm-up: {problem}", file=sys.stderr)
    for o in ops:
        for problem in o["problems"]:
            print(f"op {o['i']}: {problem}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
