"""The benchmark's workloads: inputs from a seed, one timed op, output checks.

Every op goes through obsprune's public entry points, looked up on the
module at call time so that ``spans.Tracer`` can wrap what they call.
``check`` never trusts the library's own validators: it recounts the mask,
recomputes the relative error from the returned weights and compares it
with the reference recorded for the workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from obsprune import cli, reorder, rtns, synth
from obsprune.tensors import SemiStructured, SparsityConfig

#: activation seed = workload seed + this, the split the CLI uses
ACT_SEED_OFFSET = 1000003
CORRELATION = 0.3
#: recomputed vs reported relative error; both are float64 sums
RECOMPUTE_RTOL = 1e-9
#: reported vs recorded relative error at a seed with a recorded value
REFERENCE_RTOL = 1e-6


@dataclass
class Checked:
    """What one op produced, and what is wrong with it (empty if nothing)."""

    rel_error: float
    digest: str
    problems: list[str] = field(default_factory=list)


def reference_problems(name, rel_error, seed, reference) -> list[str]:
    """Compare with the value recorded at this seed, else with the seed band."""
    recorded = reference["seeds"].get(str(seed))
    if recorded is not None:
        if not math.isclose(rel_error, recorded, rel_tol=REFERENCE_RTOL):
            return [f"{name}: rel_error {rel_error!r} != reference {recorded!r} "
                    f"at seed {seed} (rtol {REFERENCE_RTOL})"]
        return []
    lo, hi = reference["band"]
    if not lo <= rel_error <= hi:
        return [f"{name}: rel_error {rel_error!r} outside band [{lo}, {hi}]"]
    return []


def columnar_weights(rows: int, cols: int, seed: int) -> np.ndarray:
    """Columnar layer with its last 128-column block ten times hotter."""
    return synth.gen_columnar(rows, cols, blocksize=128, hot_block_index=cols // 128 - 1,
                              hot_gain=10.0, seed=seed)


@dataclass
class LayerInputs:
    weights: np.ndarray
    activations: np.ndarray
    batches: list[np.ndarray]


@dataclass(frozen=True)
class LayerWorkload:
    """``rose_prune_layer`` on one synthetic layer."""

    name: str
    rows: int
    cols: int
    samples: int
    n_batches: int
    config: SparsityConfig
    #: columnar weights (one hot block) make the reorder gate fire
    columnar: bool

    def weights_per_op(self) -> int:
        return self.rows * self.cols

    def setup(self, seed: int, workdir: Path) -> LayerInputs:
        if self.columnar:
            w = columnar_weights(self.rows, self.cols, seed)
        else:
            w = synth.gen_uniform(self.rows, self.cols, seed=seed)
        x = synth.gen_activations(self.samples, self.cols, CORRELATION,
                                  seed + ACT_SEED_OFFSET)
        return LayerInputs(w, x, np.array_split(x, self.n_batches))

    def op(self, inputs: LayerInputs):
        return reorder.rose_prune_layer(inputs.weights, inputs.batches, self.config)

    def check(self, inputs: LayerInputs, result, seed, reference) -> Checked:
        outcome, plan, _profile = result
        w, x = inputs.weights, inputs.activations
        wp = np.asarray(outcome.pruned_weights)
        kept = np.asarray(outcome.mask.kept, dtype=bool)
        rel = float(outcome.relative_error)
        checked = Checked(rel, hashlib.sha256(np.packbits(kept).tobytes()).hexdigest()[:16])
        problems = checked.problems
        if wp.shape != w.shape or kept.shape != w.shape:
            problems.append(f"shapes {wp.shape}/{kept.shape} != {w.shape}")
            return checked
        if not np.all(np.isfinite(wp)):
            problems.append("non-finite pruned weights")
        if np.any(wp[~kept] != 0.0):
            problems.append("pruned entries are not zero")
        if bool(plan.was_reordered) != self.columnar:
            problems.append(f"gate fired={plan.was_reordered} on a "
                            f"{'columnar' if self.columnar else 'uniform'} layer")

        pat = self.config.pattern
        if isinstance(pat, SemiStructured):
            # the pattern must hold in the original channel order
            groups = kept.reshape(self.rows, self.cols // pat.m, pat.m).sum(axis=2)
            if np.any(groups != pat.n):
                problems.append(f"{int(np.sum(groups != pat.n))} groups break {pat.n}:{pat.m}")
        else:
            # blocks are pruned in the plan's order, so count them there
            permuted = kept[:, np.asarray(plan.permutation.forward)]
            bs = self.config.blocksize
            for start in range(0, self.cols, bs):
                block = permuted[:, start:start + bs]
                want = int(math.floor(self.config.sparsity * block.size + 0.5))
                got = int(block.size - np.count_nonzero(block))
                if got != want:
                    problems.append(f"block at {start}: pruned {got}, expected {want}")

        diff = (w - wp) @ x.T
        ref = w @ x.T
        recomputed = float(np.sum(diff * diff) / np.sum(ref * ref))
        if not math.isclose(rel, recomputed, rel_tol=RECOMPUTE_RTOL):
            problems.append(f"reported rel_error {rel!r} != recomputed {recomputed!r}")
        problems += reference_problems(self.name, rel, seed, reference)
        return checked


@dataclass
class SweepInputs:
    weights: Path
    manifest: Path
    out: Path


@dataclass(frozen=True)
class SweepWorkload:
    """``obsprune compare`` over every method on RTNS input files."""

    name: str = "compare-sweep"
    rows: int = 256
    cols: int = 1024
    samples: int = 2048
    n_batches: int = 4
    sparsities: tuple = (0.5, 0.6, 0.7, 0.8)

    def weights_per_op(self) -> int:
        return self.rows * self.cols * len(self.sparsities) * len(cli.METHODS)

    def setup(self, seed: int, workdir: Path) -> SweepInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        weights = workdir / "weights.rtns"
        rtns.write_tensor(weights, columnar_weights(self.rows, self.cols, seed))
        x = synth.gen_activations(self.samples, self.cols, CORRELATION,
                                  seed + ACT_SEED_OFFSET)
        names = []
        for i, batch in enumerate(np.array_split(x, self.n_batches)):
            names.append(f"acts{i}.rtns")
            rtns.write_tensor(workdir / names[-1], batch, dtype="float32")
        manifest = workdir / "acts.json"
        rtns.write_manifest(manifest, names)
        return SweepInputs(weights, manifest, workdir / "out")

    def op(self, inputs: SweepInputs):
        argv = ["compare", "--weights", str(inputs.weights),
                "--acts", str(inputs.manifest),
                "--sparsity", ",".join(str(s) for s in self.sparsities),
                "--out", str(inputs.out)]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(argv)
        return code, printed.getvalue()

    def check(self, inputs: SweepInputs, result, seed, reference) -> Checked:
        code, printed = result
        csv_path = inputs.out / "compare.csv"
        if code != 0 or not csv_path.is_file():
            return Checked(math.nan, "", [f"compare exited {code}: {printed.strip()}"])
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        # removed so that the next op has to write it again
        csv_path.unlink()
        digest = hashlib.sha256("\n".join(
            f"{r['method']},{r['sparsity']},{r['relative_error']},{r['was_reordered']}"
            for r in rows).encode()).hexdigest()[:16]
        errors = [float(r["relative_error"]) for r in rows]
        checked = Checked(float(np.mean(errors)) if errors else math.nan, digest)
        problems = checked.problems
        grid = sorted((r["method"], float(r["sparsity"])) for r in rows)
        if grid != sorted(itertools.product(cli.METHODS, self.sparsities)):
            problems.append(f"CSV rows {grid} are not methods x sparsities")
            return checked
        if not all(0.0 <= e < 1.0 for e in errors):
            problems.append(f"relative errors out of [0, 1): {errors}")
        for r in rows:
            gate = float(r["r_rel"]) > 0.5
            if r["method"].startswith("rose") and (r["was_reordered"] == "True") != gate:
                problems.append(f"{r['method']}@{r['sparsity']}: reordered="
                                f"{r['was_reordered']} but R_rel={r['r_rel']}")
        problems += reference_problems(self.name, checked.rel_error, seed, reference)
        return checked


WORKLOADS = {
    w.name: w
    for w in (
        LayerWorkload("rose-columnar", rows=512, cols=2048, samples=4096,
                      n_batches=8, config=SparsityConfig(0.7), columnar=True),
        LayerWorkload("nm24-uniform", rows=256, cols=1024, samples=2048,
                      n_batches=1, config=SparsityConfig.semi_structured(2, 4),
                      columnar=False),
        SweepWorkload(),
    )
}


def oracle_gate() -> tuple[bool, str]:
    """``obsprune verify``: the oracle cross-checks, once per invocation."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = cli.main(["verify"])
    return code == 0, printed.getvalue().strip()
