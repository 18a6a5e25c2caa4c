"""One BLAS per process: every dense product outside the oracle runs on scipy's.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and an
idle OpenBLAS worker spins for a while after each call.  An op that
alternated between the two libraries ran each library's calls against the
other's spinning workers, so the library sends every dense product to
``scipy.linalg.blas``/``lapack``; only ``oracle.py``, the slow reference,
uses numpy's linear algebra.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from obsprune import (ConfigError, DimensionError, NumericOverflowError, SparsityConfig,
                      checked_layer, raw_hessian, reorder, rose_prune_layer)

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "obsprune"
#: numpy functions that run on numpy's BLAS
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg"}


def numpy_blas_uses(tree: ast.AST) -> list[str]:
    """Each use of numpy's dense products or linear algebra in ``tree``."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"line {line}: @")
        elif isinstance(node, ast.Attribute):
            if node.attr == "dot":
                found.append(f"line {line}: .dot")
            elif (node.attr in NUMPY_PRODUCTS and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                found.append(f"line {line}: np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "numpy"
        ):
            names = {a.name for a in node.names}
            if node.module.startswith("numpy.linalg") or names & NUMPY_PRODUCTS:
                found.append(f"line {line}: from {node.module} import {sorted(names)}")
        elif isinstance(node, ast.Import):
            found += [f"line {line}: import {a.name}" for a in node.names
                      if a.name.startswith("numpy.linalg")]
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracle.py"),
    ids=lambda p: p.name,
)
def test_no_numpy_blas_outside_oracle(path):
    assert numpy_blas_uses(ast.parse(path.read_text(), str(path))) == []


def test_rule_catches_every_form():
    source = """
a @ b
a @= b
a.dot(b)
np.dot(a, b)
np.matmul(a, b)
np.einsum("ij,jk", a, b)
np.inner(a, b)
np.tensordot(a, b)
np.vdot(a, b)
np.linalg.solve(a, b)
from numpy.linalg import inv
from numpy import dot
import numpy.linalg
"""
    assert len(numpy_blas_uses(ast.parse(source))) == 13
    assert numpy_blas_uses(ast.parse("np.outer(a, b)\nblas.dgemm(1.0, a, b)")) == []


@pytest.mark.parametrize("pattern", [None, (2, 4)])
@pytest.mark.parametrize(
    "method", ["prune_layer", "prune_in_order", "magnitude", "wanda"]
)
def test_zero_row_layer(method, pattern, monkeypatch):
    """A W with no rows is rejected as the layer is checked, before any factor.

    No method gets a layer to prune, whatever its pattern or column order.
    ``rose_prune_layer`` draws no activation batch for it, nor for a W with
    no columns, a non-finite W, or, under 2:4, a W of 18 columns.
    """
    n = 16
    x = np.random.default_rng(0).standard_normal((64, n))
    cfg = (SparsityConfig(0.5, 8) if pattern is None
           else SparsityConfig.semi_structured(*pattern, 8))
    called = []
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: called.append("dpotrf"))
    entry = {"prune_layer": "prune_layer", "prune_in_order": "prune_layer",
             "magnitude": "magnitude_prune", "wanda": "wanda_prune"}[method]
    monkeypatch.setattr(reorder, entry, lambda *a, **k: called.append(entry))
    with pytest.raises(DimensionError, match="a row and a column"):
        checked_layer(np.zeros((0, n)), raw_hessian([x], n))
    drawn = []

    def batches():
        for i in range(3):
            drawn.append(i)
            yield x

    nan = np.ones((4, n))
    nan[1, 2] = np.nan
    bad = [(np.zeros((0, n)), DimensionError, r"shape \(0, 16\)"),
           (np.zeros((4, 0)), DimensionError, r"shape \(4, 0\)"),
           (nan, NumericOverflowError, "weights not finite")]
    if pattern is not None:
        bad.append((np.ones((4, 18)), ConfigError, "groups of m=4"))
    for w, error, match in bad:
        with pytest.raises(error, match=match):
            rose_prune_layer(w, batches(), cfg)
    assert drawn == []
    assert called == []


#: prunes a reordered unstructured layer, a 2:4 layer and a 1024-row layer,
#: and a grid of sparsegpt, rose and rose-ascending runs on the columnar
#: layer, whose reordered runs are factored from the damped inverse
LAYERS_SCRIPT = """
import sys
import numpy as np
from obsprune import (SparsityConfig, bundle_from_hessian, checked_layer,
                      gen_activations, gen_columnar, gen_uniform, prune_layer,
                      prune_runs, raw_hessian, rose_prune_layer)
acts = [gen_activations(1024, 512, 0.3, seed) for seed in (11, 12)]
w = gen_columnar(128, 512, 128, 3, 10.0, seed=5)
rose, plan, _ = rose_prune_layer(w, acts, SparsityConfig(0.7))
assert plan.was_reordered
nm = SparsityConfig.semi_structured(2, 4)
w_nm = gen_uniform(128, 512, seed=6)
layer = checked_layer(w_nm, raw_hessian(acts, 512))
dense = prune_layer(bundle_from_hessian(layer), nm)
# 1024 rows: the column loop's 15-column dger is large enough to be threaded
w_tall = gen_uniform(1024, 128, seed=7)
tall_acts = [gen_activations(512, 128, 0.3, 13)]
tall_layer = checked_layer(w_tall, raw_hessian(tall_acts, 128))
tall = prune_layer(bundle_from_hessian(tall_layer), SparsityConfig(0.5))
grid = {}
grid_layer = checked_layer(w, raw_hessian(acts, 512))
for run in prune_runs(grid_layer, ["sparsegpt", "rose", "rose-ascending"],
                      [SparsityConfig(0.5), SparsityConfig(0.7)]):
    assert run.plan.was_reordered == run.method.startswith("rose")
    out, name = run.outcome, f"grid{run.index}"
    grid.update({f"w_{name}": w, f"{name}_weights": out.pruned_weights,
                 f"{name}_kept": out.mask.kept, f"{name}_rel": out.relative_error,
                 f"{name}_order": run.plan.permutation.forward})
np.savez(sys.argv[1], **grid, w_rose=w, w_nm=w_nm, w_tall=w_tall,
         rose_weights=rose.pruned_weights, rose_kept=rose.mask.kept,
         rose_order=plan.permutation.forward, rose_rel=rose.relative_error,
         nm_weights=dense.pruned_weights, nm_kept=dense.mask.kept,
         nm_rel=dense.relative_error,
         tall_weights=tall.pruned_weights, tall_kept=tall.mask.kept,
         tall_rel=tall.relative_error)
"""


def prune_with_threads(threads: int, path: Path):
    """Run ``LAYERS_SCRIPT`` in a fresh interpreter with ``threads`` BLAS threads.

    The thread count must be set before numpy loads, which is why the
    layers are pruned in a subprocess.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run(
        [sys.executable, "-c", LAYERS_SCRIPT, str(path)],
        env=env, check=True, timeout=300,
    )
    with np.load(path) as saved:
        return dict(saved)


def test_thread_count_contract(tmp_path):
    """Masks bit for bit across BLAS thread counts; weights and errors close."""
    one = prune_with_threads(1, tmp_path / "one.npz")
    two = prune_with_threads(2, tmp_path / "two.npz")
    layers = [key[2:] for key in one if key.startswith("w_")]
    assert len(layers) == 9  # rose, nm, tall and the 2 x 3 grid
    for layer in layers:
        if f"{layer}_order" in one:
            np.testing.assert_array_equal(one[f"{layer}_order"], two[f"{layer}_order"])
        w = one[f"w_{layer}"]
        np.testing.assert_array_equal(one[f"{layer}_kept"], two[f"{layer}_kept"])
        np.testing.assert_allclose(
            one[f"{layer}_weights"], two[f"{layer}_weights"],
            rtol=0, atol=1e-12 * np.max(np.abs(w)),
        )
        np.testing.assert_allclose(one[f"{layer}_rel"], two[f"{layer}_rel"], rtol=1e-9)
