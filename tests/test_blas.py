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

from obsprune import (
    Permutation,
    SparsityConfig,
    bundle_from_hessian,
    checked_layer,
    magnitude_prune,
    prune_layer,
    raw_hessian,
    wanda_prune,
)

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
def test_zero_row_layer(method, pattern):
    """f2py's dgemm rejects an empty output; a layer with no rows has error 0."""
    n = 16
    x = np.random.default_rng(0).standard_normal((64, n))
    raw = raw_hessian([x])
    cfg = (SparsityConfig(0.5, 8) if pattern is None
           else SparsityConfig.semi_structured(*pattern, 8))
    layer = checked_layer(np.zeros((0, n)), raw)
    if method == "prune_layer":
        out = prune_layer(bundle_from_hessian(layer, cfg.damp_fraction), cfg)
    elif method == "prune_in_order":
        # prune_layer swept in a reversed column order
        order = Permutation(np.arange(n)[::-1].copy())
        out = prune_layer(bundle_from_hessian(layer, cfg.damp_fraction, order), cfg)
    elif method == "magnitude":
        out = magnitude_prune(layer, cfg)
    else:
        out = wanda_prune(layer, cfg)
    assert out.pruned_weights.shape == out.mask.kept.shape == (0, n)
    np.testing.assert_array_equal(out.block_error_trajectory, [0.0, 0.0])
    assert out.final_error == 0.0 and out.relative_error == 0.0


#: prunes one reordered unstructured layer and one 2:4 layer, saving both
LAYERS_SCRIPT = """
import sys
import numpy as np
from obsprune import (SparsityConfig, bundle_from_hessian, checked_layer,
                      gen_activations, gen_columnar, gen_uniform, prune_layer,
                      raw_hessian, rose_prune_layer)
acts = [gen_activations(1024, 512, 0.3, seed) for seed in (11, 12)]
w = gen_columnar(128, 512, 128, 3, 10.0, seed=5)
rose, plan, _ = rose_prune_layer(w, acts, SparsityConfig(0.7))
assert plan.was_reordered
nm = SparsityConfig.semi_structured(2, 4)
w_nm = gen_uniform(128, 512, seed=6)
layer = checked_layer(w_nm, raw_hessian(acts))
dense = prune_layer(bundle_from_hessian(layer, 0.01), nm)
np.savez(sys.argv[1], w=w, w_nm=w_nm,
         rose_weights=rose.pruned_weights, rose_kept=rose.mask.kept,
         rose_order=plan.permutation.forward, rose_rel=rose.relative_error,
         nm_weights=dense.pruned_weights, nm_kept=dense.mask.kept,
         nm_rel=dense.relative_error)
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
    np.testing.assert_array_equal(one["rose_order"], two["rose_order"])
    for layer, w in (("rose", one["w"]), ("nm", one["w_nm"])):
        np.testing.assert_array_equal(one[f"{layer}_kept"], two[f"{layer}_kept"])
        np.testing.assert_allclose(
            one[f"{layer}_weights"], two[f"{layer}_weights"],
            rtol=0, atol=1e-12 * np.max(np.abs(w)),
        )
        np.testing.assert_allclose(one[f"{layer}_rel"], two[f"{layer}_rel"], rtol=1e-9)
