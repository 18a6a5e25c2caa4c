import csv
import json
import struct
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from obsprune import (
    Permutation,
    ReorderPlan,
    baselines,
    calibration,
    cli,
    engine,
    read_tensor,
    reorder,
    rtns,
    write_manifest,
    write_tensor,
)
from obsprune.cli import main
from obsprune.synth import gen_activations, gen_columnar, gen_uniform


def run(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def patch_everywhere(monkeypatch, original, replacement):
    """Replace the function ``original`` in every obsprune module that binds it."""
    for key, module in list(sys.modules.items()):
        if key == "obsprune" or key.startswith("obsprune."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def no_factoring(monkeypatch):
    """Fail the test if any code path factors a Hessian."""
    def factor(*args, **kwargs):
        raise AssertionError("the Hessian was factored")

    patch_everywhere(monkeypatch, calibration.bundle_from_hessian, factor)


def count_calls(monkeypatch, function):
    """Count the calls of ``function`` from anywhere in obsprune."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    patch_everywhere(monkeypatch, function, counted)
    return calls


def test_prune_rose_columnar_report(tmp_path):
    code = run([
        "prune", "--method", "rose", "--synth", "columnar",
        "--rows", "32", "--cols", "128", "--blocksize", "64",
        "--sparsity", "0.7", "--seed", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "rose"
    assert report["was_reordered"] is True
    assert report["r_rel"] > 0.5
    assert sorted(report["permutation"]) == list(range(128))
    assert report["block_error_trajectory"][-1] == pytest.approx(
        report["absolute_error"]
    )
    w = read_tensor(tmp_path / "pruned_weights.rtns")
    assert w.shape == (32, 128)
    zero_frac = np.mean(w == 0.0)
    assert zero_frac == pytest.approx(0.7, abs=0.01)


def test_prune_zero_sparsity_round_trip(tmp_path):
    code = run([
        "prune", "--method", "sparsegpt", "--synth", "uniform",
        "--rows", "8", "--cols", "32", "--blocksize", "16",
        "--sparsity", "0.0", "--seed", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    w = read_tensor(tmp_path / "pruned_weights.rtns")
    np.testing.assert_allclose(w, gen_uniform(8, 32, seed=1), rtol=1e-6)


def test_prune_from_files(tmp_path):
    w = gen_uniform(8, 32, seed=5)
    x = gen_activations(64, 32, 0.0, seed=6)
    wpath = tmp_path / "w.rtns"
    write_tensor(wpath, w)
    write_tensor(tmp_path / "x0.rtns", x)
    manifest = tmp_path / "acts.json"
    write_manifest(manifest, [tmp_path / "x0.rtns"])
    out = tmp_path / "out"
    code = run([
        "prune", "--method", "magnitude", "--weights", str(wpath),
        "--acts", str(manifest), "--sparsity", "0.5",
        "--blocksize", "16", "--out", str(out),
    ])
    assert code == 0
    pruned = read_tensor(out / "pruned_weights.rtns")
    assert np.count_nonzero(pruned) == 128


def test_prune_semi_structured_pattern(tmp_path):
    code = run([
        "prune", "--method", "sparsegpt", "--synth", "uniform",
        "--rows", "8", "--cols", "32", "--pattern", "2:4",
        "--seed", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["pattern"] == "2:4"
    assert report["config"]["blocksize"] == 128
    w = read_tensor(tmp_path / "pruned_weights.rtns")
    groups = (w.reshape(8, 8, 4) != 0.0).sum(axis=2)
    assert np.all(groups == 2)


def test_compare_csv_schema(tmp_path):
    code = run([
        "compare", "--methods", "magnitude,wanda,sparsegpt,rose",
        "--synth", "columnar", "--rows", "32", "--cols", "128",
        "--blocksize", "64", "--sparsity", "0.5,0.7",
        "--seed", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    assert header == ["method", "sparsity", "relative_error", "r_rel",
                      "was_reordered", "wall_ms"]
    assert len(rows) == 8
    by_key = {(r[0], r[1]): r for r in rows}
    for s in ("0.5", "0.7"):
        for m in ("magnitude", "wanda", "sparsegpt", "rose"):
            assert float(by_key[(m, s)][2]) > 0.0
            assert float(by_key[(m, s)][3]) > 0.5  # columnar fixture
        assert by_key[("rose", s)][4] == "True"  # columnar gate fired


@pytest.mark.parametrize("methods,direct,from_inverse,synth", [
    pytest.param("sparsegpt", 1, 0, "columnar", id="sparsegpt-1"),
    pytest.param("magnitude,wanda", 0, 0, "columnar", id="magnitude,wanda-0"),
    # each reordered rose run factors the Hessian in its own column order,
    # from the inverse that the channel-order factor becomes
    pytest.param("sparsegpt,rose", 1, 3, "columnar", id="sparsegpt,rose-4"),
    # no rose run reorders a uniform layer, so all share the one factor
    pytest.param("sparsegpt,rose,rose-ascending", 1, 0, "uniform",
                 id="uniform-sparsegpt,rose,rose-ascending-1"),
])
def test_compare_factors_unpermuted_hessian_once(
    tmp_path, monkeypatch, methods, direct, from_inverse, synth
):
    calls = []
    original = calibration.bundle_from_hessian
    inverted = count_calls(monkeypatch, calibration.bundle_from_inverse)

    def counted(layer, order=None):
        # --damp reaches every factor through the layer's lambda
        calls.append(layer.damp_lambda == calibration.damping(layer.raw.diagonal(), 0.02))
        return original(layer, order)

    patch_everywhere(monkeypatch, original, counted)
    code = run([
        "compare", "--methods", methods, "--synth", synth,
        "--rows", "16", "--cols", "64", "--blocksize", "16",
        "--sparsity", "0.5,0.6,0.7", "--damp", "0.02", "--out", str(tmp_path),
    ])
    assert code == 0
    assert calls == [True] * direct
    assert len(inverted) == from_inverse
    with open(tmp_path / "compare.csv", newline="") as f:
        reordered = [r["was_reordered"] for r in csv.DictReader(f)
                     if r["method"].startswith("rose")]
    assert set(reordered) <= {"True" if synth == "columnar" else "False"}


def test_compare_inverts_one_factor(tmp_path, monkeypatch):
    """One dtrtri and one dlauum; one dpotrf per column order."""
    calls = {"dpotrf": 0, "dtrtri": 0, "dlauum": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(lapack, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lapack, name, spy)
    code = run([
        "compare", "--synth", "columnar", "--rows", "16", "--cols", "64",
        "--blocksize", "16", "--sparsity", "0.5,0.6,0.7,0.8", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        reordered = sum(r["was_reordered"] == "True" for r in csv.DictReader(f))
    assert reordered == 8
    assert calls == {"dpotrf": 1 + reordered, "dtrtri": 1, "dlauum": 1}


def test_prune_report_and_compare_row_agree(tmp_path):
    """One rose run written by both writers: every record field but the time agrees."""
    layer = ["--synth", "columnar", "--rows", "32", "--cols", "128",
             "--blocksize", "32", "--sparsity", "0.7", "--seed", "2", "--out"]
    assert run(["prune", "--method", "rose", *layer, str(tmp_path / "p")]) == 0
    assert run(["compare", "--methods", "rose", *layer, str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    with open(tmp_path / "c" / "compare.csv", newline="") as f:
        [row] = csv.DictReader(f)
    assert report["was_reordered"] is True and "wall_ms" in report
    del row["wall_ms"]
    assert {key: str(report[key]) for key in row} == row


def test_out_under_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch):
    pruned = count_calls(monkeypatch, engine.prune_layer)
    (tmp_path / "file").write_text("")
    code = main(["compare", "--synth", "columnar", "--rows", "16", "--cols", "64",
                 "--blocksize", "16", "--sparsity", "0.5,0.7",
                 "--out", str(tmp_path / "file" / "out")])
    assert code == 1
    assert "Not a directory" in capsys.readouterr().err
    assert pruned == []


def test_compare_rows_keep_sparsity_by_method_order(tmp_path):
    # the reordered rose runs finish after sparsegpt's, but their rows go
    # first, as --methods lists them, with the values of the direct route
    argv = ["compare", "--methods", "rose,sparsegpt", "--synth", "columnar",
            "--rows", "32", "--cols", "128", "--blocksize", "32",
            "--sparsity", "0.5,0.7", "--seed", "4"]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["method"], r["sparsity"]) for r in rows] == [
        ("rose", "0.5"), ("sparsegpt", "0.5"), ("rose", "0.7"), ("sparsegpt", "0.7")]

    args = cli.build_parser().parse_args(argv)
    configs = cli._make_configs(args)
    layer = cli._load_layer(args, ["rose", "sparsegpt"], configs)
    scores = calibration.importance_scores(layer.w, layer.norms)
    for config, (rose, sparsegpt) in zip(configs, zip(rows[::2], rows[1::2])):
        plan = reorder.build_reorder_plan(reorder.loss_profile(scores, config), config)
        assert plan.was_reordered and rose["was_reordered"] == "True"
        direct = engine.prune_layer(calibration.bundle_from_hessian(
            layer, plan.permutation), config)
        assert float(rose["relative_error"]) == pytest.approx(direct.relative_error,
                                                              rel=1e-9, abs=0)
        in_place = engine.prune_layer(calibration.bundle_from_hessian(layer), config)
        assert float(sparsegpt["relative_error"]) == in_place.relative_error


def test_compare_repeats_keep_grid_order(tmp_path):
    # a repeated sparsity or method fills a row of its own in sparsity x
    # method order, and the repeated cells agree in every column but the time
    assert run(["compare", "--synth", "columnar", "--rows", "32", "--cols", "128",
                "--blocksize", "32", "--sparsity", "0.5,0.7,0.5",
                "--methods", "rose,sparsegpt,rose", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["method"], r["sparsity"]) for r in rows] == [
        (m, s) for s in ("0.5", "0.7", "0.5") for m in ("rose", "sparsegpt", "rose")]
    for r in rows:
        del r["wall_ms"]
    assert rows[0] == rows[2] == rows[6] == rows[8]
    assert rows[1] == rows[7]
    assert rows[3] == rows[5]


def test_compare_profiles_once_per_sparsity(tmp_path, monkeypatch):
    profiles = count_calls(monkeypatch, reorder.loss_profile)
    factors = count_calls(monkeypatch, calibration.bundle_from_hessian)
    code = run([
        "compare", "--synth", "uniform", "--rows", "16", "--cols", "64",
        "--blocksize", "16", "--sparsity", "0.5,0.6,0.7,0.8",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert len(profiles) == 4
    assert len(factors) == 1


def test_compare_honours_pattern(tmp_path):
    code = run([
        "compare", "--methods", "magnitude,sparsegpt,rose", "--synth", "uniform",
        "--rows", "8", "--cols", "32", "--pattern", "2:4", "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "compare.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["method"], r["sparsity"]) for r in rows] == [
        ("magnitude", "0.5"), ("sparsegpt", "0.5"), ("rose", "0.5")
    ]


def test_compare_rejects_pattern_with_sparsity(tmp_path, capsys, no_factoring):
    code = main([
        "compare", "--synth", "uniform", "--pattern", "2:4", "--sparsity", "0.3",
        "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "compare.csv").exists()


@pytest.mark.parametrize("methods", ["", ",", "rose,,wanda", "rose,"])
def test_compare_rejects_an_empty_method_name(tmp_path, capsys, no_factoring, methods):
    """Only a missing --methods means every method; an empty name is unknown."""
    code = main(["compare", "--synth", "uniform", "--sparsity", "0.5",
                 "--methods", methods, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: unknown method ''\n"
    assert not (tmp_path / "compare.csv").exists()


def test_compare_rejects_an_unknown_method_before_reading(tmp_path, capsys,
                                                          monkeypatch):
    built = count_calls(monkeypatch, calibration.raw_hessian)
    code = main(["compare", "--synth", "uniform", "--sparsity", "0.5",
                 "--methods", "sparsegtp", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown method 'sparsegtp'\n"
    assert built == []
    assert not (tmp_path / "compare.csv").exists()


def test_prune_pattern_honours_blocksize(tmp_path):
    code = run([
        "prune", "--method", "rose", "--synth", "columnar", "--rows", "8",
        "--cols", "256", "--pattern", "2:4", "--blocksize", "128",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["blocksize"] == 128
    assert report["config"]["pattern"] == "2:4"
    assert report["was_reordered"] is True
    assert len(report["block_error_trajectory"]) == 2
    w = read_tensor(tmp_path / "pruned_weights.rtns")
    assert np.all((w.reshape(8, 64, 4) != 0.0).sum(axis=2) == 2)


def test_detect_columnar_and_uniform(tmp_path, capsys):
    code = run([
        "detect", "--synth", "columnar", "--rows", "32", "--cols", "128",
        "--blocksize", "64", "--seed", "8", "--out", str(tmp_path / "a"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "a" / "detect.json").read_text())
    assert doc["layers"][0]["columnar"] is True
    assert doc["layers"][0]["r_rel"] > 0.5

    code = run([
        "detect", "--synth", "uniform", "--rows", "32", "--cols", "128",
        "--blocksize", "64", "--seed", "8", "--out", str(tmp_path / "b"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "b" / "detect.json").read_text())
    assert doc["layers"][0]["columnar"] is False


@pytest.mark.parametrize("cols,blocksize", [(128, 64), (256, 64), (256, 128)])
def test_synth_columnar_hot_block_is_last(tmp_path, cols, blocksize):
    assert run(["detect", "--synth", "columnar", "--rows", "16", "--cols", str(cols),
                "--blocksize", str(blocksize), "--out", str(tmp_path)]) == 0
    [doc] = json.loads((tmp_path / "detect.json").read_text())["layers"]
    assert np.argmax(doc["block_losses"]) == cols // blocksize - 1


def test_detect_verdict_is_the_rose_plan(tmp_path):
    """detect's verdict and r_rel are prune --method rose's, on either side of r_rel.

    From --synth, and from a manifest of 3 float32 batches on which dsyrk's
    diagonal differs from the streamed squares in the last bit of some
    columns, enough to move r_rel at p = 0.6: ``raw_hessian`` puts the
    streamed squares on H's diagonal, so the root of it is detect's norms.
    """
    synth = ["--synth", "columnar", "--rows", "16", "--cols", "64",
             "--blocksize", "16", "--sparsity", "0.7", "--seed", "3"]
    # --weights, --acts and --blocksize of 32 x 256 weights and 3 batches of 128 rows
    files = [*write_sweep(tmp_path / "files", 3)[1:7], "--sparsity", "0.6"]
    acts = tmp_path / "files" / "acts.json"
    streamed = calibration.column_norms(rtns.read_manifest(acts), 256)
    from_h = np.sqrt(calibration.raw_hessian(rtns.read_manifest(acts), 256).diagonal())
    assert np.array_equal(streamed, from_h)
    for name, layer in [("synth", synth), ("files", files)]:
        assert run(["detect", *layer, "--out", str(tmp_path / name)]) == 0
        [doc] = json.loads((tmp_path / name / "detect.json").read_text())["layers"]
        r_rel = doc["r_rel"]
        for threshold, columnar in [(np.nextafter(r_rel, 0.0), True), (r_rel, False),
                                    (np.nextafter(r_rel, np.inf), False)]:
            out = tmp_path / name / repr(threshold)
            flags = [*layer, "--threshold", repr(float(threshold)), "--out", str(out)]
            assert run(["detect", *flags]) == 0
            assert run(["prune", "--method", "rose", *flags]) == 0
            detected = json.loads((out / "detect.json").read_text())
            [doc] = detected["layers"]
            report = json.loads((out / "report.json").read_text())
            assert doc["r_rel"] == report["r_rel"] == r_rel
            assert doc["columnar"] is report["was_reordered"] is columnar
            # detect factors nothing, so its config has no damp_fraction
            assert "damp_fraction" not in detected["config"]
            del report["config"]["damp_fraction"]
            assert detected["config"] == report["config"]
            assert report["config"]["columnar_threshold"] == float(threshold)


def test_detect_builds_no_hessian(tmp_path, monkeypatch):
    """detect at 512 x 2048 from 8 float32 batches holds no n x n array.

    Its peak is at most W, its scores, one float32 and one float64 batch
    and 2 MiB; no H is built, checked or factored.  Measured: 20.1 MiB;
    when detect built each layer through ``checked_layer``, 52.0 MiB.
    """
    rows, n, samples = 512, 2048, 4096
    write_tensor(tmp_path / "w.rtns", gen_columnar(rows, n, 128, 15, 10.0, seed=0))
    names = []
    for i, batch in enumerate(np.array_split(gen_activations(samples, n, 0.3, seed=1), 8)):
        names.append(f"x{i}.rtns")
        write_tensor(tmp_path / names[-1], batch, dtype="float32")
    write_manifest(tmp_path / "acts.json", names)
    del batch
    calls = [count_calls(monkeypatch, f)
             for f in (calibration.raw_hessian, calibration.checked_layer)]
    for module, name in [(calibration.blas, "dsyrk"), (calibration.lapack, "dpotrf")]:
        calls.append([])
        monkeypatch.setattr(module, name, lambda *a, _calls=calls[-1], **k: _calls.append(1))
    tracemalloc.start()
    try:
        assert main(["detect", "--weights", str(tmp_path / "w.rtns"),
                     "--acts", str(tmp_path / "acts.json"), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [[]] * 4
    batch = samples // 8 * n
    assert peak <= 8 * rows * n * 2 + (4 + 8) * batch + 2**21


def test_detect_overflowing_score_exit_1(tmp_path, capsys):
    """A score |w| * ||x|| that overflows fails, with one line, before any output.

    A weight of 1e200 overflows only the dense energy, which prune rejects
    and detect, which does not compute it, gives a verdict on.
    """
    argv = write_layer_files(tmp_path)
    w = read_tensor(tmp_path / "w.rtns")
    w[3, 5] = 1e200
    write_tensor(tmp_path / "w.rtns", w)
    assert main(["prune", "--sparsity", "0.5", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: dense output energy inf")
    assert main(["detect", *argv[:-2], "--out", str(tmp_path / "energy")]) == 0
    [doc] = json.loads((tmp_path / "energy" / "detect.json").read_text())["layers"]
    assert np.isfinite(doc["r_rel"])
    w[3, 5] = 1e308
    write_tensor(tmp_path / "w.rtns", w)
    capsys.readouterr()
    assert main(["detect", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'w.rtns'} scores not finite\n")
    assert not (tmp_path / "out").exists()


def test_detect_default_sparsity(tmp_path, capsys):
    """Without --sparsity or --pattern, detect pre-prunes at 0.7 and records it."""
    layer = ["--synth", "columnar", "--rows", "16", "--cols", "64", "--blocksize", "16"]
    docs = {}
    for name, flags in [("default", []), ("explicit", ["--sparsity", "0.7"]),
                        ("pattern", ["--pattern", "2:4"])]:
        assert run(["detect", *layer, *flags, "--out", str(tmp_path / name)]) == 0
        docs[name] = json.loads((tmp_path / name / "detect.json").read_text())
    assert docs["default"] == docs["explicit"]
    assert docs["default"]["config"]["sparsity"] == 0.7
    assert docs["pattern"]["config"]["sparsity"] == 0.5
    assert docs["pattern"]["config"]["pattern"] == "2:4"
    capsys.readouterr()
    assert run(["detect", "--help"]) == 0
    assert "(detect's default 0.7)" in " ".join(capsys.readouterr().out.split())


def test_detect_multiple_weight_files(tmp_path):
    for i, name in enumerate(("l0.rtns", "l1.rtns")):
        write_tensor(tmp_path / name, gen_uniform(8, 32, seed=i))
    code = run([
        "detect", "--weights", str(tmp_path / "l0.rtns"),
        str(tmp_path / "l1.rtns"), "--blocksize", "16",
        "--sparsity", "0.7", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "detect.json").read_text())
    assert len(doc["layers"]) == 2


def test_detect_synthesizes_activations_per_width(tmp_path):
    """Without --acts, a 64- and a 128-wide file each get their own synthetic H."""
    paths = []
    for i, cols in enumerate((64, 128)):
        paths.append(str(tmp_path / f"l{i}.rtns"))
        write_tensor(paths[-1], gen_uniform(8, cols, seed=i))
    flags = ["--sparsity", "0.5", "--blocksize", "16"]
    assert run(["detect", *paths, *flags, "--out", str(tmp_path / "both")]) == 0
    both = json.loads((tmp_path / "both" / "detect.json").read_text())["layers"]
    assert [layer["layer"] for layer in both] == paths
    # each layer reports what it reports when it is detected alone
    for i, (path, layer) in enumerate(zip(paths, both)):
        out = tmp_path / f"alone{i}"
        assert run(["detect", path, *flags, "--out", str(out)]) == 0
        assert json.loads((out / "detect.json").read_text())["layers"] == [layer]


def write_layers(tmp_path, count, bad=None):
    """``detect`` flags for ``count`` weight files of one width and one manifest.

    The file at index ``bad`` holds a NaN.
    """
    paths = []
    for i in range(count):
        w = gen_uniform(8, 32, seed=i)
        if i == bad:
            w[1, 1] = np.nan
        paths.append(str(tmp_path / f"l{i}.rtns"))
        write_tensor(paths[-1], w)
    x = gen_activations(64, 32, 0.3, seed=9)
    for i, batch in enumerate(np.array_split(x, 2)):
        write_tensor(tmp_path / f"x{i}.rtns", batch)
    write_manifest(tmp_path / "acts.json", [tmp_path / "x0.rtns", tmp_path / "x1.rtns"])
    return ["detect", "--weights", *paths, "--acts", str(tmp_path / "acts.json"),
            "--blocksize", "16"]


def test_detect_weight_files_given_only_as_arguments(tmp_path):
    """``detect a.rtns b.rtns`` reads both files, as ``--weights a.rtns b.rtns`` does."""
    argv = write_layers(tmp_path, 2)
    named = tmp_path / "named"
    positional = tmp_path / "positional"
    assert run([*argv, "--out", str(named)]) == 0
    assert run(["detect", *argv[2:], "--out", str(positional)]) == 0
    assert ((positional / "detect.json").read_text()
            == (named / "detect.json").read_text())


def test_detect_reads_shared_activations_once(tmp_path, monkeypatch):
    """Three weight files share one --acts: one manifest read, one pass, no H."""
    argv = write_layers(tmp_path, 3)
    alone = []
    for i, path in enumerate(argv[2:5]):
        out = tmp_path / f"alone{i}"
        assert run([*argv[:2], path, *argv[5:], "--out", str(out)]) == 0
        alone += json.loads((out / "detect.json").read_text())["layers"]
    manifests = count_calls(monkeypatch, cli.read_manifest)
    passes = count_calls(monkeypatch, cli.column_norms)
    hessians = count_calls(monkeypatch, cli.raw_hessian)
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert len(manifests) == len(passes) == 1 and hessians == []
    assert json.loads((tmp_path / "detect.json").read_text())["layers"] == alone


@pytest.mark.parametrize("bad", [0, 2])
def test_detect_checks_every_weight_file_before_activations(
    tmp_path, capsys, monkeypatch, bad
):
    def read(*args, **kwargs):
        raise AssertionError("activations read before every weight file was checked")

    monkeypatch.setattr(cli, "read_manifest", read)
    out = tmp_path / "out"
    assert main([*write_layers(tmp_path, 3, bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"l{bad}.rtns weights not finite" in err
    assert not out.exists()


def test_detect_rejects_a_second_width(tmp_path, capsys, monkeypatch):
    """Files of 64 and 128 columns on one manifest: a width error before any read."""
    paths = []
    for i, cols in enumerate((64, 128)):
        paths.append(str(tmp_path / f"l{i}.rtns"))
        write_tensor(paths[-1], gen_uniform(8, cols, seed=i))
    write_tensor(tmp_path / "x.rtns", gen_activations(128, 64, 0.3, seed=9))
    write_manifest(tmp_path / "acts.json", [tmp_path / "x.rtns"])
    manifests = count_calls(monkeypatch, cli.read_manifest)
    out = tmp_path / "out"
    assert main(["detect", *paths, "--acts", str(tmp_path / "acts.json"),
                 "--blocksize", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {paths[1]} has 128 columns but {paths[0]} has 64; "
                   "one --acts serves one width\n")
    assert manifests == []
    assert not out.exists()


def test_compare_checks_and_derives_the_layer_once(tmp_path, monkeypatch):
    """One compare op over compare-sweep's shapes builds one layer.

    256 x 1024 columnar weights, 2,048 samples in 4 float32 batches, every
    method at 4 sparsities: ``error_prefix`` runs once on W, for the dense
    energy in ``checked_layer``, and once for each of the 8 baseline runs.
    """
    w = gen_columnar(256, 1024, 128, 7, 10.0, seed=0)
    write_tensor(tmp_path / "w.rtns", w)
    x = gen_activations(2048, 1024, 0.3, seed=1000003)
    names = []
    for i, batch in enumerate(np.array_split(x, 4)):
        names.append(f"x{i}.rtns")
        write_tensor(tmp_path / names[-1], batch, dtype="float32")
    write_manifest(tmp_path / "acts.json", names)

    layers = []
    original = calibration.checked_layer

    def checked(w, raw, damp_fraction):
        layers.append(original(w, raw, damp_fraction))
        return layers[-1]

    patch_everywhere(monkeypatch, original, checked)
    operands = []
    kernel = calibration.error_prefix

    def spy(d, hessian):
        operands.append(d)
        return kernel(d, hessian)

    patch_everywhere(monkeypatch, kernel, spy)
    code = run(["compare", "--weights", str(tmp_path / "w.rtns"),
                "--acts", str(tmp_path / "acts.json"),
                "--sparsity", "0.5,0.6,0.7,0.8", "--out", str(tmp_path / "out")])
    assert code == 0
    [layer] = layers
    assert len(operands) == 9
    assert operands[0] is layer.w
    with open(tmp_path / "out" / "compare.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 20


def write_sweep(tmp_path, batches, rows=128, cols=256):
    """compare flags for columnar weights and ``batches`` float32 files of ``rows`` each."""
    tmp_path.mkdir(exist_ok=True)
    write_tensor(tmp_path / "w.rtns", gen_columnar(32, cols, 64, 3, 10.0, seed=0))
    x = gen_activations(batches * rows, cols, 0.3, seed=1)
    names = []
    for i in range(batches):
        names.append(tmp_path / f"x{i}.rtns")
        write_tensor(names[-1], x[i * rows:(i + 1) * rows], dtype="float32")
    write_manifest(tmp_path / "acts.json", names)
    return ["compare", "--weights", str(tmp_path / "w.rtns"),
            "--acts", str(tmp_path / "acts.json"), "--blocksize", "64",
            "--out", str(tmp_path / "out")]


def test_compare_holds_one_outcome_at_a_time(tmp_path, monkeypatch):
    """When any run starts, every earlier run's outcome is already freed."""
    outcomes = []
    for name in ("prune_layer", "magnitude_prune", "wanda_prune"):
        def held_alone(*args, _run=getattr(reorder, name), **kwargs):
            assert all(ref() is None for ref in outcomes), "an earlier outcome is alive"
            outcome = _run(*args, **kwargs)
            outcomes.append(weakref.ref(outcome))
            return outcome

        monkeypatch.setattr(reorder, name, held_alone)
    assert run([*write_sweep(tmp_path, 2), "--sparsity", "0.5,0.7"]) == 0
    assert len(outcomes) == 10
    with open(tmp_path / "out" / "compare.csv", newline="") as f:
        assert sum(r["was_reordered"] == "True" for r in csv.DictReader(f)) == 4


def test_compare_peak_does_not_grow_with_the_batch_count(tmp_path):
    """16 batches cost at most one float64 batch more than one batch of their shape.

    The 16 batches, 4 MiB as float64, outweigh H and the damped inverse
    (1 MiB); read as a list before H was built, they set compare's peak.
    """
    peaks = []
    for count in (1, 16):
        argv = write_sweep(tmp_path / str(count), count)
        tracemalloc.start()
        try:
            assert main([*argv, "--sparsity", "0.5,0.7"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, sixteen = peaks
    assert sixteen <= one + 8 * 128 * 256 + 2**16


def test_compare_missing_third_batch_named_before_any_read(tmp_path, capsys,
                                                           monkeypatch):
    argv = write_sweep(tmp_path, 3)
    (tmp_path / "x2.rtns").unlink()

    def read(path):
        raise AssertionError("a batch was read")

    # the weights are read through cli's own name, the batches through rtns'
    monkeypatch.setattr(rtns, "read_tensor", read)
    assert main([*argv, "--sparsity", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"batch 2 {tmp_path / 'x2.rtns'}" in err


def test_compare_corrupt_third_batch_named_after_two_are_added(tmp_path, capsys,
                                                               monkeypatch):
    """Each batch is read only once the one before it is in H; none is factored."""
    argv = write_sweep(tmp_path, 3)
    bad = tmp_path / "x2.rtns"
    bad.write_bytes(b"NOPE" + bad.read_bytes()[4:])
    events = []
    read, syrk = rtns.read_tensor, calibration.blas.dsyrk

    def reading(path):
        events.append("read")
        return read(path)

    def adding(*args, **kwargs):
        events.append("add")
        return syrk(*args, **kwargs)

    def factored(*args, **kwargs):
        raise AssertionError("a Hessian was factored")

    monkeypatch.setattr(rtns, "read_tensor", reading)
    monkeypatch.setattr(calibration.blas, "dsyrk", adding)
    monkeypatch.setattr(calibration.lapack, "dpotrf", factored)
    assert main([*argv, "--sparsity", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: bad magic\n"
    assert events == ["read", "add", "read", "add", "read"]


def test_verify_subcommand_passes():
    assert run(["verify", "--seed", "0"]) == 0


def test_verify_takes_no_damping(capsys):
    # the oracle cross-checks run at the default damping only
    assert run(["verify", "--damp", "0.01"]) == 2
    assert "unrecognized arguments: --damp 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1"],
    ["prune", "--synth", "uniform", "--sparsity", "0.5", "--seed", "-1"],
    ["prune", "--synth", "uniform", "--sparsity", "0.5", "--seed", "1.5"],
])
def test_bad_seed_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "argument --seed: seed must be a non-negative integer" in err


@pytest.mark.parametrize("command", ["prune", "compare"])
@pytest.mark.parametrize("sparsity", ["abc", "0.5,x"])
def test_non_numeric_sparsity_is_a_usage_error(capsys, command, sparsity):
    assert run([command, "--synth", "uniform", "--sparsity", sparsity]) == 2
    err = capsys.readouterr().err
    assert f"argument --sparsity: sparsity must be a number, got {sparsity!r}" in err


def test_missing_inputs_exit_2():
    assert run(["prune", "--method", "rose", "--sparsity", "0.5"]) == 2


def test_empty_sparsity_list_rejected(capsys):
    code = run(["compare", "--synth", "uniform", "--sparsity", ","])
    assert code == 2


def test_bad_pattern_rejected():
    code = run(["prune", "--synth", "uniform", "--pattern", "banana"])
    assert code == 2


def test_pattern_reason_reported(capsys):
    assert run(["prune", "--synth", "uniform", "--pattern", "4:2"]) == 2
    assert "argument --pattern: need 0 < n < m, got 4:2" in capsys.readouterr().err


def test_overflowing_damping_exit_1(tmp_path, capsys):
    """A finite --damp whose lambda overflows fails before any factoring."""
    code = main(["prune", "--synth", "uniform", "--sparsity", "0.5", "--rows", "4",
                 "--cols", "8", "--damp", "1e308", "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: damping lambda = inf") and err.count("\n") == 1


def write_layer_files(tmp_path):
    """A 16 x 64 weight file and a one-batch manifest; returns their argv."""
    write_tensor(tmp_path / "w.rtns", gen_columnar(16, 64, 16, 2, 10.0, seed=8))
    write_tensor(tmp_path / "x.rtns", gen_activations(128, 64, 0.3, seed=9))
    write_manifest(tmp_path / "acts.json", [tmp_path / "x.rtns"])
    return ["--weights", str(tmp_path / "w.rtns"), "--acts", str(tmp_path / "acts.json"),
            "--blocksize", "16", "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("damp", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["prune", "--sparsity", "0.5"], ["compare", "--sparsity", "0.5,0.7"], ["detect"]],
    ids=["prune", "compare", "detect"])
def test_bad_damping_exit_2_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                    command, damp):
    argv = write_layer_files(tmp_path)
    read = count_calls(monkeypatch, rtns.read_tensor)
    assert run([*command, *argv, "--damp", damp]) == 2
    err = capsys.readouterr().err
    if command == ["detect"]:
        # detect factors nothing, so it takes no damping
        assert "unrecognized arguments: --damp" in err
    else:
        assert err == f"error: --damp must be finite and >= 0, got {float(damp)}\n"
    assert read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["prune", "--sparsity", "0.5"], ["compare", "--sparsity", "0.5,0.7"], ["detect"]],
    ids=["prune", "compare", "detect"])
def test_bad_threshold_exit_2_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                      command, threshold):
    """The one --threshold is checked before a weight is read or a batch drawn."""
    argv = write_layer_files(tmp_path)
    read = count_calls(monkeypatch, rtns.read_tensor)
    drawn = []

    def manifest(path):
        for batch in rtns.read_manifest(path):
            drawn.append(1)
            yield batch

    monkeypatch.setattr(cli, "read_manifest", manifest)
    assert main([*command, *argv, "--threshold", threshold]) == 2
    assert capsys.readouterr().err == (
        f"error: --threshold must be finite and >= 0, got {float(threshold)}\n")
    assert read == drawn == []
    assert not (tmp_path / "out").exists()
    # the counting reader is the one the CLI draws its batches through
    assert main([*command, *argv]) == 0
    assert len(drawn) == 1


@pytest.mark.parametrize("command", ["prune", "compare"])
def test_sparsity_required_without_pattern(tmp_path, capsys, monkeypatch, command):
    """Only detect has a default sparsity: the others exit 2 before any read."""
    argv = write_layer_files(tmp_path)
    read = count_calls(monkeypatch, rtns.read_tensor)
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == "error: --sparsity is required without --pattern\n"
    assert read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    *(["prune", "--method", method, "--sparsity", "0.5"] for method in cli.METHODS),
    ["compare", "--sparsity", "0.5,0.7"], ["detect"]],
    ids=[*(f"prune-{method}" for method in cli.METHODS), "compare", "detect"])
def test_overflowing_damping_exit_1_before_any_run(tmp_path, capsys, monkeypatch,
                                                   command):
    """lambda overflows before any method, score or output file.

    detect factors nothing, so it takes no damping: its --damp is a usage
    error.
    """
    argv = write_layer_files(tmp_path)
    started = [count_calls(monkeypatch, f) for f in (
        baselines.magnitude_prune, baselines.wanda_prune, reorder.loss_profile,
        calibration.importance_scores, engine.prune_layer)]
    detect = command == ["detect"]
    assert run([*command, *argv, "--damp", "1e308"]) == (2 if detect else 1)
    out, err = capsys.readouterr()
    assert out == ""
    assert ("unrecognized arguments: --damp" in err if detect
            else err.startswith("error: damping lambda = inf"))
    assert started == [[]] * 5
    assert not (tmp_path / "out").exists()


def test_overflowing_saliency_exit_1(tmp_path, capsys):
    """A finite lambda whose saliencies w**2 / [H^-1]_qq overflow fails cleanly."""
    code = main(["prune", "--synth", "uniform", "--sparsity", "0.5", "--rows", "16",
                 "--cols", "64", "--damp", "1e305", "--out", str(tmp_path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: saliency") and err.count("\n") == 1


def test_overflowing_inverse_diagonal_exit_1(tmp_path, capsys):
    """X * 2**-513 makes a dead channel's OBS denominator overflow: one typed line."""
    rng = np.random.default_rng(43)
    x = rng.standard_normal((256, 64)) * 2.0**-513
    x[:, 5] = 0.0
    write_tensor(tmp_path / "w.rtns", gen_columnar(16, 64, 16, 2, 10.0, seed=43))
    write_tensor(tmp_path / "x.rtns", x)
    write_manifest(tmp_path / "acts.json", [tmp_path / "x.rtns"])
    code = main(["prune", "--weights", str(tmp_path / "w.rtns"), "--acts",
                 str(tmp_path / "acts.json"), "--sparsity", "0.5", "--blocksize", "16",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: inverse Hessian diagonal overflows at channel 5")
    assert err.count("\n") == 1


def test_unallocatable_layer_exit_1(tmp_path, capsys):
    """A 71 PiB weight matrix fails to allocate at once, without a traceback."""
    code = main(["prune", "--synth", "uniform", "--sparsity", "0.5",
                 "--rows", "100000000", "--cols", "100000000", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corrupt_weights_file_exit_1(tmp_path):
    bad = tmp_path / "bad.rtns"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    code = run([
        "prune", "--method", "magnitude", "--weights", str(bad),
        "--sparsity", "0.5", "--out", str(tmp_path),
    ])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--sparsity", "1.5"],
    ["--sparsity", "nan"],
    ["--sparsity", "0.5", "--blocksize", "0"],
    ["--sparsity", "0.5", "--damp", "nan"],
    ["--pattern", "2:4", "--cols", "250"],
    ["--sparsity", "-0.1"],
    # an n:m block must hold whole groups of m columns
    ["--pattern", "2:4", "--blocksize", "6"],
    ["--sparsity", "0.5", "--rows", "-1"],
    ["--sparsity", "0.5", "--rows", "0"],
    ["--sparsity", "0.5", "--cols", "0"],
    ["--sparsity", "0.5", "--samples", "0"],
    # shapes whose float64 byte count numpy cannot even size
    ["--sparsity", "0.5", "--rows", "100000000000", "--cols", "100000000000"],
    ["--sparsity", "0.5", "--samples", "1000000000000000000"],
    ["--sparsity", "0.5", "--threshold", "nan"],
    # prune takes one sparsity, and --pattern fixes it
    ["--sparsity", "0.5,0.9"],
    ["--pattern", "2:4", "--sparsity", "0.5"],
    # --synth generates the layer, so an input file named beside it is
    # rejected before it is read (none of these files exist)
    ["--sparsity", "0.5", "--weights", "w.rtns"],
    ["--sparsity", "0.5", "--acts", "a.json"],
    ["detect", "--synth", "columnar", "extra.rtns"],
    # the library rejects an unknown method before any run
    ["compare", "--synth", "uniform", "--sparsity", "0.5",
     "--methods", "magnitude,sparsegtp"],
    # infinite damping would prune with no compensation at all
    ["--sparsity", "0.5", "--damp", "inf"],
])
def test_bad_config_exit_2(tmp_path, capsys, no_factoring, flags):
    # a case that names its own subcommand replaces the prune prefix
    argv = (flags if flags[0] in ("compare", "detect")
            else ["prune", "--synth", "uniform", *flags])
    code = main([*argv, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_group_splitting_order_exit_2(tmp_path, capsys, monkeypatch):
    """An order that splits an n:m group fails in prune_layer, before the sweep."""
    split = ReorderPlan(Permutation([0, 1, 4, 5, 2, 3, 6, 7, *range(8, 16)]), True)
    monkeypatch.setattr(reorder, "build_reorder_plan",
                        lambda profile, config, *, threshold, descending: split)

    def sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(engine, "select_block_mask", sweep)
    code = main(["prune", "--method", "rose", "--synth", "uniform", "--pattern", "2:4",
                 "--rows", "4", "--cols", "16", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n:m" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def write_bad_layer(tmp_path, fault):
    """Flags loading a layer whose input is spoiled by ``fault``.

    Every fault writes weights and one activation batch to disk.
    """
    w = gen_uniform(8, 32, seed=0)
    x = gen_activations(64, 32, 0.0, seed=1)
    if fault == "zero-cols":
        w, x = np.zeros((4, 0)), np.zeros((16, 0))
    if fault == "zero-rows":
        w = np.zeros((0, 32))
    if fault == "acts-cols-mismatch":
        x = x[:, :24]
    if fault == "acts-one-dim":
        x = x[0]
    if fault == "acts-wide":
        # an H this wide would take 128 MB
        x = gen_activations(2, 4096, 0.0, seed=1)
    if fault == "one-dim-weights":
        w = w[0]
    if fault == "nan-activation":
        x[3, 5] = np.nan
    if fault == "inf-weight":
        w[2, 7] = np.inf
    if fault == "huge-weight":
        # finite, but the dense output energy overflows
        w[2, 7] = 1e200
    wpath = tmp_path / "w.rtns"
    write_tensor(wpath, w)
    write_tensor(tmp_path / "x.rtns", x)
    if fault == "huge-dims":
        raw = wpath.read_bytes()
        wpath.write_bytes(raw[:8] + struct.pack("<QQ", 2**62, 2**62) + raw[24:])
    if fault == "trailing-bytes":
        wpath.write_bytes(wpath.read_bytes() + b"\x00" * 4)
    write_manifest(tmp_path / "acts.json", [tmp_path / "x.rtns"])
    manifests = {
        "manifest-not-json": '{"batches": ["x.rtns"',
        "manifest-not-object": '["x.rtns"]',
        "manifest-entry-not-string": '{"batches": ["x.rtns", 7]}',
    }
    if fault in manifests:
        (tmp_path / "acts.json").write_text(manifests[fault])
    # sparsegpt factors H before anything else reads the activations
    return ["--method", "sparsegpt", "--weights", str(wpath),
            "--acts", str(tmp_path / "acts.json")]


def assert_rejected(tmp_path, capsys, fault, code):
    out = tmp_path / "out"
    got = main([
        "prune", *write_bad_layer(tmp_path, fault), "--sparsity", "0.5",
        "--blocksize", "16", "--out", str(out),
    ])
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "report.json").exists()
    return err


@pytest.mark.parametrize(
    "fault",
    ["nan-activation", "inf-weight", "huge-dims", "trailing-bytes", "acts-cols-mismatch",
     "one-dim-weights", "huge-weight", "acts-one-dim", "acts-wide", "zero-cols",
     "zero-rows"],
)
def test_bad_input_exit_1(tmp_path, capsys, monkeypatch, no_factoring, fault):
    if fault.startswith("acts-"):
        # raw_hessian rejects a batch of the wrong shape before adding it to H
        def accumulated(*args, **kwargs):
            raise AssertionError("a batch was accumulated")

        monkeypatch.setattr(calibration.blas, "dsyrk", accumulated)
    err = assert_rejected(tmp_path, capsys, fault, 1)
    if fault.startswith("acts-"):
        assert "activation batch 0" in err


@pytest.mark.parametrize(
    "fault",
    ["manifest-not-json", "manifest-not-object", "manifest-entry-not-string"],
)
def test_malformed_manifest_exit_1(tmp_path, capsys, no_factoring, fault):
    assert_rejected(tmp_path, capsys, fault, 1)


def test_untiled_weight_file_exit_2(tmp_path, capsys, monkeypatch, no_factoring):
    """18 columns under 2:4 fail once the weight file is read, before any batch file."""
    write_tensor(tmp_path / "w.rtns", gen_uniform(8, 18, seed=0))
    write_tensor(tmp_path / "x.rtns", gen_activations(64, 18, 0.0, seed=1))
    write_manifest(tmp_path / "acts.json", [tmp_path / "x.rtns"])
    read, original = [], rtns.read_tensor
    patch_everywhere(monkeypatch, original,
                     lambda path: read.append(Path(path).name) or original(path))
    code = main(["prune", "--weights", str(tmp_path / "w.rtns"),
                 "--acts", str(tmp_path / "acts.json"), "--pattern", "2:4",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 18 columns do not split into groups of m=4\n")
    assert read == ["w.rtns"]
    assert not (tmp_path / "out").exists()


def test_threads_option_removed(capsys):
    """Removed options are unrecognized arguments, not silently ignored."""
    for flag in ("--threads", "--hot-block", "--correlation", "--hot-gain"):
        assert run(["prune", "--synth", "uniform", "--sparsity", "0.5",
                    flag, "1"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
