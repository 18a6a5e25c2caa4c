"""README's examples run as written: the Python blocks in order, in one
namespace, and every ``obsprune`` command line of the shell blocks.  Its
contracts table names tests that collect, and its Known issues list has one
line per open ``FOUND:`` of CHANGES.md."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from obsprune import SparsityConfig, checked_layer, cli, prune_runs

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def section(title):
    """The lines of the README section headed ``## title``."""
    [body] = re.findall(rf"^## {title}\n(.*?)(?=^## |\Z)", README.read_text(), re.M | re.S)
    return body.splitlines()


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 2


def test_command_line_examples_run(tmp_path, monkeypatch):
    """Every ``obsprune`` line of the shell blocks exits 0, run in a scratch dir."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [shlex.split(line) for block in blocks for line in block.splitlines()
                if line.startswith("obsprune ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)  # detect writes its report to .
    for argv in commands:
        assert cli.main(argv[1:]) == 0, shlex.join(argv)
    assert (tmp_path / "detect.json").is_file()
    assert (tmp_path / "run" / "compare.csv").is_file()


def test_outputs_paragraph_names_the_record():
    """The Outputs paragraph lists exactly ``Run.record()``'s fields, in order."""
    [listed] = re.findall(r"by `Run\.record\(\)`: (.*?)\.\s", README.read_text(), re.S)
    layer = checked_layer(np.ones((1, 4)), [np.eye(4)])
    [run] = prune_runs(layer, ["magnitude"], [SparsityConfig(0.5, 4)])
    assert re.findall(r"`(\w+)`", listed) == list(run.record())


def test_contract_rows_name_collected_tests():
    """Every contracts row names a test, and every named test collects."""
    rows = [line for line in section("Contracts")
            if line.startswith("| ") and not line.startswith("| Promise ")]
    assert rows
    ids = []
    for row in rows:
        named = re.findall(r"`(tests/[\w/]+\.py::[\w:]+)`", row)
        assert named, f"row names no test: {row}"
        ids += named
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *dict.fromkeys(ids)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_known_issues_match_open_founds():
    """Recording or mending a FOUND in CHANGES.md updates the list too."""
    issues = [line for line in section("Known issues") if line.startswith("- ")]
    changes = (ROOT / "CHANGES.md").read_text().splitlines()
    founds = [line for line in changes if re.match(r"(- )?FOUND:", line)]
    assert len(issues) == len(founds)
