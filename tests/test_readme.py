"""README's examples run as written: the Python blocks in order, in one
namespace, and every ``obsprune`` command line of the shell blocks."""

import re
import shlex
from pathlib import Path

import numpy as np

from obsprune import SparsityConfig, checked_layer, cli, prune_runs, raw_hessian

README = Path(__file__).resolve().parents[1] / "README.md"


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
    layer = checked_layer(np.ones((1, 4)), raw_hessian([np.eye(4)], 4))
    [run] = prune_runs(layer, ["magnitude"], [SparsityConfig(0.5, 4)])
    assert re.findall(r"`(\w+)`", listed) == list(run.record())
