"""The functions the benchmark tracer wraps must exist in obsprune.

``bench/spans.py`` names each traced function by module and name; a
refactor that renames one would otherwise fail only in a traced bench run.
The file is compiled from its source, so nothing is written under bench/.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    missing = [
        f"{module}.{name}"
        for module, name, _ in namespace["TARGETS"]
        if not callable(getattr(importlib.import_module(f"obsprune.{module}"), name, None))
    ]
    assert missing == []
