"""The README's library example runs as written, and every module
attribute it names exists."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import trefftzdg

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The ```python block under the "Library entry points" heading."""
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_example_runs(capsys):
    code = library_example()
    assert "build_structured_mesh(16)" in code
    # a coarser mesh keeps the run short; every call is the README's own
    code = code.replace("build_structured_mesh(16)", "build_structured_mesh(4)")
    exec(compile(code, str(README), "exec"), {})
    l2_error, vh_error = map(float, capsys.readouterr().out.split())
    assert 0.0 < l2_error < 1e-2 and math.isfinite(vh_error) and vh_error > 0.0


def test_module_references_resolve():
    # a backticked `module.name` of a trefftzdg module must name an
    # attribute of that module, so a deletion cannot leave the text stale
    modules = {m.name for m in pkgutil.iter_modules(trefftzdg.__path__)}
    found = re.findall(r"`(\w+)\.(\w+)[`(\[]", README.read_text())
    references = sorted({(m, name) for m, name in found if m in modules})
    assert len(references) >= 6
    missing = [
        f"{m}.{name}" for m, name in references
        if not hasattr(importlib.import_module(f"trefftzdg.{m}"), name)
    ]
    assert missing == []
