"""The benchmark's span tracer still finds every susim name it patches.

``perfbench/spans.py`` replaces names that susim modules import from the
next layer (``susim.solver.build_paths``, ``susim.graph.submatrix`` ...)
and lists the ones it cannot find as missing instead of failing.  So a
refactor that drops such a name would silently lose a traced layer; this
test makes it fail instead.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Since extract_features became a self-paired solver run, canonical no longer
# imports these; its layers are traced through susim.solver.  The tracer
# still patches them until its table drops them.
KNOWN_MISSING = {
    "susim.canonical.check_presolution",
    "susim.canonical.build_paths",
    "susim.canonical.check_pr",
    "susim.canonical.apply_refinement",
}


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module body runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists(monkeypatch):
    tracer = load_spans(monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING
