"""The end-to-end benchmark's traced pass must find every layer it wraps.

``benchmarks/e2e/spans.py`` installs timing wrappers by attribute path
(its ``_TARGETS`` table) and looks each one up with
``vars(owner)[attr]``.  A rename or move in ``src/`` that drops one of
those names would only surface when the benchmark runs; this test
surfaces it in the tier-1 suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    # spans.py imports only the standard library, so it loads by path
    # without the benchmark's own sys.path set-up.  Its dataclasses
    # look their module up in sys.modules while the body runs.
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans()._TARGETS


def test_target_count():
    assert len(TARGETS) == 19


@pytest.mark.parametrize(
    "module_name, path", [(t[0], t[1]) for t in TARGETS], ids=[t[1] for t in TARGETS]
)
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = vars(owner)[attr]
    # classmethod objects (WireRoutes.encode) wrap their function.
    assert callable(getattr(raw, "__func__", raw))
