"""Every kcc function and method the benchmark's tracer wraps by name
(`TARGETS` in `kccbench/spans.py`) exists where the tracer looks for it,
so a rename or a deletion fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("kccbench_spans", ROOT / "kccbench" / "spans.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, path) for module, path, *_ in _load_spans().TARGETS]


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module_name, path):
    # resolved as `Tracer.install` does: each owner by attribute, the target
    # from the owner's own namespace
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr)
    assert callable(getattr(raw, "__func__", raw))
