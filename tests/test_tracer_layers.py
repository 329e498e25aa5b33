"""The benchmark's span recorder looks up cltbounds functions by name: every
``module:function`` in ``perfbench/tracer.py``'s ``LAYERS`` must resolve, or
a traced benchmark run fails.  Renaming or deleting one of them fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("target", sorted(load_layers()))
def test_layer_target_resolves(target):
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(f"cltbounds.{module}"), attr))
