"""The benchmark's tracer still finds every function it wraps.

A traced function that is renamed or removed makes its per-layer metrics
read 0; this keeps that from passing unnoticed.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as traced:
        pass
    assert traced.absent == []
