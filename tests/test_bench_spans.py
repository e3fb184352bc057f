import importlib
import importlib.util
import sys
from pathlib import Path


def test_every_traced_span_resolves(monkeypatch):
    # bench/run.py --trace wraps each (module, function) of bench/tracing.py's
    # SPANS; a name deleted from repvar would fail there with an AttributeError
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for module_name, fn_name in tracing.SPANS:
        module = importlib.import_module(f"repvar.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
