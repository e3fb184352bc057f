import importlib
import importlib.util
import sys
from pathlib import Path

from repvar.su2 import SU2


def _load_bench(monkeypatch, name):
    """bench/<name>.py, loaded as it stands."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves(monkeypatch):
    # bench/run.py --trace wraps each (module, function) of bench/tracing.py's
    # SPANS; a name deleted from repvar would fail there with an AttributeError
    tracing = _load_bench(monkeypatch, "tracing")
    assert tracing.SPANS
    for module_name, fn_name in tracing.SPANS:
        module = importlib.import_module(f"repvar.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_su2_count_pass_sees_products_powers_and_constructions(monkeypatch):
    # bench/run.py --trace 1 counts SU2.__mul__, __init__ and power by
    # replacing them in SU2.__dict__; each must still be called through there
    tracing = _load_bench(monkeypatch, "tracing")
    a = SU2(0.6, 0.48, 0.0, 0.64)
    b = SU2(0.28, 0.0, 0.96, 0.0)
    originals = {name: SU2.__dict__[name] for name in ("__mul__", "__init__", "power")}
    with tracing.counted_su2() as counts:
        a * b
        a.power(3)
        SU2(0.0, 0.6, 0.0, 0.8)
    assert counts["mul"] > 0 and counts["power"] > 0 and counts["init"] > 0
    assert {name: SU2.__dict__[name] for name in originals} == originals


def test_bench_oracle_self_test_passes(monkeypatch):
    # bench/run.py checks every run's outputs with bench/oracle.py, which
    # calls probe_path(r0, r1, system, n), census(2, "fix", 1, 0) and
    # dataclasses.replace on points (rep=...) and certificates (points=...);
    # an API change that breaks the checker fails here, not in a bench run
    oracle = _load_bench(monkeypatch, "oracle")
    assert oracle.self_test() == []
