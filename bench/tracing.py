"""Per-layer tracing from outside the program.

Spans are recorded by wrapping module functions.  Each wrapper replaces
the function in every ``repvar`` module that binds it by name (for
example ``project_pair_to_fiber`` in both ``commutator`` and
``connectivity``), so no call escapes the trace.  A span's self time is
its duration minus the time its traced child spans cover.

The quaternion kernel is far too hot to time per call without distorting
every span around it, so ``SU2`` products, constructions and powers are
counted in a separate count-only pass, and ``SU2.__mul__`` gets its own
microbenchmark.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs wrapped with spans, named "<module>.<function>"
SPANS = (
    ("commutator", "project_pair_to_fiber"),
    ("commutator", "continue_fiber"),
    ("commutator", "connect_in_fiber"),
    ("commutator", "sample_fiber"),
    ("solvers", "refine_elements"),
    ("varieties", "project_to_variety"),
    ("varieties", "fixed_point_residual"),
    ("varieties", "torus_residual"),
    ("components", "classify_fix"),
    ("components", "classify_torus"),
    ("components", "randomized_representative"),
    ("components", "randomized_torus_representative"),
    ("connectivity", "canonical_path"),
    ("connectivity", "canonical_torus_path"),
    ("connectivity", "verify_certificate"),
    ("connectivity", "probe_path"),
    ("connectivity", "census"),
)

# spans whose result says whether the call succeeded
OK_SPANS = {"commutator.project_pair_to_fiber", "varieties.project_to_variety",
            "connectivity.verify_certificate"}

# spans whose escaping exceptions are the path errors of the census and probe
_PATH_SPANS = {"connectivity.canonical_path", "connectivity.canonical_torus_path",
               "connectivity.probe_path"}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    fails: int = 0  # calls that raised
    ok: int = 0  # calls whose result reports success, where the result has one
    iterations: int = 0  # solver iterations, where the result reports them


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    path_errors: Counter = field(default_factory=Counter)  # "Class[stage]" -> count
    certificates: list = field(default_factory=list)  # every certificate verified
    _stack: list = field(default_factory=list)
    _seen_errors: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.fails += 1
                if name in _PATH_SPANS:
                    tracer._record_path_error(exc)
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            tracer._observe(name, stat, args, result)
            return result

        return traced

    def _record_path_error(self, exc: Exception) -> None:
        # an exception passing through nested path spans is counted once
        if any(exc is seen for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        stage = getattr(exc, "stage", "")
        self.path_errors[f"{type(exc).__name__}[{stage}]"] += 1

    def _observe(self, name: str, stat: SpanStats, args, result) -> None:
        if name == "commutator.project_pair_to_fiber":
            stat.ok += bool(result[3])
        elif name == "varieties.project_to_variety":
            stat.ok += bool(result.converged)
        elif name == "solvers.refine_elements":
            stat.iterations += result.iterations
        elif name == "connectivity.verify_certificate":
            stat.ok += bool(result.ok)
            self.certificates.append(args[0])


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers for the duration of a ``with`` block."""
    modules = [mod for key, mod in sys.modules.items()
               if key == "repvar" or key.startswith("repvar.")]
    undo = []
    for module_name, fn_name in SPANS:
        original = getattr(sys.modules[f"repvar.{module_name}"], fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
        for mod in modules:
            if mod.__dict__.get(fn_name) is original:
                undo.append((mod, fn_name, original))
                setattr(mod, fn_name, wrapper)
    try:
        yield tracer
    finally:
        for mod, fn_name, original in reversed(undo):
            setattr(mod, fn_name, original)


@contextmanager
def counted_su2():
    """Count SU2 products, constructions and powers inside a ``with`` block."""
    from repvar.su2 import SU2

    counts = Counter()
    originals = {name: SU2.__dict__[name] for name in ("__mul__", "__init__", "power")}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    SU2.__mul__ = counting("mul", originals["__mul__"])
    SU2.__init__ = counting("init", originals["__init__"])
    SU2.power = counting("power", originals["power"])
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(SU2, name, fn)


def su2_mul_ns(batches: int = 15, per_batch: int = 20000) -> float:
    """Median time of one ``SU2.__mul__`` call, loop overhead included, in ns."""
    from repvar.su2 import SU2

    a = SU2(0.6, 0.48, 0.0, 0.64)
    b = SU2(0.28, 0.0, 0.96, 0.0)
    clock = time.perf_counter
    samples = []
    for _ in range(batches):
        start = clock()
        for _ in range(per_batch):
            a * b
        samples.append((clock() - start) / per_batch * 1e9)
    return statistics.median(samples)
