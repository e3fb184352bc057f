"""Census-and-probe benchmark for repvar.

Run from the repository root:

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload census-fix --seed 1 --seconds 32 --trace 0

The run repeats the workload's fixed work (one round) in whole rounds until
``--seconds`` have passed, checks every output against the computations in
``oracle.py``, and prints one JSON object as its last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds one su2 count-only round
and one traced round and reports the per-layer metrics.  The metric names
and units are the ones listed in ``BENCHMARK.json``.  ``--self-test`` only
shows that every check rejects a corrupted output.

A failed check exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7


class CheckFailed(Exception):
    pass


def load_repvar():
    """Import repvar from this checkout's source tree, never from elsewhere."""
    if not (SRC / "repvar" / "__init__.py").is_file():
        raise SystemExit(f"error: no repvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repvar

    if Path(repvar.__file__).resolve().parent != SRC / "repvar":
        raise SystemExit(f"error: imported repvar from {repvar.__file__}, not from {SRC}")
    return repvar


def set_up(name: str, seed: int):
    """Import, input generation and one warm-up call: what setup_s measures."""
    load_repvar()
    import workloads

    workload = workloads.build(name, seed)
    workload.warm_up()
    return workload


def setup_child(name: str, seed: int) -> None:
    start = time.perf_counter()
    set_up(name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def setup_times(name: str, seed: int) -> list[float]:
    """Set-up timed in fresh processes, so each one pays the imports again."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Rounds:
    """Timed rounds of one workload.  The first round keeps its outputs for
    the checks; every round keeps a fingerprint of them."""

    def __init__(self, workload):
        self.workload = workload
        self.results, self.walls, self.cpus, self.fingerprints = [], [], [], []

    def run_one(self) -> float:
        c0, t0 = time.process_time(), time.perf_counter()
        result = self.workload.run_round()
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.cpus.append(time.process_time() - c0)
        self.fingerprints.append(result.fingerprint())
        if self.results:
            result.drop_outputs()
        self.results.append(result)
        return wall

    def run_for(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed, at least one."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_one()
            if time.perf_counter() >= deadline:
                return


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# -- checks -------------------------------------------------------------------

def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repvar").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(name: str, seed: int, workload, rounds: Rounds, certificates=()) -> dict:
    """Check the outputs of the first round and that every round repeats them.

    Returns the census digests."""
    import oracle

    problems = []
    digests = {}
    first = rounds.results[0]
    if len(set(rounds.fingerprints)) != 1:
        problems.append(("repeat", "rounds of one run produced different outputs"))
    if name == "probe-local":
        for pair, cert in zip(workload.inputs, first.probe_certs):
            if cert is not None:
                problems += oracle.check_certificate(cert, (pair.r0, pair.r1))
    else:
        for system, n, samples, doc in first.census_docs:
            digests[f"{system} n={n}"] = oracle.digest(doc)
            problems += oracle.check_census(doc, system, n, samples)
        problems += _check_digest_ledger(name, seed, digests)
    for cert in certificates:
        problems += oracle.check_certificate(cert)
    problems += [("self-test", f) for f in oracle.self_test()]
    if problems:
        shown = "\n".join(f"  [{kind}] {msg}" for kind, msg in problems[:20])
        raise CheckFailed(f"{len(problems)} check(s) failed:\n{shown}")
    return digests


def _check_digest_ledger(name: str, seed: int, digests: dict) -> list:
    """Census documents must be byte-identical in every run with one seed."""
    OUT.mkdir(exist_ok=True)
    ledger_path = OUT / "census-digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{name} seed={seed} code={_code_hash()}"
    known = ledger.setdefault(key, digests)
    if known != digests:
        return [("repeat", f"census documents differ from an earlier run with seed {seed}")]
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return []


# -- metrics ------------------------------------------------------------------

def end_to_end(rounds: Rounds, setups, rss) -> dict:
    return {
        "wall_s": statistics.median(rounds.walls),
        "certs_per_s": statistics.median(
            r.certs / w for r, w in zip(rounds.results, rounds.walls)),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }


def per_layer(tracer, su2_counts, traced_wall, untraced_wall, mul_ns) -> dict:
    from tracing import OK_SPANS, SPANS

    out = {
        "su2.mul.calls": su2_counts["mul"],
        "su2.init.calls": su2_counts["init"],
        "su2.power.calls": su2_counts["power"],
        "su2.mul.ns": mul_ns,
    }
    for module, fn in SPANS:
        name = f"{module}.{fn}"
        st = tracer.stats[name]
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.fails"] = st.fails
        if name in OK_SPANS:
            out[f"{name}.ok_ratio"] = st.ok / st.calls if st.calls else 0.0
    out["solvers.refine_elements.iterations"] = tracer.stats["solvers.refine_elements"].iterations
    points = sum(len(c.points) for c in tracer.certificates)
    residuals = out["varieties.fixed_point_residual.calls"] + out["varieties.torus_residual.calls"]
    out["connectivity.cert_points.total"] = points
    out["connectivity.cert_points.mean"] = points / len(tracer.certificates) if tracer.certificates else 0.0
    out["varieties.residuals_per_point"] = residuals / points if points else 0.0
    out["connectivity.path_errors"] = sum(tracer.path_errors.values())
    out["trace.traced_wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


def select(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        load_repvar()
        import oracle

        failures = oracle.self_test()
        for f in failures:
            print(f"self-test: {f}", file=sys.stderr)
        print("self-test: every check rejected its corrupted input" if not failures
              else f"self-test: {len(failures)} failure(s)")
        return 1 if failures else 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    workload = set_up(args.workload, args.seed)
    setups = [] if args.trace else setup_times(args.workload, args.seed)
    rounds = Rounds(workload)
    rounds.run_for(args.seconds)
    untraced = statistics.median(rounds.walls)
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds.walls),
        "wall_s": rounds.walls, "cpu_s": rounds.cpus, "setup_s": setups,
        "attempted_per_round": rounds.results[0].attempted,
        "failed_per_round": rounds.results[0].failed,
        "errors": dict(sum((r.errors for r in rounds.results), Counter())),
    }
    certificates = []
    if args.trace:
        import tracing

        with tracing.counted_su2() as su2_counts:
            rounds.run_one()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced = rounds.run_one()
        if args.workload != "probe-local":
            certificates = tracer.certificates
        values = per_layer(tracer, su2_counts, traced, untraced, tracing.su2_mul_ns())
        metrics = select(values, spec["per_layer"])
        summary.update(per_layer=values, path_errors=dict(tracer.path_errors),
                       shares={k: v / traced for k, v in values.items() if k.endswith(".self_s")})
    else:
        metrics = select(end_to_end(rounds, setups, peak_rss_mb()), spec["end_to_end"])

    try:
        summary["census_digests"] = check_outputs(
            args.workload, args.seed, workload, rounds, certificates)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(f"# {args.workload} seed={args.seed}: {len(rounds.walls)} rounds, "
          f"wall median {untraced:.4f} s, cpu median {statistics.median(rounds.cpus):.4f} s")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in rounds.results),
        "failed": sum(r.failed for r in rounds.results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
