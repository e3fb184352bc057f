"""Steadiness check: run the benchmark over many seeds and report the spread.

    python3 bench/steady.py --seeds 1-10 --out .bench_out/steady-a.json
    python3 bench/steady.py --seeds 1-10 --out .bench_out/steady-b.json \
        --compare .bench_out/steady-a.json

Runs the command in BENCHMARK.json once per (seed, workload), interleaving
the workloads, and prints for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median.  With ``--compare`` it also prints how far each
median moved from the earlier set, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {name: [] for name in names}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for seed in seed_range(args.seeds):
        for name in names:
            result = run_once(spec, name, seed, seconds)
            runs[name].append({"seed": seed, "attempted": result["attempted"],
                               "failed": result["failed"],
                               **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    earlier = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    summary = {}
    print(f"\n{'workload':13} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'moved':>7}")
    for name in names:
        failed = {r["failed"] / r["attempted"] for r in runs[name]}
        summary[name] = {"failed_share": sorted(failed)}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            s = summarize([r[key] for r in runs[name]])
            moved = ""
            if key in earlier.get(name, {}):
                before = earlier[name][key]["median"]
                worse = (s["median"] - before) / before
                s["moved"] = worse if metric["better"] == "lower" else -worse
                moved = f"{s['moved']:+.3f}"
            summary[name][key] = s
            print(f"{name:13} {key:12} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f} {metric['bound']:6.2f} {moved:>7}")
        print(f"{name:13} failed share per run: {sorted(failed)}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(
        {"started": started, "seeds": args.seeds, "seconds": seconds,
         "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
