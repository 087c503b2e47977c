"""Run the benchmark over many seeds and summarise its spread.

    python3 bench/baseline.py                       # every workload, seeds 1..10
    python3 bench/baseline.py --workloads optimize --seeds 1 2 3 4 5
    python3 bench/baseline.py --traced 2 --write    # also refresh bench/BASELINE.json

For each workload and end-to-end metric it prints the median over seeds
and the quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json. ``--traced N`` also runs each of the first N seeds
traced, untraced and traced again. The two traced runs must repeat every
per-layer count and share (every metric not in ms) exactly. The tracing
overhead is the mean of the two traced runs' end-to-end figures over the
untraced one between them, so that a slow drift of the machine cancels.
Runs go one at a time, each in its own ``bench/run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(record, result) of one bench/run.py process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", type=int, default=0, help="seeds also run with --trace 1 (twice each)")
    p.add_argument("--write", action="store_true", help="write bench/BASELINE.json")
    args = p.parse_args()

    report = {"environment": None, "workloads": {}}
    for wl in args.workloads:
        rows, traced = [], []
        t0 = time.perf_counter()
        for seed in args.seeds:
            record, result = run(wl, seed, args.seconds, 0)
            report["environment"] = record["environment"]
            rows.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "quality": record["quality"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
        for seed in args.seeds[:args.traced]:
            rec_a, res_a = run(wl, seed, args.seconds, 1)
            rec_u, _ = run(wl, seed, args.seconds, 0)
            rec_b, res_b = run(wl, seed, args.seconds, 1)
            counts_a = {k: v["value"] for k, v in res_a["metrics"].items() if v["unit"] != "ms"}
            counts_b = {k: v["value"] for k, v in res_b["metrics"].items() if v["unit"] != "ms"}
            traced.append({
                "seed": seed, "correct": res_a["correct"] and res_b["correct"],
                "per_layer": {k: v["value"] for k, v in res_b["metrics"].items()},
                "exact_counts_repeat": counts_a == counts_b,
                "overhead": {m: (rec_a["end_to_end"][m] + rec_b["end_to_end"][m]) / 2 / v - 1.0
                             for m, v in rec_u["end_to_end"].items()},
            })
        summary = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in rows]
            summary[m["name"]] = {"median": statistics.median(values), "spread": spread(values),
                                  "bound": m["bound"], "unit": m["unit"]}
        report["workloads"][wl] = {"runs": rows, "summary": summary, "traced": traced,
                      "wall_s": time.perf_counter() - t0}
        print(f"{wl}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}, "
              f"failed ops: {sum(r['failed'] for r in rows)}")
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:14s} median {s['median']:10.4f} {s['unit']:4s} spread {s['spread']:.4f}"
                  f" (bound {s['bound']}){flag}")
        for t in traced:
            print(f"  traced seed {t['seed']}: correct {t['correct']}, exact counts repeat "
                  f"{t['exact_counts_repeat']}, overhead " +
                  ", ".join(f"{k} {v:+.1%}" for k, v in t["overhead"].items()))
    out = BENCH / ".runs" / "baseline-last.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    if args.write:
        (BENCH / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
