"""Repeat one workload in fresh processes and summarise the spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]

Runs `run.py --trace 0` once per seed (first-seed, first-seed + 1, ...) for
BENCHMARK.json's run_seconds, one process after another, and prints for each
end-to-end metric the median, the quartiles from statistics.quantiles(n=4) and the
spread (q3 - q1) / median, plus the share of failed operations.  The
per-run results and the summary are also written to
perfbench/out/repeat-NAME.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    results, elapsed = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
        elapsed.append(time.perf_counter() - t0)
        result = json.loads(out.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed} ({elapsed[-1]:.1f} s): " + json.dumps(result), flush=True)

    summary = summarise(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload}: {args.runs} runs, {failed}/{attempted} operations failed, "
          f"correct in {sum(r['correct'] for r in results)}/{args.runs} runs, "
          f"{statistics.mean(elapsed):.1f} s per run")
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name:44s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    out_path = HERE / "out" / f"repeat-{args.workload}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"runs": results, "elapsed_s": elapsed, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
