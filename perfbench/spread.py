"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload highspeed_stock --runs 5 [--trace 0]

Runs ``run.py`` once per seed (1, 2, …, runs) and prints, per metric, the
median and the spread (q3 − q1) / median of the values, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. With ``--trace 0`` each
spread is compared with a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in a.workload:
        runs = [run(workload, a.first_seed + i, spec["run_seconds"], a.trace)
                for i in range(a.runs)]
        print(f"== {workload}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and a.trace == "0":
                verdict = "ok" if spread < bound / 3 else "TOO WIDE"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:32s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}  {verdict}")
            sys.stdout.flush()
    if a.trace == "0":
        print(f"widest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
