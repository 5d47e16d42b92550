"""The benchmark's command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the harness (see ``build.py``), runs one workload in a
fresh JVM, and prints the harness's output; the last line is the result
object. Run conditions and the result are also written to
``.bench_build/results/<workload>-seed<n>-trace<t>.json``. The exit code is
not 0 when the build fails, an answer is wrong, or the run overruns.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("regular_stock", "highspeed_stock", "highspeed_timer")
# Time a run may take once the build is done.
RUN_LIMIT_S = 170
JVM_FLAGS = [
    # A fixed, pre-touched heap keeps heap growth and first-touch page
    # faults, which the kernel charges to the running thread, out of the
    # timed spans.
    "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch",
    # One JVM runs many call-site shapes through the same tree-walking
    # methods; with the default recompilation cutoff a hot method can stay
    # deoptimized after profile pollution.
    "-XX:PerMethodRecompilationCutoff=-1",
    "-XX:ReservedCodeCacheSize=512m",
    # no hsperfdata file outside the checkout
    "-XX:-UsePerfData",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        classes = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    jars = build.spark_jars()

    name = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [build.java(), *JVM_FLAGS,
           "-cp", os.pathsep.join([str(classes), str(jars / "*")]),
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] run exceeded {RUN_LIMIT_S} s; killed", file=sys.stderr)
        return 3

    lines = out.splitlines()
    results = [i for i, l in enumerate(lines) if l.startswith('{"correct"')]
    if not results:
        sys.stdout.write(out)
        print(f"[perfbench] no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    result = lines.pop(results[-1])
    for line in lines:
        print(line)
    conditions = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("CONDITIONS ")), {})
    conditions["run_wall_s"] = round(time.time() - started, 3)
    saved = build.BUILD / "results" / f"{name}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps({"conditions": conditions, "result": json.loads(result)},
                                indent=1) + "\n")
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
