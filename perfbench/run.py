#!/usr/bin/env python3
"""Repository benchmark: build the runner from source, run one workload, and
print its metrics.

    python3 perfbench/run.py --workload reg-campaign --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload with
spans around every public call and prints the per-layer metrics, a per-layer
summary table, and writes a Chrome trace-event file under .bench_build/traces/.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The runner is built into .bench_build/ at the root of the checkout.  Each run
gets its own temporary directory there for checkpoints and result logs,
removed at exit.  Worker counts derive from the CPUs this process may use.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
WORKLOADS = ("reg-campaign", "campaign-churn", "mem-faults")
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the runner; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_runner", "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_runner(args, out_dir):
    """Run the runner; returns (exit code, peak RSS in MB of that process)."""
    cmd = [str(RUNNER), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--nproc={nproc()}", f"--out={out_dir}"]
    if args.trace:
        cmd.append("--trace")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def show(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.4f} {unit:<9} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one recorded outcome before the output check "
                         "(shows that a mismatch is counted as a failure)")
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        log("perfbench: build failed")
        return 1
    log(f"perfbench: runner ready in {time.monotonic() - t0:.1f} s")

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp")
    try:
        code, peak_rss_mb = run_runner(args, out_dir)
        if code != 0:
            log(f"perfbench: runner exited with {code}")
            return 1
        with open(os.path.join(out_dir, "raw.json")) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        values, notes = stats.per_layer_metrics(raw)
        table, kind = stats.PER_LAYER, "per-layer"
    else:
        values, notes = stats.end_to_end_metrics(raw, peak_rss_mb)
        table, kind = stats.END_TO_END, "end-to-end"

    print(f"perfbench {args.workload}: seed {args.seed}, nproc {raw['nproc']}, "
          f"{raw['workers']} trial workers, {raw['trials']} trials in "
          f"{len(raw['campaigns'])} campaigns, {raw['timed_s']:.2f} s timed")
    print(f"{kind} metrics:")
    for name, (unit, _) in table.items():
        show(name, values[name], unit, notes.get(name, ""))
    if not args.trace:
        print(f"  accuracy reference: paper SDC coverage 86.8%, FT overhead 15.3% "
              f"(modelled: {values['sdc_coverage_pct']:.2f}%, {values['ft_overhead_pct']:.2f}%)")
    ratio = stats.failed_ratio(raw["attempted"], raw["failed"])
    print(f"  failed_ratio {ratio:.6f} ({raw['failed']} of {raw['attempted']} operations)")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")

    if args.trace:
        summary = stats.layer_summary(raw["spans"])
        print(stats.format_summary(summary))
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        stem = traces / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}.trace.json", "w") as f:
            json.dump(stats.chrome_trace(raw["spans"]), f)
        with open(f"{stem}.summary.txt", "w") as f:
            f.write(stats.format_summary(summary) + "\n")
        print(f"  trace written to {stem.relative_to(ROOT)}.trace.json")

    result = {
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
