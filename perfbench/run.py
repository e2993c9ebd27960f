"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enhance_192x256 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: enhance_192x256, train_crop64, events_ingest (see README.md).
The workload runs in one child process (``workloads.py``) with BLAS pinned to
one thread and its address space capped below the machine's RAM, so a memory
regression fails with a message instead of exhausting the machine. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``). The
exit status is 0 only when every operation passed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One BLAS thread. On a 2-vCPU machine, five interleaved 20 s runs per setting
# gave run-to-run spreads (quartile distance over median) of the median
# latency of 0.13 at 1 thread and 0.20 at 2 on enhance_192x256, and 0.15 at
# both on train_crop64. Two threads bought speed but no steadiness.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MEM_SHARE = 0.75  # address-space cap of the workload process, share of MemTotal
DEADLINE_S = 175  # a run must end within 180 s
WORKLOADS = ("enhance_192x256", "train_crop64", "events_ingest")


def mem_total_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    raise OSError("MemTotal missing from /proc/meminfo")


def report(result: dict) -> None:
    """Print every metric with its unit, then the environment."""
    print(f"workload {result['workload']} size {result['size']} trace {result['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in {**result["metrics"], **result["extra"]}.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for err in result["errors"]:
        print(f"  failed: {err}")
    print("env: " + json.dumps(result["env"], sort_keys=True))


def run_child(workload: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in its own capped process; None when it broke down."""
    start = time.monotonic()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(
        out_dir, f"result-{workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cap = int(mem_total_bytes() * MEM_SHARE)
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--result", result_path, "--as-cap", str(cap)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=DEADLINE_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"perfbench: {workload} process exited with status {proc.returncode} "
              f"(address-space cap {cap // 2**20} MiB)", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "evlight", "__init__.py")):
        print(f"perfbench: {ROOT} holds no src/evlight; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 1
        report(result)
        results.append(result)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
