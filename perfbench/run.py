"""capflow benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads, metrics and bounds are listed in
BENCHMARK.json and explained in perfbench/README.md.  With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  Every op is checked against its correctness gate; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Outputs of the run stay under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5
DEADLINE_S = 170.0   # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], out: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return the JSON it wrote."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args, "--out", out],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "capflow", "__init__.py")):
        print("error: no capflow sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS):
                probe = run_worker(["setup", *common],
                                   os.path.join(workdir, f"setup{i}.json"), deadline)
                setups.append(probe)
        res = run_worker(
            ["ops", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            os.path.join(workdir, "ops.json"), deadline,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for rd in res["rounds"] for op in rd["ops"]]
    failed = [op for op in ops if op["failures"]]
    untraced = [rd["wall_s"] for rd in res["rounds"] if not rd["traced"]]
    values = {}
    if args.trace:
        values.update(res["layers"])
    else:
        values["wall_s"] = statistics.fmean(untraced)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **res["versions"],
        "thread_env": {var: child_env()[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "setup_samples": setups,
        "rounds": res["rounds"],
        "problems": res["problems"],
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"capflow benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}")
    print("environment: " + json.dumps({k: record[k] for k in (
        "nproc", "cpu_model", "python", "numpy", "scipy", "blas", "thread_env",
        "commit")}))
    if setups:
        print("setup_s samples: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    for i, rd in enumerate(res["rounds"]):
        kind = "traced" if rd["traced"] else "untraced"
        print(f"round {i} {kind}: wall {rd['wall_s']:.4f} s  cpu {rd['cpu_s']:.4f} s  "
              + "  ".join(f"{op['label']} {op['wall_s']:.3f} s"
                          + (f" ({op['steps']} steps)" if "steps" in op else "")
                          for op in rd["ops"]))
    for op in failed:
        print(f"FAILED {op['label']}: {'; '.join(map(str, op['failures']))}")
    for problem in res["problems"]:
        print(f"PROBLEM {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    correct = not failed and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
