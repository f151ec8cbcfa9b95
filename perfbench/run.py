"""varcert benchmark: one workload, one seed, one run length.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Runs against the checkout's own ``src/`` tree (varcert need not be
installed). With ``--trace 0`` it measures the end-to-end metrics listed in
BENCHMARK.json: set-up time is the median over several fresh workers of the
time from spawning a worker to its first timed op, and every other metric
comes from the last worker's timed loop. With ``--trace 1`` one worker runs
with spans around each layer's public calls and reports the per-layer
metrics. Every output is checked by an oracle; human-readable lines come
first and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / "_work"
WORKLOADS = ("cli-cold", "corpus-screen", "fine-grid")
# set-up is timed in fresh workers before and after the measured one, so
# its median spans the run rather than a few seconds of it
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 2
# a second seed, kept out of tuning, for checking later claims
HELD_OUT_SEED = 7919
RUN_BUDGET_S = 170.0
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT"
# OpenBLAS splits a long dot product (each quadrature at n=65536) over every
# core; on a small shared host the op then waits for its slowest thread, so
# every worker and child runs its BLAS on one thread, as the workloads intend
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple:
    """Run one worker; return (set-up seconds, parsed result or None)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.monotonic()
    # its own process group, so a timeout also stops a child it is waiting on
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **ONE_THREAD}, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker did not finish within the run budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith(READY + " "):
            ready = float(line.split()[1])
        elif line.startswith(RESULT + " "):
            result = json.loads(line[len(RESULT) + 1:])
    if ready is None:
        raise RuntimeError("worker never finished its set-up")
    return ready - start, result


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args, worker_env: dict) -> dict:
    return {
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="varcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "varcert" / "__init__.py").is_file():
        return fail(f"no varcert source tree at {ROOT / 'src' / 'varcert'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    before, after = (0, 0) if args.trace else (SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER)
    try:
        setups = [spawn(args, deadline, setup_only=True)[0] for _ in range(before)]
        setup, result = spawn(args, deadline, setup_only=False)
        setups.append(setup)
        setups += [spawn(args, deadline, setup_only=True)[0] for _ in range(after)]
    except RuntimeError as exc:
        return fail(str(exc))
    if result is None:
        return fail("worker printed no result")

    measured = dict(result["per_layer"] if args.trace else result["end_to_end"])
    if not args.trace:
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                               "n": len(setups), "note": "median of fresh workers"}
    missing = [m["name"] for m in wanted
               if m["name"] not in measured or measured[m["name"]]["unit"] != m["unit"]]
    if missing:
        return fail(f"metrics not measured in BENCHMARK.json's units: {', '.join(missing)}")

    env = environment(args, result["environment"])
    report = {"environment": env, "inputs": result["inputs"], "metrics": measured,
              "reported": result["reported"], "failures": result["failures"],
              "spans": result.get("spans")}
    out = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"inputs {result['inputs']}  report {out.relative_to(ROOT)}")
    for name, m in list(measured.items()) + list(result["reported"].items()):
        note = f"  ({m['note']})" if m.get("note") else ""
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}{note}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
