"""Benchmark of normal-vv, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smile_grid --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's own `src/`. With `--trace 0`
the last stdout line is one JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a separate traced run. The
line before it gives details: failure reasons, the tail percentile and
sample count, machine, versions and commit. `--out FILE` appends both to
a JSON-lines file, and

    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

compares two such files metric by metric. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import compare
import stats
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in this many fresh processes; the last one also runs.
SETUP_RUNS = 5
# A run must end within 180 s, whatever the workers do.
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def bench_env(root: Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("NORMAL_VV_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {args.workload} failed (exit {code})")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "src_sha256": src_digest(ROOT / "src"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest(src: Path) -> str:
    """Digest of the library sources, naming the code under test when no
    commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = bench_env(ROOT)
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(args, env, deadline, setup_only=True)[0])
    setup_s, result = spawn(args, env, deadline, setup_only=False)
    setups.append(setup_s)
    detail = result.pop("detail")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": stats.median(setups), "unit": "s"}
        detail["setup_runs_s"] = setups
    detail["machine"] = machine()
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a JSON-lines results file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"), help="compare two results files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(ROOT / "BENCHMARK.json", *args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "normal_vv" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result, detail = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**record, "result": result, "detail": detail}) + "\n")
    print(json.dumps({**record, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
