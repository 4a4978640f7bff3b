"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the package under test is imported from
``./src`` and the metric names and units are read from ``./BENCHMARK.json``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
and writes the spans to ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import PYTHON_LOOP

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytic", "build", "montecarlo", "cli")
SETUP_SAMPLES = 5  # set-up is timed this many times, each in a fresh process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT = 150


def spawn(cmd, env) -> tuple[dict, float, float]:
    """Run a workload process; returns its JSON line and its set-up time, raw
    and at reference speed (see ``workloads.Reference``)."""
    ref = PYTHON_LOOP.measure()
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, check=True)
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    raw = res["ready"] - start
    return res, raw, raw * PYTHON_LOOP.scale(ref, res["ready_ref"])


def revision(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    ap.add_argument("--corrupt", action="store_true", help="feed a wrong output to the first check")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "supervise", "__init__.py")):
        print("error: src/supervise not found; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
             "--seed", str(args.seed), "--size", args.size]

    setups, raw_setups = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        _, raw, scaled = spawn(child + ["--setup-only"], env)
        raw_setups.append(raw)
        setups.append(scaled)
    res, raw, scaled = spawn(child + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
                             + (["--corrupt"] if args.corrupt else []), env)
    raw_setups.append(raw)
    setups.append(scaled)

    attempted, failed = res["attempted"], res["failed"]
    measured = {
        "setup_s": statistics.median(setups),
        "throughput": res["throughput"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": 1.0 - failed / attempted,
    }
    if args.trace:
        wanted, measured = spec["per_layer"], res["layers"]
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    info = dict(res["info"], workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                size=args.size, revision=revision(root), python=sys.version.split()[0], numpy=numpy_version(),
                nproc=len(os.sched_getaffinity(0)), blas_env={v: os.environ[v] for v in BLAS_VARS if v in os.environ},
                setup_samples_s=setups, raw_setup_samples_s=raw_setups, errors=res["errors"],
                not_measured=sorted(m["name"] for m in wanted if m["name"] not in measured))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
