#!/usr/bin/env python3
"""qrfsim benchmark: one workload, timed end to end, or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload suite --seed 0 --seconds 45 --trace 0

Workloads (see ``workloads.WHY``): ``suite`` and ``reduce`` are the ones
BENCHMARK.json gates; ``tau-scan`` runs the same way but is not gated (see
``workloads.TauScan`` for why).  Each run

1. runs passes over the workload's full input set until ``--seconds`` have
   elapsed, checking every output of every pass;
2. with ``--trace 0`` reports the end-to-end metrics: ``pass_s``, the median
   pass time; ``setup_s``, the median wall time of fresh interpreters that
   import qrfsim and build the workload's inputs (a few before the first
   pass and one after each pass, so they see the same machine conditions
   as the passes); and ``peak_rss_mb``;
3. with ``--trace 1`` it alternates untraced and traced passes and reports
   the per-layer metrics of the traced ones (medians over passes) and the
   tracing overhead.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a record of the environment,
every pass time with quartiles, the times of the workload's two largest
parts (``workloads.PARTS``), the error rate with its base, and for ``suite``
the CSV byte report against the reference.  ``--seed`` makes the inputs;
any seed works, so a claim can be re-checked on a seed not used while
writing it (the suite's byte-for-byte comparison covers seeds 0-19).
``--smoke`` shrinks every input for a quick check of the harness itself;
its outputs are checked only for internal consistency.

BLAS runs single-threaded and ``qrfsim sweep`` gets min(2, nproc) workers,
so the load never has more threads than cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("suite", "tau-scan", "reduce")
SETUP_PROBES_FIRST = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sweep_workers() -> int:
    return min(2, os.cpu_count() or 1)


def bootstrap() -> None:
    """Pin thread counts (before numpy loads) and import qrfsim from this checkout."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["QRF_THREADS"] = str(sweep_workers())
    package = ROOT / "src" / "qrfsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qrfsim sources at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qrfsim
    if Path(qrfsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qrfsim from {qrfsim.__file__}, not {package}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def probe_setup(args, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports qrfsim and builds the inputs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed),
           str(Path(tempfile.mkdtemp(prefix="setup-", dir=workdir)))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantise the measurement; block instead and kill from a timer
    killer = threading.Timer(120.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}: {' '.join(cmd)}")
    return elapsed


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {"model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu["model"] = next((line.split(":", 1)[1].strip() for line in f
                                 if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            cpu["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:  # a checkout exported without .git has no commit; never take a parent repo's
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "QRF_THREADS": os.environ.get("QRF_THREADS"),
        "sweep_workers": sweep_workers(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def run(args) -> tuple[dict, dict]:
    import spans
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        first_probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES_FIRST
        setup = [probe_setup(args, workdir) for _ in range(first_probes)]
        wl = workloads.make(args.workload, ROOT, args.seed, workdir, args.smoke)
        if not args.smoke:
            reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
            workloads.attach_reference(wl, reference)
        plain, traced, layer = [], [], []
        tracer = spans.Tracer()
        deadline = time.perf_counter() + args.seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(wl.run_pass())
            if args.trace:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(wl.run_pass())
                finally:
                    tracer.uninstall()
                layer.append(tracer.metrics())
            else:
                setup.append(probe_setup(args, workdir))
        ops = [op for p in plain + traced for op in p.ops]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [op for op in ops if not op.ok]
    pass_s = [p.seconds for p in plain]
    if args.trace:
        # median_low keeps counts whole: it returns one pass's value
        metrics = {name: statistics.median_low(m[name] for m in layer)
                   for name in spans.PER_LAYER_UNITS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                           / statistics.median(pass_s))
        units = spans.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "setup_s": setup,
        "pass_s": quartiles(pass_s),
        "passes_s": pass_s,
        "parts_s": {name: quartiles([p.parts[i] for p in plain])
                    for i, name in enumerate(workloads.PARTS[args.workload])},
        "traced_passes_s": [p.seconds for p in traced],
        "error_rate": {"failed": len(failed), "attempted": len(ops),
                       "rate": len(failed) / len(ops)},
        "failures": [f"{op.name}: {op.detail}" for op in failed[:10]],
        **wl.report(),
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    record, result = run(args)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
