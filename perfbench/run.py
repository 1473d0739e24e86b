"""Benchmark of the amok command line, end to end and layer by layer.

Run from the root of an amok checkout:

    python3 perfbench/run.py --workload axioms-fd --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer
metrics and the tracing overhead.  ``--quick`` runs tiny sizes for the
self-test.  Each metric is printed on its own line; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with
provenance and (for traced runs) the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SETUP_REPEATS = 7

# Fresh-interpreter set-up: import the CLI and parse the inputs of one call.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import amok.cli
from amok import serialize
for kind, path in zip(sys.argv[2::2], sys.argv[3::2]):
    getattr(serialize, "load_" + kind)(path)
print(time.perf_counter() - t0)
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def setup_seconds(src: Path, inputs) -> float:
    """Median set-up time over several fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(src)]
    for kind, path in inputs:
        argv += [kind, str(path)]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # NumPy before 1.26 prints only
        return {"name": None, "version": None}


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(root: Path, args, counts: dict) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_sha": _git_sha(root),
        **counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "amok" / "cli.py").is_file():
        sys.stderr.write("perfbench: no src/amok/cli.py here; run from the "
                         "root of an amok checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import workloads

    table = workloads.QUICK if args.quick else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(table)}")
    workload = table[args.workload]()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workload.prepare(Path(tmp), args.seed)
        if args.trace:
            tracer, metrics, counts = workload.traced()
            workload.finish()
            tracer.write_spans(out_dir / f"{stem}-spans.jsonl.gz")
            counts["spans"] = len(tracer.spans)
        else:
            setup = setup_seconds(src, workload.setup_inputs)
            metrics, counts = workload.measure(args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            workload.finish()
            metrics["setup_s"] = (setup, "s")
            metrics["peak_rss_mb"] = (peak, "MB")
            counts["setup_repeats"] = SETUP_REPEATS

    tally = workload.tally
    counts["fail_ratio"] = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    prov = provenance(root, args, counts)
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"result": result, "provenance": prov, "problems": tally.problems},
        indent=1))
    for problem in tally.problems[:10]:
        sys.stderr.write(f"perfbench: failed check: {problem}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {counts['fail_ratio']:.6g} failed/attempted")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
