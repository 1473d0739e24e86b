"""Self-test of the benchmark, at tiny sizes.  From the repository root:

    python3 perfbench/selftest.py

It checks that
- every workload in BENCHMARK.json runs in quick mode, traced and
  untraced, and its last output line reports exactly the metrics that
  BENCHMARK.json names, each with its unit, with no failed operation;
- the correctness gate fires when one expected winding is flipped;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--quick",
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(ROOT, workload, trace)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            for name, unit in want.items():
                assert f"\n{name} " in "\n" + out.stdout, name
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        equiv = workloads.QUICK["equiv-circle"]()
        equiv.prepare(Path(tmp), 1)
        windings = equiv.pairs[0].windings
        windings[1] += 1 if windings[1] < 2 else -1
        equiv.warm_up()
        equiv.finish()
    assert equiv.tally.failed == 1, equiv.tally.problems
    assert equiv.tally.attempted == equiv.warmup
    print(f"ok  flipped winding caught: {equiv.tally.problems[0]}")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "axioms-fd", 0)
    assert out.returncode != 0 and not out.stdout, (out.returncode, out.stdout)
    print(f"ok  bare directory: exit {out.returncode}, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench)
    check_gate()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
