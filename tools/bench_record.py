"""Record the tracked performance numbers of a checkout in BENCH_<LABEL>.json.

Usage:

    python3 tools/bench_record.py LABEL

It measures the checkout that holds this script, one step after another,
and writes the file at the root of that checkout:

- ``perfbench/run.py --workload all --trace 0`` at seed 1, for the run
  length that BENCHMARK.json sets: each end-to-end metric of its JSON
  result line, whether every run was correct, and the operations attempted
  and failed in all runs;
- the wall time of the tier-1 suite, with its exit codes and last summary line;
- the wall time of ``dfsa-mpr simulate`` on configs/paper_sweep.yaml
  (80 cells x 500 trials) at ``--parallel 1`` and at ``--parallel`` nproc,
  with the SHA-256 of each output;
- the git revision, the Python and numpy versions, the platform and nproc.

Perfbench, tier-1 and each sweep run ``REPEATS`` times, since one run moves
with the host's phase: a metric or wall time is the median of its runs, and
every run's value is kept beside it. A sweep whose bytes differ between runs
stops the record.

To record another revision with the same script, copy it into a checkout
of that revision and run it there. Compare two files only when they were
recorded on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SWEEP_CONFIG = "configs/paper_sweep.yaml"
REPEATS = 3


def _run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``argv`` at the root with src/ on the path; (wall seconds, process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def _require_success(proc: subprocess.CompletedProcess, what: str) -> None:
    if proc.returncode != 0:
        sys.exit(f"bench_record: {what} failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")


def _walls(walls: list[float]) -> dict:
    return {"wall_s": statistics.median(walls), "wall_s_runs": walls}


def perfbench() -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for _ in range(REPEATS):
        _, proc = _run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
                        str(SEED), "--seconds", str(seconds), "--trace", "0"])
        _require_success(proc, "perfbench")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    metrics = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"], "runs": values}
    return {"seed": SEED, "seconds": seconds, "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "metrics": metrics}


def tier1() -> dict:
    runs = [_run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "--continue-on-collection-errors"]) for _ in range(REPEATS)]
    lines = runs[-1][1].stdout.strip().splitlines()
    return {**_walls([wall for wall, _ in runs]),
            "exit_codes": [proc.returncode for _, proc in runs],
            "summary": lines[-1] if lines else ""}


def paper_sweep(parallel: int) -> dict:
    walls, digests = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(REPEATS):
            out = Path(tmp) / f"sweep{run}.csv"
            wall, proc = _run([sys.executable, "-m", "dfsa_mpr", "simulate", "--config",
                               SWEEP_CONFIG, "--parallel", str(parallel), "--out", str(out)])
            _require_success(proc, f"the paper sweep at --parallel {parallel}")
            walls.append(wall)
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    if len(digests) > 1:
        sys.exit(f"bench_record: the paper sweep at --parallel {parallel} wrote different bytes"
                 f" in {REPEATS} runs")
    return {"parallel": parallel, **_walls(walls), "sha256": digests.pop()}


def revision() -> dict:
    """HEAD and whether tracked files differ from it; None outside a git checkout."""
    _, head = _run(["git", "rev-parse", "HEAD"])
    if head.returncode != 0:
        return {"git": None, "dirty": None}
    _, status = _run(["git", "status", "--porcelain", "--untracked-files=no"])
    return {"git": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count() or 1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json (letters, digits, . _ -)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} may hold only letters, digits, '.', '_' and '-'")

    record = {"label": args.label, **revision(), **versions()}
    record["perfbench"] = perfbench()
    record["tier1"] = tier1()
    record["paper_sweep"] = [paper_sweep(1), paper_sweep(record["nproc"])]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
