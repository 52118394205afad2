"""Host-time benchmark of the dfsa_mpr simulator and estimator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of fsa_sweep, dfsa_sweep, paper_parallel, estimate_analyze; `all`
runs the four in turn. With --trace 0 the workload is repeated, each
repetition in a fresh interpreter (perfbench/unit.py), until S seconds have
passed (at least twice), and the end-to-end metrics are medians over the
repetitions. Rates are per reference second: host seconds divided by how
much slower than usual the host ran meanwhile (see calibration.py); the
set-up time, mostly file reads, is in host seconds. With
--trace 1 it runs once untraced and once traced, and reports per-layer
figures and the tracing overhead. Either way the outputs are checked; the
last line of standard output is one JSON object, and the exit code is 1 when
any check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = "configs/paper_sweep.yaml"
OUT_DIR = "perfbench/.out"
#: every unit must end inside this many seconds of the run's start
RUN_BUDGET_S = 170.0
MIN_REPS = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one repetition does; SMOKE is for the benchmark's own tests."""

    tag_counts: list[int]
    mpr_orders: list[int]
    trials: int
    paper_overrides: dict
    corpus_size: int
    l_max: int
    table_n: tuple[int, int, int]
    table_m_max: int
    curve_n: list[tuple[int, int]]
    curve_every: int


FULL = Sizes(
    tag_counts=list(range(100, 1001, 100)),
    mpr_orders=[1, 2, 3, 4],
    trials=20,
    paper_overrides={},
    corpus_size=2500,
    l_max=4096,
    table_n=(50, 5001, 50),
    table_m_max=8,
    curve_n=[(300, 400), (900, 1000), (1900, 2000), (4800, 5000)],
    curve_every=25,
)
SMOKE = Sizes(
    tag_counts=[100, 200],
    mpr_orders=[1, 2],
    trials=2,
    paper_overrides={"tag_counts": [100, 200], "mpr_orders": [1, 2]},
    corpus_size=40,
    l_max=128,
    table_n=(50, 201, 50),
    table_m_max=2,
    curve_n=[(20, 40)],
    curve_every=10,
)

#: calibration kernel of the sweeps and of the estimator corpus; the sweeps
#: mix run_frame and map_estimate, and calibrate best with "simulate"
SWEEP_KERNEL, ESTIMATE_KERNEL = "simulate", "scan"

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "slots_per_s": "1/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "protocol.run_frame.calls": "count",
    "protocol.run_frame.s": "s",
    "protocol.run_frame.us_per_call": "us",
    "protocol.run_interrogation.calls": "count",
    "protocol.run_interrogation.s": "s",
    "protocol.self_s": "s",
    "protocol.frames_per_trial_mean": "frames",
    "protocol.frames_per_trial_max": "frames",
    "protocol.slots_simulated": "slots",
    "estimator.map_estimate.calls": "count",
    "estimator.map_estimate.s": "s",
    "estimator.map_estimate.us_per_call": "us",
    "estimator.map_estimate.p50_us": "us",
    "estimator.map_estimate.p99_us": "us",
    "estimator.distinct_key_frac": "ratio",
    "estimator.all_collided_frac": "ratio",
    "estimator.posterior_curve.s": "s",
    "estimator.oracle_mismatches": "count",
    "frame_optimizer.next_frame_length.calls": "count",
    "frame_optimizer.next_frame_length.us_per_call": "us",
    "frame_optimizer.optimal_frame_length.calls": "count",
    "prob_model.channel_efficiency.calls": "count",
    "prob_model.channel_efficiency.us_per_call": "us",
    "harness.run_experiment.s": "s",
    "harness.trial_overhead_us": "us",
    "harness.cell_s_p50": "s",
    "harness.cell_s_max": "s",
    "harness.max_cell_share": "ratio",
    "harness.pool_efficiency": "ratio",
    "cli.main.s": "s",
    "cli.overhead_s": "s",
    "trace_overhead_frac": "ratio",
}


class Checks:
    """Operations attempted and failed, where a failed check counts as one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def operations(self, count: int, failed: bool, message: str = "") -> None:
        self.attempted += count
        if failed and count:
            self.failed += count
            self.messages.append(message)


class UnitRunner:
    """Runs perfbench/unit.py tasks, each in its own process group."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def __call__(self, task: dict) -> dict | None:
        cmd = [sys.executable, str(HERE / "unit.py"), json.dumps(task)]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        finally:
            # the unit's pool workers share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.checks.expect(False, f"unit {task['kind']} failed: {err.strip()[-2000:]}")
            return None
        return json.loads(lines[-1])


# ---------------------------------------------------------------- tasks


def _sweep_task(sizes: Sizes, variant: str, seed: int, **extra) -> dict:
    spec = {
        "tag_counts": sizes.tag_counts,
        "mpr_orders": sizes.mpr_orders,
        "initial_frame_lengths": [128],
        "variants": [variant],
        "trials": sizes.trials,
        "master_seed": seed,
    }
    return {"kind": "sweep", "spec": spec, "kernel": SWEEP_KERNEL, **extra}


def _paper_serial_task(sizes: Sizes, seed: int, **extra) -> dict:
    spec = {**sizes.paper_overrides, "trials": sizes.trials, "master_seed": seed}
    return {"kind": "sweep", "config": CONFIG, "spec": spec, "kernel": SWEEP_KERNEL, **extra}


def _workers() -> int:
    # the paper sweep runs at --parallel $(nproc), capped to keep memory small
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def _paper_cli_task(sizes: Sizes, seed: int, **extra) -> dict:
    overrides = []
    for key, values in sizes.paper_overrides.items():
        overrides += ["--" + key.replace("_", "-"), ",".join(map(str, values))]
    return {
        "kind": "cli", "config": CONFIG, "overrides": overrides,
        "trials": sizes.trials, "seed": seed, "parallel": _workers(),
        "kernel": SWEEP_KERNEL,
        "out": f"{OUT_DIR}/paper-{seed}.csv", **extra,
    }


def _estimate_task(sizes: Sizes, seed: int, **extra) -> dict:
    return {
        "kind": "estimate", "seed": [seed], "size": sizes.corpus_size,
        "l_max": sizes.l_max, "table_n": list(sizes.table_n),
        "table_m_max": sizes.table_m_max, "curve_n": [list(p) for p in sizes.curve_n],
        "curve_every": sizes.curve_every, "kernel": ESTIMATE_KERNEL, **extra,
    }


# ---------------------------------------------------------------- checks


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv_slots(rows: list[dict]) -> int:
    return sum(round(float(r["delay_mean"]) * int(r["trials"])) for r in rows)


def check_sweep_csv(checks: Checks, text: str, cells: int, trials: int) -> None:
    """Row count, trial count, read rate <= M and delay >= n/M on every row."""
    rows = _rows(text)
    checks.expect(len(rows) == cells, f"expected {cells} rows, got {len(rows)}")
    for r in rows:
        n, m = int(r["n"]), int(r["M"])
        cell = f"{r['variant']} n={n} M={m}"
        checks.expect(int(r["trials"]) == trials, f"{cell}: trials {r['trials']} != {trials}")
        checks.expect(float(r["read_rate_mean"]) <= m, f"{cell}: read rate above M")
        checks.expect(float(r["delay_mean"]) >= n / m, f"{cell}: delay below n/M")


def check_estimates(checks: Checks, block, results: list, oracle: bool) -> int:
    """Bounds on every estimate; with ``oracle``, n_hat against brute force. Returns mismatches."""
    from corpus import consistency_bound, oracle_mismatch

    checks.expect(len(results) == len(block), "estimate count differs from corpus size")
    mismatches = 0
    for obs, (n_hat, k_min, k_max) in zip(block, results):
        checks.expect(k_min == consistency_bound(obs), f"{obs}: k_min {k_min}")
        checks.expect(k_min <= n_hat <= k_max, f"{obs}: n_hat {n_hat} outside [{k_min}, {k_max}]")
        if oracle and not obs.all_collided and k_min <= n_hat <= k_max:
            bad = oracle_mismatch(obs, n_hat, k_min, k_max)
            mismatches += bad
            checks.expect(not bad, f"{obs}: n_hat {n_hat} is not the brute-force argmax")
    return mismatches


def check_closed_form(checks: Checks, result: dict, sizes: Sizes) -> None:
    start, stop, step = sizes.table_n
    table_rows = len(range(start, stop, step)) * sizes.table_m_max
    checks.expect(result["closed_form_rows"] > table_rows, "closed-form row count too small")
    checks.expect(
        0.0 <= result["efficiency_min"] and result["efficiency_max"] <= 1.0,
        f"efficiency outside [0, 1]: {result['efficiency_min']}..{result['efficiency_max']}",
    )
    checks.expect(result["curve_mass_error"] < 1e-9, "posterior curve does not sum to 1")


# ---------------------------------------------------------------- workloads


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    notes: list[str] = field(default_factory=list)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _repeat(run: UnitRunner, seconds: float, task: dict) -> list[dict | None]:
    """Run ``task`` until ``seconds`` have passed, at least MIN_REPS times."""
    stop = time.monotonic() + seconds
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() < stop:
        reps.append(run(task))
        if time.monotonic() > run.deadline - 30:
            break
    return reps


def timed_sweep(workload: str, seed: int, seconds: float, sizes: Sizes, checks: Checks) -> Outcome:
    run = UnitRunner(checks)
    if workload == "paper_parallel":
        task = _paper_cli_task(sizes, seed)
    else:
        variant = "fsa" if workload == "fsa_sweep" else "dfsa"
        task = _sweep_task(sizes, variant, seed, split_cells=True)
    reps = _repeat(run, seconds, task)
    done = [r for r in reps if r is not None and r.get("exit_code", 0) == 0]
    per_rep_trials = _cells(workload, sizes) * sizes.trials
    checks.operations(per_rep_trials * (len(reps) - len(done)), True, "repetitions failed")
    checks.operations(per_rep_trials * len(done), False)
    if not done:
        return Outcome({}, E2E_UNITS)
    reference = done[0]["csv"]
    check_sweep_csv(checks, reference, _cells(workload, sizes), sizes.trials)
    for r in done[1:]:
        checks.expect(r["csv"] == reference, "sweep CSV differs between repetitions")
    slots = done[0].get("slots") or _csv_slots(_rows(reference))
    checks.expect(slots > 0, "no slots simulated")
    factors = [r["host_factor"] for r in done]
    if workload == "paper_parallel":
        sweep_s = _median([r["run_s"] / f for r, f in zip(done, factors)])
        host_s = _median([r["run_s"] for r in done])
    else:
        # slowdowns of about a second hit single cells: the median of each
        # cell over the repetitions drops them
        def cells_total(scale: list[float]) -> float:
            per_rep = [[c / f for c in r["cell_s"]] for r, f in zip(done, scale)]
            return sum(_median(list(times)) for times in zip(*per_rep))

        sweep_s, host_s = cells_total(factors), cells_total([1.0] * len(done))
    metrics = {
        "setup_s": _median([r["setup_s"] for r in done]),
        "items_per_s": per_rep_trials / sweep_s,
        "slots_per_s": slots / sweep_s,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
    }
    notes = [
        f"trials_per_s {metrics['items_per_s']:.6g} 1/s (reference seconds)",
        f"sim_slots_per_s {metrics['slots_per_s']:.6g} 1/s (reference seconds)",
        f"host_trials_per_s {per_rep_trials / host_s:.6g} 1/s (host seconds)",
        f"host_factor {_median(factors):.4g} (median; 1 = reference speed)",
        f"repetitions {len(done)}, {per_rep_trials} trials each",
    ]
    return Outcome(metrics, E2E_UNITS, notes)


def timed_estimate(seed: int, seconds: float, sizes: Sizes, checks: Checks) -> Outcome:
    from corpus import sample_corpus

    run = UnitRunner(checks)
    reps = _repeat(run, seconds, _estimate_task(sizes, seed))
    done = [r for r in reps if r is not None]
    checks.operations(sizes.corpus_size * (len(reps) - len(done)), True, "repetitions failed")
    checks.operations(sizes.corpus_size * len(done), False)
    if not done:
        return Outcome({}, E2E_UNITS)
    block = sample_corpus([seed], sizes.corpus_size, sizes.l_max)
    check_estimates(checks, block, done[0]["results"], oracle=True)
    for r in done:
        check_closed_form(checks, r, sizes)
        checks.expect(r["results"] == done[0]["results"], "estimates differ between repetitions")
    factors = [r["host_factor"] for r in done]
    # every repetition replays the same block in a fresh process; the median
    # of each call over the repetitions drops the slowdowns that hit one
    per_rep = [[us / f for us in r["latency_us"]] for r, f in zip(done, factors)]
    latency = [_median(list(times)) for times in zip(*per_rep)]
    estimate_s = sum(latency) / 1e6
    host_latency = [_median(list(times)) for times in zip(*(r["latency_us"] for r in done))]
    metrics = {
        "setup_s": _median([r["setup_s"] for r in done]),
        "items_per_s": len(latency) / estimate_s,
        "slots_per_s": done[0]["slots"] / estimate_s,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
    }
    rows_per_s = _median([r["closed_form_rows"] / r["closed_form_s"] * f
                          for r, f in zip(done, factors)])
    notes = [
        f"estimates_per_s {metrics['items_per_s']:.6g} 1/s (reference seconds)",
        f"estimate_p50_us {_pct(latency, 50):.6g} us (reference, n={len(latency)})",
        f"estimate_p99_us {_pct(latency, 99):.6g} us (reference, n={len(latency)})",
        f"closed_form_rows_per_s {rows_per_s:.6g} 1/s (reference seconds)",
        f"host_estimates_per_s {len(host_latency) / (sum(host_latency) / 1e6):.6g} 1/s (host seconds)",
        f"host_factor {_median(factors):.4g} (median; 1 = reference speed)",
        f"repetitions {len(done)} of {len(latency)} distinct observations, "
        "per-call median over repetitions",
    ]
    return Outcome(metrics, E2E_UNITS, notes)


def _cells(workload: str, sizes: Sizes) -> int:
    grid = len(sizes.tag_counts) * len(sizes.mpr_orders)
    return 2 * grid if workload == "paper_parallel" else grid


def _overhead(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0


def traced_sweep(workload: str, seed: int, sizes: Sizes, checks: Checks) -> Outcome:
    """Reference run, untraced per-cell run (cell times), traced per-cell run (layers)."""
    run = UnitRunner(checks)
    spans_out = f"{OUT_DIR}/spans-{workload}.csv"
    if workload == "paper_parallel":
        reference = run(_paper_cli_task(sizes, seed, trace=True))
        make = lambda **kw: _paper_serial_task(sizes, seed, **kw)  # noqa: E731
    else:
        variant = "fsa" if workload == "fsa_sweep" else "dfsa"
        reference = run(_sweep_task(sizes, variant, seed))
        make = lambda **kw: _sweep_task(sizes, variant, seed, **kw)  # noqa: E731
    cells = run(make(split_cells=True))
    traced = run(make(split_cells=True, trace=True, spans_out=spans_out))
    trials = _cells(workload, sizes) * sizes.trials
    if reference is None or cells is None or traced is None:
        checks.operations(trials, True, "traced run failed")
        return Outcome({}, LAYER_UNITS)
    checks.operations(3 * trials, False)
    if workload == "paper_parallel":
        checks.expect(reference["exit_code"] == 0, "dfsa-mpr simulate failed")
        what = "parallel CSV differs from the serial CSV of the same spec"
    else:
        what = "per-cell CSV differs from the whole-spec CSV"
    check_sweep_csv(checks, reference["csv"], _cells(workload, sizes), sizes.trials)
    checks.expect(cells["csv"] == reference["csv"], what)
    checks.expect(traced["csv"] == reference["csv"], "traced CSV differs from untraced CSV")
    layers = dict(traced["layers"])
    checks.expect(layers["protocol.slots_simulated"] == traced["slots"],
                  "traced slot count differs from the sweep's delays")
    # the passes run in separate processes, so each is scaled by its host factor
    cells_f, traced_f, reference_f = (r["host_factor"] for r in (cells, traced, reference))
    cell_s = [c / cells_f for c in cells["cell_s"]]
    if workload == "paper_parallel":
        for name in ("cli.main.s", "cli.overhead_s", "harness.run_experiment.s"):
            layers[name] = reference["layers"][name]
        workers, sweep_wall = _workers(), reference["layers"]["harness.run_experiment.s"]
    else:
        workers, sweep_wall = 1, reference["run_s"]
    layers.update({
        "estimator.oracle_mismatches": 0,
        "harness.cell_s_p50": _median(cell_s),
        "harness.cell_s_max": max(cell_s),
        "harness.max_cell_share": max(cell_s) / sum(cell_s),
        # serial time of every cell over the workers' share of the wall time
        "harness.pool_efficiency": sum(cell_s) / (workers * sweep_wall / reference_f),
        "trace_overhead_frac": _overhead(traced["run_s"] / traced_f, cells["run_s"] / cells_f),
    })
    return Outcome(layers, LAYER_UNITS, [f"spans written to {spans_out}"])


def traced_estimate(seed: int, sizes: Sizes, checks: Checks) -> Outcome:
    from corpus import sample_corpus

    run = UnitRunner(checks)
    spans_out = f"{OUT_DIR}/spans-estimate_analyze.csv"
    plain = run(_estimate_task(sizes, seed))
    traced = run(_estimate_task(sizes, seed, trace=True, spans_out=spans_out))
    if plain is None or traced is None:
        checks.operations(sizes.corpus_size, True, "traced run failed")
        return Outcome({}, LAYER_UNITS)
    checks.operations(2 * len(plain["results"]), False)
    block = sample_corpus([seed], sizes.corpus_size, sizes.l_max)
    mismatches = check_estimates(checks, block, traced["results"], oracle=True)
    checks.expect(traced["results"] == plain["results"], "traced estimates differ from untraced")
    check_closed_form(checks, traced, sizes)

    def work_s(r: dict) -> float:
        total = r["run_s"] + r["closed_form_s"] + r["posterior_s"]
        return total / r["host_factor"]

    layers = dict(traced["layers"])
    layers.update({
        "estimator.oracle_mismatches": mismatches,
        "harness.cell_s_p50": 0.0,
        "harness.cell_s_max": 0.0,
        "harness.max_cell_share": 0.0,
        "harness.pool_efficiency": 0.0,
        "trace_overhead_frac": _overhead(work_s(traced), work_s(plain)),
    })
    return Outcome(layers, LAYER_UNITS, [f"spans written to {spans_out}"])


WORKLOADS = ("fsa_sweep", "dfsa_sweep", "paper_parallel", "estimate_analyze")


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, checks: Checks) -> Outcome:
    if trace:
        if name == "estimate_analyze":
            return traced_estimate(seed, sizes, checks)
        return traced_sweep(name, seed, sizes, checks)
    if name == "estimate_analyze":
        return timed_estimate(seed, seconds, sizes, checks)
    return timed_sweep(name, seed, seconds, sizes, checks)


def _missing_sources() -> list[str]:
    needed = [ROOT / "src" / "dfsa_mpr" / "__init__.py", ROOT / CONFIG]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    missing = _missing_sources()
    if missing:
        print(f"perfbench: not a dfsa_mpr checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    sizes = SMOKE if args.smoke else FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    checks = Checks()
    metrics: dict[str, dict] = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), sizes, checks)
        prefix = f"{name}/" if len(names) > 1 else ""
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for key, unit in outcome.units.items():
            if key in outcome.metrics:
                value = outcome.metrics[key]
                metrics[prefix + key] = {"value": value, "unit": unit}
                print(f"{key} {value:.6g} {unit}")
        for note in outcome.notes:
            print(note)
    error_rate = checks.failed / max(checks.attempted, 1)
    print(f"error_rate {error_rate:.6g} ({checks.failed} failed of {checks.attempted} attempted)")
    for message in checks.messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
