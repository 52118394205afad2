"""One unit of benchmark work, run in a fresh interpreter.

Usage: python3 perfbench/unit.py '<task JSON>'

The task is one repetition of a workload, or one pass of a traced run. Each
unit is its own process, so state cached in the package (a memo, say) cannot
carry from one repetition into the next, as it could not between two user
invocations. The unit times its own set-up (package import plus input
construction) and its work, and prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_START = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dfsa_mpr  # noqa: E402  (timed as part of set-up)
from dfsa_mpr import cli, estimator, frame_optimizer, harness, prob_model, protocol  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402
from calibration import Calibrator  # noqa: E402

PACKAGE_MODULES = [dfsa_mpr, cli, estimator, frame_optimizer, harness, prob_model, protocol]


#: slices on each side of a sweep that has no cells to split it
SLICES_AROUND = 20
#: MAP estimates between two calibration slices
ESTIMATES_PER_SLICE = 50


def _check_import_location() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(dfsa_mpr.__file__).resolve().parents:
        raise SystemExit(f"dfsa_mpr imported from {dfsa_mpr.__file__}, not from {src}")


class Counters:
    """Work counted at the traced boundaries, from arguments and results."""

    def __init__(self) -> None:
        self.frames_per_trial: list[int] = []
        self.slots = 0
        self.estimate_keys: list[tuple[int, int, int, int, int]] = []
        self.all_collided = 0

    def interrogation(self, args, result) -> None:
        self.frames_per_trial.append(len(result.frames))
        self.slots += result.total_slots

    def estimate(self, args, result) -> None:
        obs, mpr = args[0], args[1]
        self.estimate_keys.append((obs.L, obs.E, obs.S, obs.C, mpr.M))
        self.all_collided += obs.E == 0 and obs.S == 0


def _layer_targets(counters: Counters) -> dict:
    return {
        "protocol.run_frame": (protocol, "run_frame", None),
        "protocol.run_interrogation": (protocol, "run_interrogation", counters.interrogation),
        "estimator.map_estimate": (estimator, "map_estimate", counters.estimate),
        "estimator.posterior_curve": (estimator, "posterior_curve", None),
        "frame_optimizer.next_frame_length": (frame_optimizer, "next_frame_length", None),
        "frame_optimizer.optimal_frame_length": (frame_optimizer, "optimal_frame_length", None),
        "prob_model.channel_efficiency": (prob_model, "channel_efficiency", None),
        "harness.run_experiment": (harness, "run_experiment", None),
    }


def _parent_targets() -> dict:
    # only the calls made in this process: pool workers fork from it, and
    # wrapped protocol functions there would slow them with spans nobody reads
    return {
        "cli.main": (cli, "main", None),
        "harness.run_experiment": (harness, "run_experiment", None),
    }


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: spans.Tracer, counters: Counters, trials: int) -> dict[str, float]:
    """Per-layer figures from the spans and counters of one traced pass."""
    summary = spans.summarize(tracer.spans)

    def get(name: str) -> dict:
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})

    def per_call_us(entry: dict) -> float:
        return entry["s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0

    frame = get("protocol.run_frame")
    interrogation = get("protocol.run_interrogation")
    estimate = get("estimator.map_estimate")
    next_length = get("frame_optimizer.next_frame_length")
    efficiency = get("prob_model.channel_efficiency")
    experiment = get("harness.run_experiment")
    main = get("cli.main")
    frames = counters.frames_per_trial
    keys = counters.estimate_keys
    estimate_us = [d * 1e6 for d in estimate["durations"]]
    return {
        "protocol.run_frame.calls": frame["calls"],
        "protocol.run_frame.s": frame["s"],
        "protocol.run_frame.us_per_call": per_call_us(frame),
        "protocol.run_interrogation.calls": interrogation["calls"],
        "protocol.run_interrogation.s": interrogation["s"],
        "protocol.self_s": interrogation["self_s"],
        "protocol.frames_per_trial_mean": sum(frames) / len(frames) if frames else 0.0,
        "protocol.frames_per_trial_max": max(frames, default=0),
        "protocol.slots_simulated": counters.slots,
        "estimator.map_estimate.calls": estimate["calls"],
        "estimator.map_estimate.s": estimate["s"],
        "estimator.map_estimate.us_per_call": per_call_us(estimate),
        "estimator.map_estimate.p50_us": _quantile(estimate_us, 50),
        "estimator.map_estimate.p99_us": _quantile(estimate_us, 99),
        "estimator.distinct_key_frac": len(set(keys)) / len(keys) if keys else 0.0,
        "estimator.all_collided_frac": counters.all_collided / len(keys) if keys else 0.0,
        "estimator.posterior_curve.s": get("estimator.posterior_curve")["s"],
        "frame_optimizer.next_frame_length.calls": next_length["calls"],
        "frame_optimizer.next_frame_length.us_per_call": per_call_us(next_length),
        "frame_optimizer.optimal_frame_length.calls": get("frame_optimizer.optimal_frame_length")["calls"],
        "prob_model.channel_efficiency.calls": efficiency["calls"],
        "prob_model.channel_efficiency.us_per_call": per_call_us(efficiency),
        "harness.run_experiment.s": experiment["s"],
        "harness.trial_overhead_us": experiment["self_s"] / trials * 1e6 if trials else 0.0,
        "cli.main.s": main["s"],
        "cli.overhead_s": main["self_s"],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest waited-for one
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _spec(task: dict) -> harness.ExperimentSpec:
    raw = dict(task.get("spec", {}))
    if "config" in task:
        import yaml

        with open(ROOT / task["config"]) as handle:
            raw = {**yaml.safe_load(handle), **raw}
    return harness.ExperimentSpec.from_dict(raw)


def _slots(table) -> int:
    return sum(round(m.delay_mean * m.trials) for m in table.values())


def run_sweep(task: dict) -> dict:
    """A serial sweep: the whole spec in one call, or one call per cell."""
    spec = _spec(task)
    setup_s = time.perf_counter() - SETUP_START
    cell_s: list[float] = []
    calibrator = Calibrator(task["kernel"])
    if task.get("split_cells"):
        calibrator.slice()
        table = {}
        for variant, n, m, l0 in spec.cells():
            one = harness.ExperimentSpec(
                tag_counts=[n],
                mpr_orders=[m],
                initial_frame_lengths=[l0],
                variants=[protocol.Variant(variant)],
                trials=spec.trials,
                master_seed=spec.master_seed,
            )
            cell_start = time.perf_counter()
            table.update(harness.run_experiment(one))
            cell_s.append(time.perf_counter() - cell_start)
            calibrator.slice()
        table = {key: table[key] for key in sorted(table)}
        run_s = sum(cell_s)
    else:
        for _ in range(SLICES_AROUND):
            calibrator.slice()
        start = time.perf_counter()
        table = harness.run_experiment(spec)
        run_s = time.perf_counter() - start
        for _ in range(SLICES_AROUND):
            calibrator.slice()
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "cell_s": cell_s,
        "host_factor": calibrator.host_factor(),
        "trials": len(spec.cells()) * spec.trials,
        "slots": _slots(table),
        "csv": harness.render_csv(table),
    }


def run_cli(task: dict) -> dict:
    """``dfsa-mpr simulate`` in-process through ``cli.main``, with a process pool."""
    out = ROOT / task["out"]
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = ["simulate", "--config", task["config"], *task.get("overrides", []),
            "--trials", str(task["trials"]), "--seed", str(task["seed"]),
            "--parallel", str(task["parallel"]), "--out", str(out)]
    setup_s = time.perf_counter() - SETUP_START
    # the sweep runs in pool workers; slices taken meanwhile would compete
    # with them, so the host is sampled on both sides of it
    calibrator = Calibrator(task["kernel"])
    for _ in range(SLICES_AROUND):
        calibrator.slice()
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    for _ in range(SLICES_AROUND):
        calibrator.slice()
    text = out.read_text() if code == 0 else ""
    out.unlink(missing_ok=True)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "host_factor": calibrator.host_factor(),
        "exit_code": code,
        "csv": text,
    }


def _curve_pairs(seed: list[int], tag_counts: list[list[int]]) -> list[tuple[int, int]]:
    import numpy as np

    rng = np.random.default_rng([*seed, 1])
    return [(int(rng.integers(lo, hi + 1)), int(rng.integers(1, corpus.M_MAX + 1)))
            for lo, hi in tag_counts]


def run_estimate(task: dict) -> dict:
    """MAP estimates over a corpus block, then the closed-form tables and curves."""
    block = corpus.sample_corpus(task["seed"], task["size"], task["l_max"])
    frames = [(estimator.FrameObservation(o.L, o.E, o.S, o.C, o.identified),
               prob_model.MprOrder(o.M)) for o in block]
    table_n = list(range(*task["table_n"]))
    table_m = list(range(1, task["table_m_max"] + 1))
    pairs = _curve_pairs(task["seed"], task["curve_n"])
    setup_s = time.perf_counter() - SETUP_START

    clock = time.perf_counter
    latency_us: list[float] = []
    results: list[list[int]] = []
    calibrator = Calibrator(task["kernel"])
    calibrator.slice()
    for i, (obs, mpr) in enumerate(frames, 1):
        a = clock()
        est = estimator.map_estimate(obs, mpr)
        b = clock()
        latency_us.append((b - a) * 1e6)
        results.append([est.n_hat, est.k_min, est.k_max])
        if i % ESTIMATES_PER_SLICE == 0:
            calibrator.slice()

    start = clock()
    texts = [harness.optimal_length_table(table_n, table_m)]
    texts += [harness.efficiency_curve(n, prob_model.MprOrder(m)) for n, m in pairs]
    closed_form_s = clock() - start
    efficiencies = [float(line.rsplit(",", 1)[1])
                    for text in texts for line in text.splitlines()[1:]]

    # curves on every curve_every-th frame in order of n_hat, so their sizes,
    # and the memory they take, are alike from seed to seed
    ranked = sorted((i for i, o in enumerate(block) if not o.all_collided),
                    key=lambda i: results[i][0])
    start = clock()
    curve_mass_error = 0.0
    for i in ranked[task["curve_every"] // 2::task["curve_every"]]:
        n_hat, k_min, _ = results[i]
        curve = estimator.posterior_curve(
            frames[i][0], frames[i][1], range(k_min, max(2 * n_hat + 10, k_min + 100) + 1)
        )
        curve_mass_error = max(curve_mass_error, abs(sum(p for _, p in curve) - 1.0))
    posterior_s = clock() - start
    return {
        "setup_s": setup_s,
        "run_s": sum(latency_us) / 1e6,
        "host_factor": calibrator.host_factor(),
        "latency_us": latency_us,
        "results": results,
        "slots": sum(o.L for o in block),
        "closed_form_rows": len(efficiencies),
        "closed_form_s": closed_form_s,
        "efficiency_min": min(efficiencies),
        "efficiency_max": max(efficiencies),
        "posterior_s": posterior_s,
        "curve_mass_error": curve_mass_error,
    }


RUNNERS = {"sweep": run_sweep, "cli": run_cli, "estimate": run_estimate}


def main(task: dict) -> dict:
    _check_import_location()
    runner = RUNNERS[task["kind"]]
    if not task.get("trace"):
        result = runner(task)
    else:
        tracer, counters = spans.Tracer(), Counters()
        targets = _parent_targets() if task["kind"] == "cli" else _layer_targets(counters)
        with tracer.instrument(PACKAGE_MODULES, targets):
            result = runner(task)
        result["layers"] = layer_metrics(tracer, counters, result.get("trials", 0))
        if task.get("spans_out"):
            path = ROOT / task["spans_out"]
            path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(str(path))
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
