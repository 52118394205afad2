"""Monte Carlo sweep runner, result rendering and closed-form tables.

Runs repeated interrogations over a grid of (variant, n, M, L0) cells,
aggregates read rate, identification delay and first-frame estimation error,
and renders the table as CSV or JSON text (the CLI writes it out). Every
element of an ``ExperimentSpec`` is checked when the spec is built, so a
sweep that starts does not abort on a bad cell. Per-trial RNG streams are
derived from the master seed and the cell key, so results are reproducible
and independent of execution order and of the worker count.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest
from typing import Mapping, Optional

import numpy as np

from .estimator import population_estimate
from .frame_optimizer import optimal_frame_length
from .prob_model import MprOrder, channel_efficiency, require_count
from .protocol import ProtocolConfig, Variant, run_interrogation

#: cell key: (variant value, n, M, L0)
CellKey = tuple[str, int, int, int]


@dataclass(frozen=True)
class ExperimentSpec:
    tag_counts: list[int]
    mpr_orders: list[int]
    initial_frame_lengths: list[int]
    variants: list[Variant] = field(default_factory=lambda: [Variant.DFSA])
    trials: int = 500
    master_seed: int = 1

    def __post_init__(self) -> None:
        for name in ("tag_counts", "mpr_orders", "initial_frame_lengths", "variants"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} must be a non-empty list, got {values!r}")
        if not all(isinstance(v, Variant) for v in self.variants):
            raise ValueError(f"variants must be Variant members, got {self.variants!r}")
        require_count("trials", self.trials, 1)
        require_count("master seed", self.master_seed, 0)
        # each element meets a cell's ProtocolConfig checks; 1 fills the shorter lists
        for n, m, l0 in zip_longest(
            self.tag_counts, self.mpr_orders, self.initial_frame_lengths, fillvalue=1
        ):
            ProtocolConfig(n=n, mpr=MprOrder(m), initial_frame_length=l0)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentSpec":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        # a scalar is left for __post_init__ to reject, not iterated as a string
        if isinstance(kwargs.get("variants"), (list, tuple)):
            kwargs["variants"] = [Variant(str(v).lower()) for v in kwargs["variants"]]
        return cls(**kwargs)

    def cells(self) -> list[CellKey]:
        keys = [
            (variant.value, n, m, l0)
            for variant in self.variants
            for n in self.tag_counts
            for m in self.mpr_orders
            for l0 in self.initial_frame_lengths
        ]
        return sorted(set(keys))


@dataclass(frozen=True)
class AggregateMetrics:
    trials: int
    read_rate_mean: float
    read_rate_std: float
    delay_mean: float
    delay_std: float
    est_err_pct_mean: float
    est_err_pct_std: float


#: the CSV header: the cell key, then the metrics in field order
CSV_COLUMNS = ["variant", "n", "M", "L0", *(f.name for f in fields(AggregateMetrics))]


def _trial_rng(master_seed: int, key: CellKey, trial: int) -> np.random.Generator:
    variant_code = 0 if key[0] == Variant.FSA.value else 1
    seq = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(variant_code, key[1], key[2], key[3], trial)
    )
    return np.random.default_rng(seq)


def _std(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _run_cell(args: tuple[CellKey, int, int]) -> tuple[CellKey, AggregateMetrics]:
    key, trials, master_seed = args
    variant_value, n, m, l0 = key
    mpr = MprOrder(m)
    config = ProtocolConfig(
        n=n, mpr=mpr, initial_frame_length=l0, variant=Variant(variant_value)
    )
    delays = np.empty(trials)
    estimates = np.empty(trials)
    for trial in range(trials):
        result = run_interrogation(config, _trial_rng(master_seed, key, trial))
        delays[trial] = result.total_slots
        estimates[trial] = population_estimate(result.frames[0], mpr)
    read_rates = n / delays
    errors = np.abs(estimates - n) / n * 100.0 if n > 0 else np.full(trials, math.nan)
    metrics = AggregateMetrics(
        trials=trials,
        read_rate_mean=float(read_rates.mean()),
        read_rate_std=_std(read_rates),
        delay_mean=float(delays.mean()),
        delay_std=_std(delays),
        est_err_pct_mean=float(errors.mean()),
        est_err_pct_std=_std(errors),
    )
    return key, metrics


def run_experiment(
    spec: ExperimentSpec, parallel: int = 1, progress: bool = False
) -> dict[CellKey, AggregateMetrics]:
    """Run every cell of the sweep; rows come back sorted by cell key."""
    cells = spec.cells()
    jobs = [(key, spec.trials, spec.master_seed) for key in cells]
    results: dict[CellKey, AggregateMetrics] = {}
    # no more workers than cells or CPUs; with one, the cells run in this process
    workers = min(parallel, len(cells), os.cpu_count() or 1)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # both maps yield in job order, so the rows stay sorted
        cell_map = pool.map if pool else map
        for i, (key, metrics) in enumerate(cell_map(_run_cell, jobs), 1):
            results[key] = metrics
            if progress:
                print(f"[{i}/{len(cells)}] {key} done", file=sys.stderr)
    return results


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _rows(table: Mapping[CellKey, AggregateMetrics]) -> list[dict]:
    rows = []
    for key in sorted(table):
        variant, n, m, l0 = key
        record = {"variant": variant, "n": n, "M": m, "L0": l0}
        record.update(asdict(table[key]))
        rows.append(record)
    return rows


def render_csv(table: Mapping[CellKey, AggregateMetrics]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in _rows(table):
        lines.append(",".join(_format_value(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(table: Mapping[CellKey, AggregateMetrics]) -> str:
    """Strict JSON: a non-finite metric (the error of an n = 0 cell) is null."""
    rows = _rows(table)
    for row in rows:
        for col, value in row.items():
            if isinstance(value, float):
                row[col] = float(f"{value:.6g}") if math.isfinite(value) else None
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def optimal_length_table(tag_counts: list[int], mpr_orders: list[int]) -> str:
    """CSV table of the optimal frame length and its efficiency over an (n, M) grid."""
    columns = []
    for m in mpr_orders:
        mpr = MprOrder(m)
        plans = [optimal_frame_length(n, mpr) for n in tag_counts]
        loads = [n / plan.length for n, plan in zip(tag_counts, plans)]
        columns.append(list(zip(plans, channel_efficiency(loads, m).tolist())))
    lines = ["n,M,raw_optimum,length,efficiency"]
    for i, n in enumerate(tag_counts):
        for m, column in zip(mpr_orders, columns):
            plan, eff = column[i]
            lines.append(f"{n},{m},{plan.raw_optimum:.6g},{plan.length},{eff:.6g}")
    return "\n".join(lines) + "\n"


def efficiency_curve(n: int, mpr: MprOrder, max_length: Optional[int] = None) -> str:
    """CSV of channel efficiency versus integer frame length, for one (n, M)."""
    require_count("tag count", n, 0)
    if max_length is None:
        max_length = max(4 * n, 1)
    require_count("max length", max_length, 1)
    lengths = np.arange(1, max_length + 1)
    efficiency = channel_efficiency(n / lengths, mpr.M)
    lines = ["L,efficiency"]
    for length, eff in zip(lengths.tolist(), efficiency.tolist()):
        lines.append(f"{length},{eff:.6g}")
    return "\n".join(lines) + "\n"

