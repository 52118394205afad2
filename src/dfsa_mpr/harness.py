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
from dataclasses import astuple, dataclass, field, fields
from itertools import chain, islice, repeat, zip_longest
from operator import truediv
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .estimator import FrameObservation, population_estimates
from .frame_optimizer import optimal_frame_lengths
from .prob_model import (
    MprOrder,
    channel_efficiency,
    curve_chunks,
    require_count,
    require_curve_budget,
)
from .protocol import NonTerminationError, ProtocolConfig, Variant, run_interrogation

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
        # numpy elements become Python ints, which JSON can write
        keys = [
            (variant.value, int(n), int(m), int(l0))
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


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation; the deviation of one trial is 0."""
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std


def _run_cell(
    args: tuple[CellKey, int, int]
) -> tuple[CellKey, AggregateMetrics | NonTerminationError, int]:
    """The cell's metrics, and how many first-frame estimates are the cap
    10*L0*M; a trial that does not terminate is returned in place of the
    metrics, so that in a pool it does not end the other cells."""
    key, trials, master_seed = args
    variant_value, n, m, l0 = key
    mpr = MprOrder(m)
    config = ProtocolConfig(
        n=n, mpr=mpr, initial_frame_length=l0, variant=Variant(variant_value)
    )
    delays = np.empty(trials)
    first_frames = []
    for trial in range(trials):
        try:
            result = run_interrogation(config, _trial_rng(master_seed, key, trial))
        except NonTerminationError as exc:
            return key, exc, 0
        delays[trial] = result.total_slots
        # the one record of the trial that is read
        first_frames.append(FrameObservation(*result.tallies[0]))
    first_estimates = population_estimates(first_frames, mpr)
    estimates = np.array([e.n_hat for e in first_estimates], dtype=float)
    read_rates = n / delays
    errors = np.abs(estimates - n) / n * 100.0 if n > 0 else np.full(trials, math.nan)
    return key, AggregateMetrics(
        trials, *_mean_std(read_rates), *_mean_std(delays), *_mean_std(errors)
    ), sum(e.saturated for e in first_estimates)


def run_experiment(
    spec: ExperimentSpec, parallel: int = 1, progress: bool = False
) -> dict[CellKey, AggregateMetrics]:
    """Run every cell of the sweep; rows come back sorted by cell key. With
    ``progress``, each cell prints a line on stderr when it ends, noting any
    estimates at the cap.

    A cell whose trial exceeds the frame safety cap has no row, and every
    other cell still runs. After the last cell such a sweep raises one
    ``NonTerminationError``, with one line per failed cell, whose ``table``
    holds the rows of the cells that finished.
    """
    require_count("parallel", parallel, 1)
    cells = spec.cells()
    jobs = [(key, int(spec.trials), spec.master_seed) for key in cells]
    results: dict[CellKey, AggregateMetrics] = {}
    failures = []
    # no more workers than cells or the CPUs this process may run on; with
    # one, the cells run in this process
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(parallel, len(cells), cpus)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # both maps yield in job order, so the rows stay sorted
        cell_map = pool.map if pool else map
        for i, (key, metrics, at_cap) in enumerate(cell_map(_run_cell, jobs), 1):
            if isinstance(metrics, NonTerminationError):
                failures.append(str(metrics))
                outcome = "failed"
            else:
                results[key] = metrics
                note = f"; {at_cap} of {spec.trials} first-frame estimates at the cap 10*L0*M"
                outcome = f"done{note if at_cap else ''}"
            if progress:
                print(f"[{i}/{len(cells)}] {key} {outcome}", file=sys.stderr)
    if failures:
        error = NonTerminationError("\n".join(failures))
        error.table = results
        raise error
    return results


def _rows(table: Mapping[CellKey, AggregateMetrics]) -> list[tuple]:
    """One tuple per cell in ``CSV_COLUMNS`` order, sorted by cell key."""
    return [(*key, *astuple(table[key])) for key in sorted(table)]


def csv_lines(columns: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """CSV lines, each ending in a newline: a header line of ``columns``, then
    one line per row, as the rows are read. A float is written to 6
    significant digits (``.6g``), any other value with ``str``."""
    yield ",".join(columns) + "\n"
    # one format string per sequence of value types, so a row is one format call
    formats: dict[tuple, str] = {}
    for row in rows:
        types = tuple(map(type, row))
        line = formats.get(types)
        if line is None:
            line = formats[types] = ",".join(
                "{:.6g}" if issubclass(t, float) else "{!s}" for t in types) + "\n"
        yield line.format(*row)


#: lines joined at a time, by the text forms here and by the CLI's writes: a
#: write per line costs more than the join, and one join of every line holds
#: every line's string at once
_LINES_PER_JOIN = 4096


def joined_lines(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined ``_LINES_PER_JOIN`` at a time, as they come."""
    lines = iter(lines)
    return iter(lambda: "".join(islice(lines, _LINES_PER_JOIN)), "")


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text of ``csv_lines``."""
    return "".join(joined_lines(csv_lines(columns, rows)))


def render_csv(table: Mapping[CellKey, AggregateMetrics]) -> str:
    return csv_text(CSV_COLUMNS, _rows(table))


def _json_value(value):
    """A float to 6 significant digits, as in the CSV, or None where it is not finite."""
    if not isinstance(value, float):
        return value
    return float(f"{value:.6g}") if math.isfinite(value) else None


def render_json(table: Mapping[CellKey, AggregateMetrics]) -> str:
    """Strict JSON: a non-finite metric (the error of an n = 0 cell) is null."""
    records = [dict(zip(CSV_COLUMNS, map(_json_value, row))) for row in _rows(table)]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"


def _chunked_rows(values: Sequence, rows_of: Callable[[Sequence], Iterable]) -> Iterator:
    """The rows ``rows_of(chunk)`` over each chunk of ``values`` in turn. The
    first chunk is built in the call, so a refusal that every chunk would meet
    (the kernel's bound on M) raises before any line is written."""
    chunks = map(rows_of, curve_chunks(values))
    return chain(next(chunks, []), chain.from_iterable(chunks))


def optimal_length_lines(tag_counts: Sequence[int], mpr_orders: Sequence[int]) -> Iterator[str]:
    """CSV lines of the optimal frame length and its efficiency over an (n, M)
    grid, built one chunk of tag counts at a time; every argument is checked
    in the call."""
    mprs = [MprOrder(m) for m in mpr_orders]
    # every row priced at the largest M, which bounds the table's kernel work
    require_curve_budget("an optimal-length table", len(tag_counts) * len(mprs),
                         max((mpr.M for mpr in mprs), default=0))
    for n in tag_counts:
        require_count("tag count", n, 0)
    if len(tag_counts) and mprs:
        try:
            float(max(tag_counts))  # each row's raw optimum is a float
        except OverflowError:
            raise ValueError("tag count is too large to convert to a float") from None

    def rows_of(chunk: Sequence[int]) -> list[tuple]:
        columns = []
        for mpr in mprs:
            lengths, raws = optimal_frame_lengths(chunk, mpr)
            efficiencies = channel_efficiency(list(map(truediv, chunk, lengths)), mpr.M)
            columns.append(zip(chunk, repeat(mpr.M), raws, lengths, efficiencies.tolist()))
        # rows run over n, and over M within each n
        return list(chain.from_iterable(zip(*columns)))

    return csv_lines(["n", "M", "raw_optimum", "length", "efficiency"],
                     _chunked_rows(tag_counts, rows_of))


def optimal_length_table(tag_counts: Sequence[int], mpr_orders: Sequence[int]) -> str:
    """The text of ``optimal_length_lines``."""
    return "".join(joined_lines(optimal_length_lines(tag_counts, mpr_orders)))


def efficiency_curve_lines(
    n: int, mpr: MprOrder, max_length: Optional[int] = None
) -> Iterator[str]:
    """CSV lines of channel efficiency versus integer frame length, for one
    (n, M), built one chunk of lengths at a time; every argument is checked
    in the call."""
    require_count("tag count", n, 0)
    if max_length is None:
        max_length = max(4 * n, 1)
    require_count("max length", max_length, 1)
    require_curve_budget("an efficiency curve", max_length, mpr.M)

    def rows_of(chunk: range) -> Iterator[tuple[int, float]]:
        lengths = np.arange(chunk.start, chunk.stop)
        return zip(lengths.tolist(), channel_efficiency(n / lengths, mpr.M).tolist())

    return csv_lines(["L", "efficiency"], _chunked_rows(range(1, max_length + 1), rows_of))


def efficiency_curve(n: int, mpr: MprOrder, max_length: Optional[int] = None) -> str:
    """The text of ``efficiency_curve_lines``."""
    return "".join(joined_lines(efficiency_curve_lines(n, mpr, max_length)))
