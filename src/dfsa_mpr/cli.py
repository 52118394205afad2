"""Command-line front end: simulate sweeps, tabulate closed forms, run the estimator.

Exit codes: 0 on success, 1 on bad configuration or arguments, an output path
that cannot be written, arguments too large to hold in memory or kernel
work past its budget, 2 on a runtime diagnostic (the non-termination safety
cap). Only ``main`` turns an error into an exit code and one ``dfsa-mpr``
line on stderr (after the usage line, for argparse errors), never a
traceback. ``simulate`` checks its spec and opens its output file before the
sweep; a cell that does not terminate leaves out its row, every other row is
written, and each such cell gets its own ``dfsa-mpr`` line before the exit 2.
``estimate`` writes its curve file before it prints. A curve or table is
checked, and its first chunk built, before its file is opened; its lines are
then written as they are built, so it holds one chunk of rows at a time.
Progress goes to stderr; data to the file or stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional

import yaml

from .estimator import FrameObservation, population_estimates, posterior_curve
from .harness import (
    ExperimentSpec,
    _joined_lines,
    csv_lines,
    efficiency_curve_lines,
    optimal_length_lines,
    render_csv,
    render_json,
    run_experiment,
)
from .prob_model import MprOrder
from .protocol import NonTerminationError


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_int_list(text: str) -> list[int]:
    """Parse '100,200,300' or 'start:stop:step' (stop inclusive) into a non-empty list."""
    text = text.strip()
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad range syntax: {text!r}")
        if step < 1:
            raise ValueError(f"range step must be >= 1 in {text!r}")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


#: simulate flags that override a config key: (flag, spec key, parser, help)
_OVERRIDES = [
    ("--tag-counts", "tag_counts", parse_int_list, "list or start:stop:step"),
    ("--mpr-orders", "mpr_orders", parse_int_list, "list of M values"),
    ("--initial-frame-lengths", "initial_frame_lengths", parse_int_list, "list of L0 values"),
    ("--variants", "variants", lambda text: [v.strip() for v in text.split(",") if v.strip()],
     "comma list of fsa/dfsa"),
    ("--trials", "trials", int, "trials per cell"),
    ("--seed", "master_seed", int, "master seed"),
]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dfsa-mpr")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--config", help="YAML experiment spec")
    for flag, _, _, text in _OVERRIDES:
        sim.add_argument(flag, help=f"override: {text}")
    sim.add_argument("--out", help="output file (default stdout)")
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument(
        "--parallel", type=int, default=1, help="worker processes (at most one per cell and CPU)"
    )

    ana = sub.add_parser("analyze", help="closed-form tables and curves")
    ana.set_defaults(run=_cmd_analyze)
    mode = ana.add_mutually_exclusive_group(required=True)
    mode.add_argument("--optimal-length", action="store_true")
    mode.add_argument("--efficiency-curve", action="store_true")
    ana.add_argument("--tag-counts", default="100", help="list or start:stop:step")
    ana.add_argument("--mpr-orders", default="1,2,3,4")
    ana.add_argument("--max-length", type=int, help="curve: largest L (default 4n)")
    ana.add_argument("--out", help="output file (default stdout)")

    est = sub.add_parser("estimate", help="MAP population estimate for one frame")
    est.set_defaults(run=_cmd_estimate)
    for tally in "LESCM":
        est.add_argument(f"--{tally}", type=int, required=True)
    est.add_argument(
        "--identified",
        type=int,
        help="tags decoded across the S success slots (default S)",
    )
    est.add_argument("--curve-out", help="write the normalized posterior as CSV")
    est.add_argument("--curve-k-max", type=int, help="largest k in the emitted curve")
    return parser


def _load_spec(args) -> ExperimentSpec:
    """The spec from --config and the flags; a fault raises ValueError("bad config: ...")."""
    try:
        raw: dict = {}
        if args.config:
            with open(args.config) as handle:
                loaded = yaml.safe_load(handle)
            if not isinstance(loaded, dict):
                raise ValueError(f"config {args.config} must be a mapping")
            raw.update(loaded)
        for flag, key, parse, _ in _OVERRIDES:
            text = getattr(args, flag[2:].replace("-", "_"))
            if text is not None:
                try:
                    raw[key] = parse(text)
                except ValueError as exc:
                    raise ValueError(f"{flag}: {exc}") from None
        return ExperimentSpec.from_dict(raw)
    except (ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        raise ValueError(f"bad config: {exc}") from exc


def _write(lines: Iterable[str], path: Optional[str]) -> None:
    """Write ``lines`` to ``path`` or stdout as they come, one write per
    ``_joined_lines`` batch; OSError -> ValueError("cannot write output: ...")."""
    batches = _joined_lines(lines)
    if not path:
        sys.stdout.writelines(batches)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.writelines(batches)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc


def _cmd_simulate(args) -> None:
    spec = _load_spec(args)
    # create the output file now, so that a path that cannot be written fails
    # before the sweep rather than after it
    _write([], args.out)
    render = render_csv if args.format == "csv" else render_json
    try:
        table = run_experiment(spec, parallel=args.parallel, progress=True)
    except NonTerminationError as exc:
        # the cells that finished are written before the failures are reported
        _write([render(exc.table)], args.out)
        raise
    _write([render(table)], args.out)


def _cmd_analyze(args) -> None:
    tag_counts = parse_int_list(args.tag_counts)
    mpr_orders = parse_int_list(args.mpr_orders)
    if args.optimal_length:
        lines = optimal_length_lines(tag_counts, mpr_orders)
    elif len(tag_counts) != 1 or len(mpr_orders) != 1:
        raise ValueError("--efficiency-curve takes a single n and a single M")
    else:
        lines = efficiency_curve_lines(tag_counts[0], MprOrder(mpr_orders[0]), args.max_length)
    _write(lines, args.out)


def _cmd_estimate(args) -> None:
    identified = args.identified if args.identified is not None else args.S
    obs = FrameObservation(L=args.L, E=args.E, S=args.S, C=args.C, identified=identified)
    mpr = MprOrder(args.M)
    [estimate] = population_estimates([obs], mpr)
    if args.curve_out:
        k_min = estimate.k_min
        k_max = args.curve_k_max
        if k_max is None:
            k_max = max(2 * estimate.n_hat + 10, k_min + 100)
        if k_max < k_min:
            raise ValueError(f"curve k max {k_max} below lower bound {k_min}")
        # written before any output; a refused curve leaves no file
        curve = posterior_curve(obs, mpr, range(k_min, k_max + 1))
        _write(csv_lines(["k", "probability"], curve), args.curve_out)
    print(estimate.n_hat)
    if estimate.saturated:
        print(
            f"dfsa-mpr: note: the estimate is the search cap k_max = 10*L*M = {estimate.k_max};"
            " the frame is consistent with any larger population",
            file=sys.stderr,
        )


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.run(args)
    except NonTerminationError as exc:
        for line in str(exc).splitlines():
            print(f"dfsa-mpr: {line}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"dfsa-mpr: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("dfsa-mpr: not enough memory for these arguments", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
