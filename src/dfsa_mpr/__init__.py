"""DFSA RFID anticollision simulator and analysis library for MPR-capable readers."""

from .estimator import (
    FrameObservation,
    MapEstimate,
    map_estimate,
    population_estimates,
    posterior_curve,
)
from .frame_optimizer import (
    next_frame_length,
    optimal_frame_length,
)
from .harness import (
    AggregateMetrics,
    ExperimentSpec,
    render_csv,
    render_json,
    run_experiment,
)
from .prob_model import (
    MprOrder,
    channel_efficiency,
)
from .protocol import (
    InterrogationResult,
    NonTerminationError,
    ProtocolConfig,
    Variant,
    run_frame,
    run_interrogation,
)

__all__ = [
    "AggregateMetrics",
    "ExperimentSpec",
    "FrameObservation",
    "InterrogationResult",
    "MapEstimate",
    "MprOrder",
    "NonTerminationError",
    "ProtocolConfig",
    "Variant",
    "channel_efficiency",
    "map_estimate",
    "next_frame_length",
    "optimal_frame_length",
    "population_estimates",
    "posterior_curve",
    "render_csv",
    "render_json",
    "run_experiment",
    "run_frame",
    "run_interrogation",
]
