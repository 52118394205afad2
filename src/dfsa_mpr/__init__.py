"""DFSA RFID anticollision simulator and analysis library for MPR-capable readers."""

from .estimator import (
    FrameObservation,
    MapEstimate,
    log_posterior,
    map_estimate,
    posterior_curve,
)
from .frame_optimizer import (
    FramePlan,
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
    Load,
    MprOrder,
    SlotProbabilities,
    channel_efficiency,
    slot_probabilities,
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
    "FramePlan",
    "InterrogationResult",
    "Load",
    "MapEstimate",
    "MprOrder",
    "NonTerminationError",
    "ProtocolConfig",
    "SlotProbabilities",
    "Variant",
    "channel_efficiency",
    "log_posterior",
    "map_estimate",
    "next_frame_length",
    "optimal_frame_length",
    "posterior_curve",
    "render_csv",
    "render_json",
    "run_experiment",
    "run_frame",
    "run_interrogation",
    "slot_probabilities",
]
