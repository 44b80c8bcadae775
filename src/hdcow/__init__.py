"""High-dimensional one-way time-bin QKD: protocol simulator, channel
Monte Carlo, security bounds, and key-rate analysis."""

__version__ = "0.1.0"

from .channel import (
    ClickStream,
    PhysicalParams,
    estimate_qber,
    estimate_visibility,
    transmit_frame,
)
from .protocol import (
    DetectionReport,
    KeyBlock,
    Permutation,
    ProtocolParams,
    PulseFrame,
    decode_click,
    encode_block,
    make_permutation,
    sift_block,
)
from .rates import (
    LinearNoise,
    RatePoint,
    SweepResult,
    TableNoise,
    detection_rate,
    qber_threshold,
    secure_rate,
    sweep,
)
from .security import (
    EveGram,
    SecurityReport,
    entropy_term,
    eve_optimal_holevo,
    holevo_ae,
    holevo_be,
    holevo_oracle,
    mutual_info_ab,
    report_at,
    secure_fraction,
    x_interval,
)
from .session import SessionSettings, SessionSummary, run_session, validate_transcript

__all__ = [
    "ClickStream",
    "DetectionReport",
    "EveGram",
    "KeyBlock",
    "LinearNoise",
    "Permutation",
    "PhysicalParams",
    "ProtocolParams",
    "PulseFrame",
    "RatePoint",
    "SecurityReport",
    "SessionSettings",
    "SessionSummary",
    "SweepResult",
    "TableNoise",
    "decode_click",
    "detection_rate",
    "encode_block",
    "entropy_term",
    "estimate_qber",
    "estimate_visibility",
    "eve_optimal_holevo",
    "holevo_ae",
    "holevo_be",
    "holevo_oracle",
    "make_permutation",
    "mutual_info_ab",
    "qber_threshold",
    "report_at",
    "run_session",
    "secure_fraction",
    "secure_rate",
    "sift_block",
    "sweep",
    "transmit_frame",
    "validate_transcript",
]
