"""The benchmark's workloads: how each builds its inputs, makes one timed
call into ``hdcow`` and checks the call's output.

Importing this module puts the checkout's ``src`` first on ``sys.path``,
so the benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hdcow.config import Config, PhysicalSection, SessionSection  # noqa: E402
from hdcow.rates import qber_threshold, sweep  # noqa: E402
from hdcow.session import SessionSettings, run_session, validate_transcript  # noqa: E402


def _session_settings(config: Config) -> SessionSettings:
    # Built exactly as ``hdcow simulate`` builds them from a config.
    return SessionSettings(
        protocol=config.session_protocol(),
        physical=config.physical_params(),
        blocks=config.session.blocks,
        sample_fraction=config.session.sample_fraction,
    )


def model_optimum_bits_per_second(config: Config) -> float:
    """The ``hdcow optimize`` optimum for this config's physical section."""
    return sweep(
        config.protocol.dimensions,
        config.mu_grid(),
        config.noise_model(),
        config.physical_params(),
    ).optimum.bits_per_second


@dataclass
class SessionCall:
    alice: object
    bob: object
    transcript: object
    wall_s: float

    @property
    def sifted(self) -> int:
        return len(self.alice.sifted)


class SessionWorkload:
    """Closed loop of ``run_session`` calls, one session at a time; call
    ``k`` of a run with seed ``s`` uses session seed ``s * 1_000_000 + k``."""

    kind = "session"

    def __init__(self, name: str, config: Config):
        self.name = name
        self.config = config

    def build(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.settings = _session_settings(self.config)
        self.slots_per_call = self.settings.blocks * self.settings.protocol.slot_count

    def call(self, seed: int) -> SessionCall:
        start = perf_counter()
        alice, bob, transcript = run_session(self.settings, seed=seed)
        return SessionCall(alice, bob, transcript, perf_counter() - start)

    def work(self, result: SessionCall) -> int:
        return self.slots_per_call

    def check(self, result: SessionCall) -> list[str]:
        problems = [f"transcript: {v}" for v in validate_transcript(result.transcript)]
        if len(result.alice.sifted) != len(result.bob.sifted):
            problems.append(
                f"sifted lengths differ: alice {len(result.alice.sifted)}, "
                f"bob {len(result.bob.sifted)}"
            )
        return problems

    def fingerprint(self, result: SessionCall):
        """What tracing must leave unchanged; ``wire_bytes`` re-encodes every
        message, so it is only ever called outside timed or traced code."""
        return (result.transcript.wire_bytes(), result.alice.sifted, result.bob.sifted)


@dataclass
class RatesCall:
    grid: tuple
    thresholds: list
    sweep_s: float
    threshold_s: float

    @property
    def wall_s(self) -> float:
        return self.sweep_s + self.threshold_s


class RatesWorkload:
    """The default ``hdcow rates`` sweep followed by the default ``hdcow
    threshold`` set.  Both are fixed by the default config, so the seed
    does not change the inputs."""

    kind = "rates"

    def __init__(self, name: str, config: Config):
        self.name = name
        self.config = config

    def build(self) -> None:
        c = self.config
        self.dimensions = c.protocol.dimensions
        self.mu_grid = c.mu_grid()
        self.noise = c.noise_model()
        self.physical = c.physical_params()
        self.threshold = c.threshold
        self.points = len(self.dimensions) * len(self.mu_grid)

    def call(self, seed: int) -> RatesCall:
        start = perf_counter()
        result = sweep(self.dimensions, self.mu_grid, self.noise, self.physical)
        mid = perf_counter()
        t = self.threshold
        # Per-wrong-slot axis, as ``hdcow threshold`` prints by default.
        thresholds = [
            qber_threshold(d, t.mu, t.visibility) / (d - 1) for d in t.dimensions
        ]
        end = perf_counter()
        return RatesCall(result.grid, thresholds, mid - start, end - mid)

    def work(self, result: RatesCall) -> int:
        return len(result.grid)

    def check(self, result: RatesCall) -> list[str]:
        problems = []
        if len(result.grid) != self.points:
            problems.append(f"sweep has {len(result.grid)} points, expected {self.points}")
        bad = [
            p for p in result.grid
            if not all(
                math.isfinite(v) and v >= 0.0
                for v in (p.bits_per_detection, p.alpha, p.bits_per_second)
            )
        ]
        if bad:
            problems.append(f"{len(bad)} sweep points not finite and >= 0, first {bad[0]}")
        th = result.thresholds
        if not all(a > b for a, b in zip(th, th[1:])):
            problems.append(f"thresholds do not strictly decrease in d: {th}")
        return problems

    def fingerprint(self, result: RatesCall):
        return (result.grid, tuple(result.thresholds))


_REFERENCE = Config()

WORKLOADS = {
    # ``hdcow simulate`` defaults: per-block fixed costs dominate.
    "session_ref": SessionWorkload("session_ref", _REFERENCE),
    # Large frames over a back-to-back lab link with SNSPD-class detectors:
    # per-slot and per-click costs dominate.  Ten blocks per session, not
    # the default 100, so that a run holds about ten sessions to take
    # percentiles over, while what a session keeps (every reveal in the
    # transcript) and Alice's re-estimate over all sampled qudits still
    # grow enough to show.
    "session_wide": SessionWorkload(
        "session_wide",
        Config(
            physical=PhysicalSection(mu=0.1, t_ch=1.0, xi=0.9, t_dead=20e-9),
            session=SessionSection(d=32, n=1024, blocks=10),
        ),
    ),
    # Security bound and rate model only; no session code runs.
    "rates": RatesWorkload("rates", _REFERENCE),
}
