"""Qudit block encoding, click decoding, and key sifting.

A block carries ``n`` qudits of dimension ``d`` in ``d*n`` time slots.
Slot indices, qudit symbols, and permutation images follow the 1-based
convention ``t = sigma(d*i + q_i)`` with ``q_i in {1..d}`` used
throughout the analysis; only internal array storage is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, ProtocolError

__all__ = [
    "ProtocolParams",
    "KeyBlock",
    "Permutation",
    "PulseFrame",
    "DetectionReport",
    "ByteSource",
    "SeededByteSource",
    "system_byte_source",
    "make_permutation",
    "encode_block",
    "decode_click",
    "sift_block",
]

# A byte source is any callable returning `count` fresh random bytes.
ByteSource = Callable[[int], bytes]


class SeededByteSource:
    """Deterministic byte source for simulations.  Not for production
    use: the permutation secrecy is load-bearing, so real deployments
    must inject an operating-system entropy source instead."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)

    def __call__(self, count: int) -> bytes:
        return self._gen.bytes(count)


def system_byte_source(count: int) -> bytes:
    """Cryptographically strong byte source (``os.urandom``)."""
    import os

    return os.urandom(count)


@dataclass(frozen=True)
class ProtocolParams:
    """Block geometry: ``d`` slots per qudit, ``n`` qudits per block,
    ``tau`` seconds per slot."""

    d: int
    n: int
    tau: float

    def __post_init__(self):
        if self.d < 2:
            raise InvalidArgumentError(f"d={self.d} must be >= 2")
        if self.n < 1:
            raise InvalidArgumentError(f"n={self.n} must be >= 1")
        if not self.tau > 0.0:
            raise InvalidArgumentError(f"tau={self.tau} must be positive")

    @property
    def slot_count(self) -> int:
        return self.d * self.n


@dataclass
class KeyBlock:
    """Raw qudit symbols, each in {1..d}."""

    symbols: np.ndarray

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1:
            raise InvalidArgumentError("symbols must be a flat sequence")

    def validate(self, params: ProtocolParams) -> None:
        if len(self.symbols) != params.n:
            raise InvalidArgumentError(
                f"block length {len(self.symbols)} != n={params.n}"
            )
        if len(self.symbols) and (
            self.symbols.min() < 1 or self.symbols.max() > params.d
        ):
            raise InvalidArgumentError("symbols outside {1..d}")

    @classmethod
    def random(cls, params: ProtocolParams, rng: np.random.Generator) -> "KeyBlock":
        return cls(rng.integers(1, params.d + 1, size=params.n))


@dataclass
class Permutation:
    """Bijection on {1..L} stored as the image sequence ``map_``, i.e.
    ``sigma(u) = map_[u-1]``."""

    map_: np.ndarray

    def __post_init__(self):
        self.map_ = np.asarray(self.map_, dtype=np.int64)
        L = len(self.map_)
        if L == 0:
            raise InvalidArgumentError("empty permutation")
        seen = np.zeros(L, dtype=bool)
        if self.map_.min() < 1 or self.map_.max() > L:
            raise InvalidArgumentError("permutation values outside {1..L}")
        seen[self.map_ - 1] = True
        if not seen.all():
            raise InvalidArgumentError("permutation is not a bijection")
        inv = np.empty(L, dtype=np.int64)
        inv[self.map_ - 1] = np.arange(1, L + 1)
        self._inverse_map = inv

    def __len__(self) -> int:
        return len(self.map_)

    def apply(self, u: int) -> int:
        if not 1 <= u <= len(self.map_):
            raise InvalidArgumentError(f"slot {u} outside {{1..{len(self.map_)}}}")
        return int(self.map_[u - 1])

    def invert(self, t: int) -> int:
        if not 1 <= t <= len(self.map_):
            raise InvalidArgumentError(f"slot {t} outside {{1..{len(self.map_)}}}")
        return int(self._inverse_map[t - 1])

    @classmethod
    def identity(cls, length: int) -> "Permutation":
        return cls(np.arange(1, length + 1))


@dataclass
class PulseFrame:
    """Occupied/empty slot train for one block plus the mean photon
    number of each occupied pulse."""

    occupancy: np.ndarray
    mu: float

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.mu < 0.0:
            raise InvalidArgumentError(f"mu={self.mu} must be non-negative")


@dataclass
class DetectionReport:
    """Receiver's claim of which qudits arrived and as which symbols.

    At most one entry per qudit index.
    """

    entries: tuple

    def __post_init__(self):
        indices = [i for i, _ in self.entries]
        if len(set(indices)) != len(indices):
            raise ProtocolError("duplicate qudit index in detection report")


def _words(source: ByteSource, count: int) -> np.ndarray:
    """``count`` big-endian 4-byte words from one call of the source."""
    data = source(4 * count)
    if len(data) != 4 * count:
        raise InvalidArgumentError(
            f"byte source returned {len(data)} bytes, expected {4 * count}"
        )
    return np.frombuffer(data, dtype=">u4").astype(np.int64)


def _unbiased_below(source: ByteSource, bounds: np.ndarray) -> np.ndarray:
    """One uniform integer in [0, b) for each bound b, by 4-byte rejection
    sampling: a word is kept only below the largest multiple of b that
    fits in 32 bits, so ``word % b`` is exactly uniform.  All words come
    from one draw; the rejected positions are redrawn together."""
    span = 1 << 32
    limits = span - span % bounds
    words = _words(source, len(bounds))
    rejected = np.flatnonzero(words >= limits)
    while rejected.size:
        words[rejected] = _words(source, rejected.size)
        rejected = rejected[words[rejected] >= limits[rejected]]
    return words % bounds


def make_permutation(length: int, source: ByteSource) -> Permutation:
    """Uniformly random permutation of {1..length} via an unbiased
    Fisher-Yates shuffle driven by the injected byte source.

    The swap partner of position i (from length-1 down to 1) is drawn
    below i+1; all partners are drawn before the first swap, so the
    source is called once per permutation plus once per round of
    rejections.
    """
    if length < 1:
        raise InvalidArgumentError(f"length={length} must be >= 1")
    perm = list(range(1, length + 1))
    partners = _unbiased_below(source, np.arange(length, 1, -1)).tolist()
    for i, j in zip(range(length - 1, 0, -1), partners):
        perm[i], perm[j] = perm[j], perm[i]
    return Permutation(np.array(perm))


def encode_block(
    params: ProtocolParams, block: KeyBlock, sigma: Permutation, mu: float
) -> PulseFrame:
    """Place one pulse per qudit at slot ``sigma(d*i + q_i)``."""
    block.validate(params)
    if len(sigma) != params.slot_count:
        raise InvalidArgumentError(
            f"permutation length {len(sigma)} != d*n={params.slot_count}"
        )
    occupancy = np.zeros(params.slot_count, dtype=bool)
    raw_slots = params.d * np.arange(params.n) + block.symbols  # 1-based
    occupancy[sigma.map_[raw_slots - 1] - 1] = True
    if int(occupancy.sum()) != params.n:
        raise InvalidArgumentError("occupancy does not have exactly n pulses")
    return PulseFrame(occupancy=occupancy, mu=mu)


def decode_click(params: ProtocolParams, sigma: Permutation, t: int) -> tuple[int, int]:
    """Map a click at slot ``t`` back to ``(qudit index, symbol)`` via
    ``sigma^{-1}(t) = i*d + j``."""
    if len(sigma) != params.slot_count:
        raise InvalidArgumentError(
            f"permutation length {len(sigma)} != d*n={params.slot_count}"
        )
    u = sigma.invert(t)
    i = (u - 1) // params.d
    j = u - i * params.d
    return i, j


def sift_block(
    alice: KeyBlock, report: DetectionReport, d: int
) -> tuple[list[int], list[int]]:
    """Align the sender's symbols with the receiver's reported symbols
    for the qudits that arrived, ordered by qudit index. A reported
    symbol outside {1..d} is rejected."""
    entries = sorted(report.entries)
    indices = [i for i, _ in entries]
    if len(set(indices)) != len(indices):
        raise ProtocolError("duplicate qudit index in detection report")
    if entries and (entries[0][0] < 0 or entries[-1][0] >= len(alice.symbols)):
        raise ProtocolError("reported qudit index outside the block")
    if any(not 1 <= j <= d for _, j in entries):
        raise ProtocolError(f"reported symbol outside {{1..{d}}}")
    alice_sifted = [int(alice.symbols[i]) for i, _ in entries]
    bob_sifted = [int(j) for _, j in entries]
    return alice_sifted, bob_sifted
