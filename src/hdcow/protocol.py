"""Qudit block encoding, click decoding, and key sifting.

A block carries ``n`` qudits of dimension ``d`` in ``d*n`` time slots.
Slot indices, qudit symbols, and permutation images follow the 1-based
convention ``t = sigma(d*i + q_i)`` with ``q_i in {1..d}`` used
throughout the analysis; only internal array storage is 0-based.
Each block's permutation ranks random keys from an injected byte source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "make_permutation",
    "encode_block",
    "decode_click",
    "sift_block",
]

# A byte source is any callable returning a bytes-like object of exactly
# `count` fresh random bytes, such as ``os.urandom``.
ByteSource = Callable[[int], "bytes | memoryview"]


class SeededByteSource:
    """Deterministic byte source for simulations.  Session endpoints
    seed one from the session seed, so a run repeats exactly and the seed
    gives away every permutation: a seeded session models the protocol
    but distributes no secret key.  :func:`make_permutation` takes any
    :data:`ByteSource`, such as ``os.urandom``.

    The stream is the raw 64-bit output of ``np.random.PCG64(seed)``,
    each word serialized little-endian.  A call for ``count`` bytes takes
    ``ceil(count / 8)`` fresh words and returns their first ``count``
    bytes.  So while every count is a positive multiple of 8, the calls
    return the same bytes as successive
    ``np.random.default_rng(seed).bytes(count)``.  Any other count drops
    the rest of its last word, and the next call starts on a fresh word;
    ``Generator.bytes`` would instead keep a half-word buffered when
    ``count % 8`` is 1 to 4.  A count of 0 takes no word.

    A call returns a read-only ``memoryview`` of the words, not a copy
    of them as ``bytes``."""

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)

    def __call__(self, count: int) -> memoryview:
        words = self._bits.random_raw(-(-count // 8)).astype("<u8", copy=False)
        return memoryview(words.view(np.uint8)).toreadonly()[:count]


@dataclass(frozen=True)
class ProtocolParams:
    """Block geometry: ``d`` slots per qudit, ``n`` qudits per block,
    ``tau`` seconds per slot.  The fields are frozen, so ``slot_count``
    is computed once per instance."""

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

    @cached_property
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
            np.minimum.reduce(self.symbols) < 1 or np.maximum.reduce(self.symbols) > params.d
        ):
            raise InvalidArgumentError("symbols outside {1..d}")

    @classmethod
    def random(cls, params: ProtocolParams, rng: np.random.Generator) -> "KeyBlock":
        return cls(rng.integers(1, params.d + 1, size=params.n))


def _scatter_inverse(map_: np.ndarray) -> np.ndarray:
    """``inv[t-1] = u`` for every ``map_[u-1] = t``; slots no value maps
    to stay 0.  ``map_`` must lie in {1..len(map_)}.  The inverse is int32,
    half the bytes of int64, unless ``len(map_)`` reaches 2**31."""
    length = len(map_)
    dtype = np.int32 if length < 2**31 else np.int64
    inv = np.zeros(length + 1, dtype=dtype)
    inv[map_] = np.arange(1, length + 1, dtype=dtype)  # 1-based; slot 0 is dropped
    return inv[1:]


@dataclass
class Permutation:
    """Bijection on {1..L} stored as the image sequence ``map_``, i.e.
    ``sigma(u) = map_[u-1]``.

    The constructor validates ``map_``, as a receiver must do with a
    reveal off the wire: a range check first, then one scatter that
    builds the inverse and shows every slot is hit, which for L values
    in range makes ``map_`` a bijection.  :func:`make_permutation` builds
    its result from a ranking without these checks, and its inverse is
    built on the first :meth:`invert` or :attr:`inverse_map`."""

    map_: np.ndarray

    def __post_init__(self):
        map_ = self.map_ = np.asarray(self.map_, dtype=np.int64)
        L = len(map_)
        if L == 0:
            raise InvalidArgumentError("empty permutation")
        if np.minimum.reduce(map_) < 1 or np.maximum.reduce(map_) > L:
            raise InvalidArgumentError("permutation values outside {1..L}")
        inv = _scatter_inverse(map_)
        if np.count_nonzero(inv) != L:
            raise InvalidArgumentError("permutation is not a bijection")
        self._inverse_map = inv

    @classmethod
    def _from_ranking(cls, map_: np.ndarray) -> "Permutation":
        """Wrap an image sequence that is a bijection by construction,
        such as ``argsort(...) + 1``, without validating it."""
        perm = object.__new__(cls)
        perm.map_ = map_
        perm._inverse_map = None
        return perm

    @property
    def inverse_map(self) -> np.ndarray:
        """Image sequence of ``sigma^{-1}``, built on first use."""
        if self._inverse_map is None:
            self._inverse_map = _scatter_inverse(self.map_)
        return self._inverse_map

    def __len__(self) -> int:
        return len(self.map_)

    def apply(self, u: int) -> int:
        if not 1 <= u <= len(self.map_):
            raise InvalidArgumentError(f"slot {u} outside {{1..{len(self.map_)}}}")
        return int(self.map_[u - 1])

    def invert(self, t: int) -> int:
        if not 1 <= t <= len(self.map_):
            raise InvalidArgumentError(f"slot {t} outside {{1..{len(self.map_)}}}")
        return int(self.inverse_map[t - 1])

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
    """Receiver's claim of which qudits arrived and as which symbols, as
    ``(qudit index, symbol)`` pairs.  :func:`sift_block` rejects a report
    that names a qudit twice."""

    entries: tuple


def make_permutation(length: int, source: ByteSource) -> Permutation:
    """Uniformly random permutation of {1..length}: rank one random key
    per position (Knuth, TAOCP vol. 2, §3.4.2).

    The keys are little-endian u64, ``8*length`` bytes from one call of
    the source, so a seed gives the same permutation on every host.
    Distinct keys are exchangeable, so their ranking is exactly uniform;
    a draw with a tie (probability at most ``length**2 / 2**65``) is
    redrawn whole.

    The ranking sorts plain integers: each key's low
    ``length.bit_length()`` bits are replaced by its 1-based position,
    and when the remaining high parts are distinct they order the keys
    as the full keys do, so the sorted low bits are the ``argsort`` of
    the keys, plus one.  A draw whose high parts collide (probability at
    most ``length**3 / 2**64``) is ranked by ``argsort`` of the full
    keys.  Both rankings are that of the keys, so the width of the low
    part changes no result.
    Either ranking is a bijection by construction, so the result is not
    re-checked and its inverse is not built until it is used: the sender
    only applies the permutation.
    """
    if length < 1:
        raise InvalidArgumentError(f"length={length} must be >= 1")
    low_bits = length.bit_length()
    shift, low_mask = np.uint64(low_bits), np.uint64((1 << low_bits) - 1)
    while True:
        data = source(8 * length)
        if len(data) != 8 * length:
            raise InvalidArgumentError(
                f"byte source returned {len(data)} bytes, expected {8 * length}"
            )
        keys = np.frombuffer(data, dtype="<u8")
        ranking = np.arange(1, length + 1, dtype=np.uint64)  # the positions, at first
        packed = keys & ~low_mask
        packed |= ranking
        packed.sort()
        np.bitwise_and(packed, low_mask, out=ranking)
        packed >>= shift  # the high parts, in increasing order
        if not np.count_nonzero(packed[1:] == packed[:-1]):
            return Permutation._from_ranking(ranking.view(np.int64))
        order = np.argsort(keys)
        if np.diff(keys[order]).all():  # no two keys are equal
            return Permutation._from_ranking(order + 1)


def encode_block(
    params: ProtocolParams, block: KeyBlock, sigma: Permutation, mu: float
) -> PulseFrame:
    """Place one pulse per qudit at slot ``sigma(d*i + q_i)``."""
    block.validate(params)
    if len(sigma) != params.slot_count:
        raise InvalidArgumentError(
            f"permutation length {len(sigma)} != d*n={params.slot_count}"
        )
    occupancy = np.zeros(params.slot_count + 1, dtype=bool)
    # raw slot d*i + q_i of each qudit, 0-based
    raw_slots = np.arange(-1, params.slot_count - 1, params.d) + block.symbols
    occupancy[sigma.map_[raw_slots]] = True  # sigma's images are 1-based
    occupancy = occupancy[1:]
    if np.count_nonzero(occupancy) != params.n:
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
