import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcow.errors import (
    BadMagicError,
    DecodeError,
    InvalidArgumentError,
    LengthMismatchError,
    TruncatedError,
    UnknownTagError,
    UnsupportedVersionError,
)
from hdcow.wire import (
    BlockAnnounce,
    DetectionReportMsg,
    EstimateReport,
    PermutationReveal,
    SessionEnd,
    SessionStart,
    decode_message,
    encode_message,
)


def test_session_end_exact_bytes():
    assert encode_message(SessionEnd()) == bytes.fromhex("514b010600000000")


def test_session_start_layout():
    data = encode_message(SessionStart(d=8, n=64, tau_picoseconds=2000))
    assert data[:2] == b"\x51\x4b"
    assert data[2] == 0x01  # version
    assert data[3] == 0x01  # tag
    assert struct.unpack("!I", data[4:8])[0] == 14
    assert struct.unpack("!HIQ", data[8:]) == (8, 64, 2000)


messages = st.one_of(
    st.builds(
        SessionStart,
        d=st.integers(2, 2**16 - 1),
        n=st.integers(1, 2**32 - 1),
        tau_picoseconds=st.integers(1, 2**64 - 1),
    ),
    st.builds(BlockAnnounce, block_id=st.integers(0, 2**64 - 1)),
    st.builds(
        PermutationReveal,
        block_id=st.integers(0, 2**64 - 1),
        indices=st.lists(st.integers(1, 2**32 - 1), max_size=64).map(tuple),
    ),
    st.builds(
        DetectionReportMsg,
        block_id=st.integers(0, 2**64 - 1),
        entries=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2**16 - 1)),
            max_size=32,
        ).map(tuple),
    ),
    st.builds(
        EstimateReport,
        block_id=st.integers(0, 2**64 - 1),
        q_hat=st.one_of(st.floats(0, 1), st.just(float("nan"))),
        v_hat=st.one_of(st.floats(0, 1), st.just(float("nan"))),
    ),
    st.just(SessionEnd()),
)


@settings(max_examples=500, deadline=None)
@given(message=messages)
def test_round_trip(message):
    assert decode_message(encode_message(message)) == message


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            decode_message(b"\x51\x4b\x01")

    def test_truncated_payload(self):
        frame = encode_message(BlockAnnounce(block_id=7))
        with pytest.raises(TruncatedError):
            decode_message(frame[:-1])

    def test_bad_magic(self):
        frame = bytearray(encode_message(SessionEnd()))
        frame[0] = 0x00
        with pytest.raises(BadMagicError):
            decode_message(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(encode_message(SessionEnd()))
        frame[2] = 0x02
        with pytest.raises(UnsupportedVersionError):
            decode_message(bytes(frame))

    def test_unknown_tag(self):
        frame = bytearray(encode_message(SessionEnd()))
        frame[3] = 0x07
        with pytest.raises(UnknownTagError):
            decode_message(bytes(frame))

    def test_trailing_bytes(self):
        frame = encode_message(SessionEnd()) + b"\x00"
        with pytest.raises(LengthMismatchError):
            decode_message(frame)

    def test_inconsistent_detection_count(self):
        frame = bytearray(
            encode_message(DetectionReportMsg(block_id=1, entries=((0, 1),)))
        )
        frame[8 + 8 + 3] = 9  # corrupt the count field
        with pytest.raises(LengthMismatchError):
            decode_message(bytes(frame))

    def test_misaligned_reveal_payload(self):
        header = b"\x51\x4b\x01\x03" + struct.pack("!I", 10)
        with pytest.raises(LengthMismatchError):
            decode_message(header + b"\x00" * 10)

    def test_encode_range_checks(self):
        with pytest.raises(InvalidArgumentError):
            encode_message(SessionStart(d=2**16, n=1, tau_picoseconds=1))
        with pytest.raises(InvalidArgumentError):
            encode_message(BlockAnnounce(block_id=-1))
        for index in (-1, 2**32):
            with pytest.raises(InvalidArgumentError):
                encode_message(PermutationReveal(block_id=0, indices=(1, index)))
        for entry in ((0, 2**16), (0, -1), (2**32, 1)):
            with pytest.raises(InvalidArgumentError):
                encode_message(
                    DetectionReportMsg(block_id=0, entries=((1, 1), entry))
                )

    def test_reveal_indices_are_compact(self):
        built = PermutationReveal(block_id=5, indices=np.array([3, 1, 4, 2]))
        assert built.indices == struct.pack("!4I", 3, 1, 4, 2)
        assert built == PermutationReveal(block_id=5, indices=(3, 1, 4, 2))
        assert decode_message(encode_message(built)) == built
        assert list(built.values()) == [3, 1, 4, 2]


@settings(max_examples=500, deadline=None)
@given(data=st.binary(max_size=64))
def test_random_bytes_never_crash(data):
    try:
        decode_message(data)
    except DecodeError:
        pass


def test_nan_estimate_round_trips():
    msg = EstimateReport(block_id=3, q_hat=float("nan"), v_hat=0.5)
    decoded = decode_message(encode_message(msg))
    assert math.isnan(decoded.q_hat)
    assert decoded.v_hat == 0.5
    assert decoded == msg


def test_nan_estimates_hash_alike():
    a = EstimateReport(block_id=3, q_hat=float("nan"), v_hat=0.5)
    b = EstimateReport(block_id=3, q_hat=float("nan"), v_hat=0.5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
