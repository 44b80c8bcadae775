import io
import itertools
import math
import re
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
    MAGIC,
    VERSION,
    DetectionReportMsg,
    EstimateReport,
    PermutationReveal,
    SessionStart,
    _decode_payload,
    decode_message,
    encode_message,
    read_message,
)


def test_detection_report_exact_bytes():
    # block 2, one kept qudit (5, symbol 3), monitor clicks at train slots 7 and 300
    message = DetectionReportMsg(block_id=2, entries=((5, 3),), monitor_slots=(7, 300))
    assert encode_message(message) == bytes.fromhex(
        "514b0404" "0000001e" "0000000000000002" "00000001" "000000050003"
        "00000002" "00000007" "0000012c"
    )


def reference_report(block_id, entries, monitor_slots):
    """A DETECTION_REPORT frame packed value by value, as the encoder did
    when reports held tuples: the reference for the one-conversion
    encoder."""
    count, clicks = len(entries), len(monitor_slots)
    return struct.pack(
        f"!2sBBIQI{'IH' * count}I{clicks}I",
        MAGIC, VERSION, 0x04, 16 + 6 * count + 4 * clicks,
        block_id, count, *itertools.chain.from_iterable(entries), clicks, *monitor_slots,
    )


class TestDetectionReportWireForm:
    @settings(max_examples=300, deadline=None)
    @given(
        block_id=st.integers(0, 2**64 - 1),
        entries=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1)), max_size=40
        ),
        monitor_slots=st.lists(st.integers(0, 2**32 - 1), max_size=20),
    )
    def test_encoder_matches_the_packed_reference(self, block_id, entries, monitor_slots):
        frame = reference_report(block_id, entries, monitor_slots)
        columns = np.array(entries, dtype=np.int64).reshape(-1, 2)
        slots = np.array(monitor_slots, dtype=np.int64)
        # from pairs, from int64 columns (as a decoder gives them, or a
        # strided view) and from unsigned arrays
        built = [
            DetectionReportMsg(block_id, tuple(entries), tuple(monitor_slots)),
            DetectionReportMsg(block_id, columns, slots),
            DetectionReportMsg(block_id, np.asfortranarray(columns), np.repeat(slots, 2)[::2]),
            DetectionReportMsg(block_id, columns.astype(np.uint32), slots.astype(np.uint32)),
        ]
        for message in built:
            assert encode_message(message) == frame
            decoded = decode_message(frame)
            assert decoded == message and hash(decoded) == hash(message)
            for report in (message, decoded):
                got = report.columns()
                assert got.dtype == np.int64 and got.shape == (len(entries), 2)
                assert got.tolist() == [list(entry) for entry in entries]
                assert report.monitor().dtype == np.int64
                assert report.monitor().tolist() == monitor_slots

    def test_empty_report(self):
        frame = reference_report(3, (), ())
        for message in (
            DetectionReportMsg(3, ()),
            DetectionReportMsg(3, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)),
            decode_message(frame),
        ):
            assert encode_message(message) == frame
            assert message.columns().shape == (0, 2) and message.monitor().shape == (0,)

    @pytest.mark.parametrize(
        "entries, monitor_slots, cause",
        [
            (((1, 1), (2**32, 1)), (), "qudit index=4294967296 does not fit u32"),
            (((-1, 1),), (), "qudit index=-1 does not fit u32"),
            (((1, 2**16),), (), "symbol=65536 does not fit u16"),
            (((1, -1),), (), "symbol=-1 does not fit u16"),
            ((), (1, 2**32), "monitor slot=4294967296 does not fit u32"),
            ((), (-1, 1), "monitor slot=-1 does not fit u32"),
            (((0.5, 1),), (), "qudit index values do not fit u32"),
            (((1, 2, 3),), (), r"entries of shape \(1, 3\) are not \(qudit, symbol\) pairs"),
        ],
    )
    def test_values_outside_the_fields_refused(self, entries, monitor_slots, cause):
        with pytest.raises(InvalidArgumentError, match=f"^{cause}$"):
            encode_message(DetectionReportMsg(0, entries, monitor_slots))
        # arrays are checked as sequences are
        with pytest.raises(InvalidArgumentError, match=f"^{cause}$"):
            DetectionReportMsg(0, np.array(entries), np.array(monitor_slots))

    @pytest.mark.parametrize(
        "entries, monitor_slots, cause",
        [
            (b"\x00" * 7, b"", "7 entry bytes is not a whole number of (u32, u16) records"),
            (b"", b"\x00" * 6, "6 monitor slot bytes is not a whole number of u32"),
        ],
    )
    def test_wire_form_of_whole_records_only(self, entries, monitor_slots, cause):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(cause)}$"):
            DetectionReportMsg(0, entries, monitor_slots)

    def test_decoded_report_is_a_read_only_view_of_its_payload(self):
        built = DetectionReportMsg(9, np.array([[5, 3], [70000, 32]]), np.array([7, 300]))
        payload = bytearray(encode_message(built)[8:])  # as a socket reader hands it over
        decoded = _decode_payload(0x04, payload)
        for field in (decoded.entries, decoded.monitor_slots):
            assert isinstance(field, memoryview) and field.readonly
            assert np.shares_memory(np.frombuffer(field, np.uint8), payload)
        for field in (built.entries, built.monitor_slots):
            assert isinstance(field, memoryview) and field.readonly
        assert decoded == built and {decoded, built} == {built}
        assert decoded.columns().tolist() == [[5, 3], [70000, 32]]
        assert decoded.monitor().tolist() == [7, 300]


def test_session_start_layout():
    data = encode_message(SessionStart(d=8, n=64, tau_picoseconds=2000))
    assert data[:2] == b"\x51\x4b"
    assert data[2] == 0x04  # version
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
        monitor_slots=st.lists(st.integers(0, 2**32 - 1), max_size=16).map(tuple),
    ),
    st.builds(
        EstimateReport,
        block_id=st.integers(0, 2**64 - 1),
        q_hat=st.one_of(st.floats(0, 1), st.just(float("nan"))),
        v_hat=st.one_of(st.floats(0, 1), st.just(float("nan"))),
    ),
)

ESTIMATE = EstimateReport(block_id=7, q_hat=0.0, v_hat=1.0)


def header_only(tag, length, version=VERSION):
    """A ``recv_exact`` holding one frame header, which fails if it is
    asked for anything past it."""
    header = io.BytesIO(MAGIC + bytes([version, tag]) + struct.pack("!I", length))

    def recv_exact(count):
        assert header.tell() == 0, f"read of {count} bytes past the header"
        return header.read(count)

    return recv_exact


@settings(max_examples=500, deadline=None)
@given(message=messages)
def test_round_trip(message):
    assert decode_message(encode_message(message)) == message


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            decode_message(b"\x51\x4b\x01")

    def test_truncated_payload(self):
        frame = encode_message(ESTIMATE)
        with pytest.raises(TruncatedError):
            decode_message(frame[:-1])

    def test_bad_magic(self):
        frame = bytearray(encode_message(ESTIMATE))
        frame[0] = 0x00
        with pytest.raises(BadMagicError):
            decode_message(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(encode_message(ESTIMATE))
        frame[2] = 0x05
        with pytest.raises(UnsupportedVersionError):
            decode_message(bytes(frame))

    def test_unknown_tag(self):
        frame = bytearray(encode_message(ESTIMATE))
        frame[3] = 0x07
        with pytest.raises(UnknownTagError):
            decode_message(bytes(frame))

    def test_trailing_bytes(self):
        frame = encode_message(ESTIMATE) + b"\x00"
        with pytest.raises(LengthMismatchError):
            decode_message(frame)

    def test_inconsistent_detection_count(self):
        frame = bytearray(
            encode_message(DetectionReportMsg(block_id=1, entries=((0, 1),)))
        )
        frame[8 + 8 + 3] = 9  # corrupt the count field
        with pytest.raises(LengthMismatchError):
            decode_message(bytes(frame))

    @pytest.mark.parametrize("clicks", [0, 2])
    def test_inconsistent_monitor_count(self, clicks):
        frame = bytearray(
            encode_message(DetectionReportMsg(block_id=1, entries=((0, 1),), monitor_slots=(4,)))
        )
        frame[8 + 12 + 6 + 3] = clicks  # corrupt the monitor count field
        with pytest.raises(LengthMismatchError, match="disagree with payload size"):
            decode_message(bytes(frame))

    def test_misaligned_reveal_payload(self):
        header = MAGIC + bytes([VERSION, 0x03]) + struct.pack("!I", 10)
        with pytest.raises(LengthMismatchError):
            decode_message(header + b"\x00" * 10)

    def test_encode_range_checks(self):
        with pytest.raises(InvalidArgumentError):
            encode_message(SessionStart(d=2**16, n=1, tau_picoseconds=1))
        with pytest.raises(InvalidArgumentError):
            encode_message(EstimateReport(block_id=-1, q_hat=0.0, v_hat=1.0))
        for index in (-1, 2**32):
            with pytest.raises(InvalidArgumentError):
                encode_message(PermutationReveal(block_id=0, indices=(1, index)))
        for entry, cause in (
            ((0, 2**16), "symbol=65536"), ((0, -1), "symbol=-1"), ((2**32, 1), "qudit index=4294967296"),
        ):
            with pytest.raises(InvalidArgumentError, match=cause):
                encode_message(
                    DetectionReportMsg(block_id=0, entries=((1, 1), entry))
                )
        for slot in (-1, 2**32):
            with pytest.raises(InvalidArgumentError, match="monitor slot"):
                encode_message(DetectionReportMsg(block_id=0, entries=(), monitor_slots=(1, slot)))

    def test_reveal_indices_are_compact(self):
        built = PermutationReveal(block_id=5, indices=np.array([3, 1, 4, 2]))
        assert built.indices == struct.pack("!4I", 3, 1, 4, 2)
        assert built == PermutationReveal(block_id=5, indices=(3, 1, 4, 2))
        assert decode_message(encode_message(built)) == built
        assert list(built.values()) == [3, 1, 4, 2]

    def test_reveal_indices_are_read_only_views_without_a_copy(self):
        words = struct.pack("!4I", 3, 1, 4, 2)
        built = PermutationReveal.of_bijections(5, np.array([[3, 1, 4, 2]]))
        payload = bytearray(encode_message(built)[8:])
        decoded = read_message(io.BytesIO(encode_message(built)).read)
        from_payload = _decode_payload(0x03, payload)  # as a socket reader hands it over
        assert np.shares_memory(np.frombuffer(from_payload.indices, np.uint8), payload)
        for reveal in (built, decoded, from_payload):
            assert isinstance(reveal.indices, memoryview) and reveal.indices.readonly
            assert reveal.indices == words and not reveal.values().flags.writeable
        # a view compares and hashes as the bytes it shows
        plain = PermutationReveal(block_id=5, indices=words)
        assert {built, decoded, from_payload, plain} == {plain}
        wide_view = memoryview(np.array([3, 1, 4, 2], ">u4"))
        assert PermutationReveal(block_id=5, indices=wide_view) == plain


@pytest.mark.parametrize(
    "tag,length,error",
    [
        (0x01, 15, LengthMismatchError),  # SESSION_START is 14 bytes
        (0x05, 23, LengthMismatchError),  # ESTIMATE_REPORT is 24 bytes
        (0x06, 0, UnknownTagError),  # the retired SESSION_END
        (0x02, 2**32 - 1, UnknownTagError),  # the retired BLOCK_ANNOUNCE
        (0x07, 2**32 - 1, UnknownTagError),
        (0x00, 8, UnknownTagError),
    ],
)
def test_header_rejected_before_payload_read(tag, length, error):
    with pytest.raises(error):
        read_message(header_only(tag, length))


@pytest.mark.parametrize("version", [0x02, 0x03])
def test_older_version_frame_rejected_before_payload_read(version):
    # a peer on the format that revealed and reported one block per
    # message (2), or on the one whose reports carry no monitor clicks
    # (3), fails at its first frame, its SESSION_START
    with pytest.raises(UnsupportedVersionError):
        read_message(header_only(0x01, 2**32 - 1, version=version))


# d=4 and n=16 give 64-slot blocks, 256 to a train.
@pytest.mark.parametrize(
    "tag,length",
    [
        (0x03, 2**32 - 4),  # PERMUTATION_REVEAL, at most 8 + 4*d*n*256 = 65544 bytes
        (0x03, 65548),
        # DETECTION_REPORT, at most 16 + 6*n*256 + 4*d*n*256 = 90128 bytes
        (0x04, 2**32 - 1),
        (0x04, 90132),
    ],
)
def test_payload_beyond_train_rejected_before_read(tag, length):
    with pytest.raises(LengthMismatchError, match="at most .* 256 blocks a train"):
        read_message(header_only(tag, length), d=4, n=16)


def test_payloads_filling_a_train_accepted():
    reveal = PermutationReveal(block_id=256, indices=np.tile(np.arange(1, 65), 256))
    report = DetectionReportMsg(
        block_id=256,
        entries=tuple((i, 1) for i in range(16 * 256)),
        monitor_slots=tuple(range(64 * 256)),
    )
    assert len(encode_message(report)) == 8 + 90128
    assert encode_message(report) == reference_report(
        256, tuple((i, 1) for i in range(16 * 256)), tuple(range(64 * 256))
    )
    for message in (reveal, report):
        stream = io.BytesIO(encode_message(message))
        assert read_message(stream.read, d=4, n=16) == message


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
