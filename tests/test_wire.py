import dataclasses
import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskap import wire
from maskap.protocol import (
    DbUpdateRequest,
    LoginRequest,
    LoginResponse,
    UpdateRequest,
    UserListDelta,
)
from maskap.wire import CodecError, decode_frame, encode_frame, read_frame, write_frame

SAMPLE_FRAMES = [
    LoginRequest(alpha=b"\x01" * 32, beta=b"\x02" * 32, t1=1_700_000_000),
    LoginResponse(gamma=b"\x03" * 32, sigma=b"\x04" * 32, t2=1_700_000_001),
    UpdateRequest(uid=b"\x05" * 32, tau=b"\x06" * 32, t4=7),
    DbUpdateRequest(id_j=b"\x07" * 16, omega=b"\x08" * 32, t6=9),
    UserListDelta(entries=((b"\x09" * 32, b"\x0a" * 32), (b"\x0b" * 32, b"\x0c" * 32))),
    UserListDelta(entries=()),
    b"\x0d" * 64,
    b"\x0e" * 128,
    "AuthFail",
]


class TestFrameCodec:
    @pytest.mark.parametrize("msg", SAMPLE_FRAMES, ids=lambda m: type(m).__name__)
    def test_round_trip(self, msg):
        msg_type, decoded = decode_frame(encode_frame(msg))
        assert decoded == msg

    def test_type_bytes(self):
        assert encode_frame(SAMPLE_FRAMES[0])[0] == wire.MSG_LOGIN_REQUEST
        assert encode_frame(SAMPLE_FRAMES[1])[0] == wire.MSG_LOGIN_RESPONSE
        assert encode_frame("x")[0] == wire.MSG_ERROR

    def test_empty_frame(self):
        with pytest.raises(CodecError):
            decode_frame(b"")

    def test_unknown_type(self):
        with pytest.raises(CodecError, match="unknown"):
            decode_frame(b"\x42" + b"\x00" * 10)

    def test_truncated_login_request(self):
        raw = encode_frame(SAMPLE_FRAMES[0])
        with pytest.raises(CodecError):
            decode_frame(raw[:-1])

    def test_list_payload_must_be_nonempty_blocks(self):
        with pytest.raises(CodecError):
            decode_frame(bytes([wire.MSG_LIST_PAYLOAD]))
        with pytest.raises(CodecError):
            decode_frame(bytes([wire.MSG_LIST_PAYLOAD]) + b"\x00" * 63)

    def test_delta_must_be_64_multiple(self):
        with pytest.raises(CodecError):
            decode_frame(bytes([wire.MSG_USER_LIST_DELTA]) + b"\x00" * 65)

    def test_unencodable(self):
        with pytest.raises(CodecError):
            encode_frame(42)

    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=32, max_size=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_login_request_round_trip_property(self, alpha, beta, t1):
        msg = LoginRequest(alpha=alpha, beta=beta, t1=t1)
        assert decode_frame(encode_frame(msg))[1] == msg


FIXED_SAMPLES = SAMPLE_FRAMES[:4]
WRONG_WIDTHS = [
    pytest.param(msg, name, width, id=f"{type(msg).__name__}.{name}-{width}")
    for msg in FIXED_SAMPLES
    for name, value in dataclasses.asdict(msg).items()
    if isinstance(value, bytes)
    for width in (len(value) - 1, len(value) + 1)
]


class TestFrameTable:
    @pytest.mark.parametrize(
        "cls, size",
        [(LoginRequest, 68), (LoginResponse, 68), (UpdateRequest, 68), (DbUpdateRequest, 52)],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_fixed_body_size_is_sum_of_widths(self, cls, size):
        row = wire.layout(cls)
        assert row.size == sum(width for _, width in row.fields) == size
        assert len(wire.encode_body(next(m for m in FIXED_SAMPLES if type(m) is cls))) == size

    def test_login_request_spans(self):
        assert wire.layout(LoginRequest).spans == {"alpha": (0, 32), "beta": (32, 64), "t1": (64, 68)}

    def test_every_frame_type_once(self):
        assert sorted(row.msg_type for row in wire.FRAMES) == [
            wire.MSG_LOGIN_REQUEST, wire.MSG_LOGIN_RESPONSE, wire.MSG_UPDATE_REQUEST,
            wire.MSG_DB_UPDATE_REQUEST, wire.MSG_LIST_PAYLOAD, wire.MSG_USER_LIST_DELTA,
            wire.MSG_ERROR,
        ]


class TestStrictEncoding:
    @pytest.mark.parametrize("msg, name, width", WRONG_WIDTHS)
    def test_wrong_field_width(self, msg, name, width):
        bad = dataclasses.replace(msg, **{name: b"\x00" * width})
        with pytest.raises(CodecError, match=type(msg).__name__):
            encode_frame(bad)
        with pytest.raises(CodecError):
            wire.encode_body(bad)

    @pytest.mark.parametrize("t1", [2**32, -1])
    def test_timestamp_outside_u32(self, t1):
        with pytest.raises(CodecError):
            encode_frame(dataclasses.replace(SAMPLE_FRAMES[0], t1=t1))

    @pytest.mark.parametrize(
        "entries",
        [
            ((b"\x01" * 31, b"\x02" * 33),),
            ((b"\x01" * 32, b"\x02" * 32), (b"\x03" * 33, b"\x04" * 31)),
            ((b"\x01" * 32, b"\x02" * 32, b"\x03" * 32),),
            ((b"\x01" * 32,),),
            (("x" * 32, "y" * 32),),
        ],
    )
    def test_user_list_delta_row_width(self, entries):
        with pytest.raises(CodecError):
            encode_frame(UserListDelta(entries=entries))

    @pytest.mark.parametrize("size", [0, 63, 65])
    def test_list_payload_width(self, size):
        with pytest.raises(CodecError):
            encode_frame(b"\x00" * size)

    def test_wrong_type_in_field(self):
        with pytest.raises(CodecError):
            encode_frame(dataclasses.replace(SAMPLE_FRAMES[0], alpha="a" * 32))
        with pytest.raises(CodecError):
            encode_frame(dataclasses.replace(SAMPLE_FRAMES[0], t1=1.5))


class TestWireWidths:
    def test_login_request_68_bytes(self):
        req = LoginRequest(alpha=b"\x01" * 32, beta=b"\x02" * 32, t1=7)
        raw = wire.encode_body(req)
        assert len(raw) == 68
        assert wire.decode_body(LoginRequest, raw) == req

    def test_login_response_68_bytes(self):
        resp = LoginResponse(gamma=b"\x03" * 32, sigma=b"\x04" * 32, t2=9)
        raw = wire.encode_body(resp)
        assert len(raw) == 68
        assert wire.decode_body(LoginResponse, raw) == resp


class TestStreamFraming:
    def test_write_then_read(self):
        buf = io.BytesIO()
        for msg in SAMPLE_FRAMES:
            write_frame(buf, msg)
        buf.seek(0)
        for msg in SAMPLE_FRAMES:
            raw = read_frame(buf)
            assert decode_frame(raw)[1] == msg
        assert read_frame(buf) is None

    def test_clean_eof(self):
        assert read_frame(io.BytesIO()) is None

    def test_mid_frame_eof(self):
        buf = io.BytesIO(struct.pack(">I", 10) + b"\x01\x02")
        with pytest.raises(CodecError, match="mid-frame"):
            read_frame(buf)

    def test_oversized_frame_consumed(self):
        payload = b"\x05" + b"\x00" * 5000
        trailer = encode_frame("ok")
        buf = io.BytesIO(
            struct.pack(">I", len(payload)) + payload + struct.pack(">I", len(trailer)) + trailer
        )
        with pytest.raises(CodecError, match="exceeds"):
            read_frame(buf)
        # stream position is past the bad frame; next frame still readable
        assert decode_frame(read_frame(buf))[1] == "ok"

    def test_write_rejects_oversized(self):
        with pytest.raises(CodecError):
            write_frame(io.BytesIO(), b"\x00" * 64 * 70)
