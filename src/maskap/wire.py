"""Tagged binary frames and length-prefixed stream framing.

A frame is one type byte followed by a body.  FRAMES, the one table of
layouts, gives every frame type its type byte, its class and its fields
with their widths; every size on the wire is derived from it.  On a stream
socket each frame is preceded by a 4-byte big-endian length; frames above
MAX_FRAME_LEN are rejected.
"""
from __future__ import annotations

import operator
import struct
from itertools import accumulate
from typing import BinaryIO

from .core import DIGEST_LEN, FIELD_LEN, TS_LEN
from .protocol import (
    SERVER_ENTRY_LEN,
    DbUpdateRequest,
    LoginRequest,
    LoginResponse,
    UpdateRequest,
    UserListDelta,
)

MSG_LOGIN_REQUEST = 0x01
MSG_LOGIN_RESPONSE = 0x02
MSG_UPDATE_REQUEST = 0x03
MSG_DB_UPDATE_REQUEST = 0x04
MSG_LIST_PAYLOAD = 0x05
MSG_USER_LIST_DELTA = 0x06
MSG_ERROR = 0x7F

MAX_FRAME_LEN = 4096

Frame = LoginRequest | LoginResponse | UpdateRequest | DbUpdateRequest | UserListDelta | bytes | str


class CodecError(Exception):
    pass


class _Frame:
    """A row of the frame table: type byte, class carried, and named field widths."""

    def __init__(self, msg_type: int, cls: type, *fields: tuple[str, int]) -> None:
        self.msg_type, self.cls, self.tag, self.fields = msg_type, cls, bytes([msg_type]), fields
        self.widths = tuple(width for _, width in fields)
        offsets = accumulate(self.widths, initial=0)
        self.spans = {name: (lo, lo + width) for (name, width), lo in zip(fields, offsets)}
        self.size = sum(self.widths)  # of the whole body, or of one row of a list


class FixedFrame(_Frame):
    """Fixed-width byte strings, then a u32 timestamp, in the class's field order."""

    def __init__(self, msg_type: int, cls: type, *fields: tuple[str, int], ts: str) -> None:
        super().__init__(msg_type, cls, *fields, (ts, TS_LEN))
        self._get, self._byte_widths = operator.attrgetter(*self.spans), self.widths[:-1]
        self._struct = struct.Struct(">" + "".join(f"{w}s" for w in self._byte_widths) + "I")

    def pack(self, msg) -> bytes:
        values = self._get(msg)
        try:
            if tuple(map(len, values[:-1])) == self._byte_widths:
                return self._struct.pack(*values)
        except (TypeError, struct.error):
            pass
        raise CodecError(f"{self.cls.__name__} must be byte strings and a u32: {self.fields}")

    def unpack(self, body: bytes):
        if len(body) != self.size:
            raise CodecError(f"{self.cls.__name__} body must be {self.size} bytes, got {len(body)}")
        return self.cls(*self._struct.unpack(body))


class DeltaFrame(_Frame):
    """Zero or more rows of fixed-width byte strings."""

    def pack(self, msg: UserListDelta) -> bytes:
        try:
            if all(tuple(map(len, row)) == self.widths for row in msg.entries):
                return b"".join(map(b"".join, msg.entries))
        except TypeError:
            pass
        raise CodecError(f"{self.cls.__name__} rows must be byte strings: {self.fields}")

    def unpack(self, body: bytes) -> UserListDelta:
        if len(body) % self.size:
            raise CodecError(f"{self.cls.__name__} body not a multiple of {self.size} bytes")
        spans, rows = self.spans.values(), range(0, len(body), self.size)
        return self.cls(tuple(tuple(body[i + lo : i + hi] for lo, hi in spans) for i in rows))


class ListFrame(_Frame):
    """One or more rows, kept as raw bytes."""

    def unpack(self, body: bytes) -> bytes:
        if not body or len(body) % self.size:
            raise CodecError(f"list payload not a positive multiple of {self.size} bytes")
        return body

    pack = unpack


class TextFrame(_Frame):
    def pack(self, msg: str) -> bytes:
        return msg.encode("utf-8", errors="replace")

    def unpack(self, body: bytes) -> str:
        return body.decode("utf-8", errors="replace")


FRAMES = (
    FixedFrame(MSG_LOGIN_REQUEST, LoginRequest,
               ("alpha", DIGEST_LEN), ("beta", DIGEST_LEN), ts="t1"),
    FixedFrame(MSG_LOGIN_RESPONSE, LoginResponse,
               ("gamma", DIGEST_LEN), ("sigma", DIGEST_LEN), ts="t2"),
    FixedFrame(MSG_UPDATE_REQUEST, UpdateRequest,
               ("uid", DIGEST_LEN), ("tau", DIGEST_LEN), ts="t4"),
    FixedFrame(MSG_DB_UPDATE_REQUEST, DbUpdateRequest,
               ("id_j", FIELD_LEN), ("omega", DIGEST_LEN), ts="t6"),
    ListFrame(MSG_LIST_PAYLOAD, bytes, ("entry", SERVER_ENTRY_LEN)),
    DeltaFrame(MSG_USER_LIST_DELTA, UserListDelta, ("uid", DIGEST_LEN), ("c", DIGEST_LEN)),
    TextFrame(MSG_ERROR, str),
)
_BY_TYPE = {row.msg_type: row for row in FRAMES}
_BY_CLASS = {row.cls: row for row in FRAMES}


def layout(cls: type) -> FixedFrame | DeltaFrame | ListFrame | TextFrame:
    """The table row of the frame that carries `cls`."""
    try:
        return _BY_CLASS[cls]
    except KeyError:
        raise CodecError(f"cannot encode {cls.__name__}") from None


def encode_body(msg: Frame) -> bytes:
    """The body of `msg`'s frame, without its type byte."""
    return layout(type(msg)).pack(msg)


def decode_body(cls: type, body: bytes) -> Frame:
    """The `cls` value in a frame body that carries no type byte."""
    return layout(cls).unpack(body)


def encode_frame(msg: Frame) -> bytes:
    row = layout(type(msg))
    return row.tag + row.pack(msg)


def decode_frame(raw: bytes) -> tuple[int, Frame]:
    if not raw:
        raise CodecError("empty frame")
    if raw[0] not in _BY_TYPE:
        raise CodecError(f"unknown frame type 0x{raw[0]:02x}")
    return raw[0], _BY_TYPE[raw[0]].unpack(raw[1:])


def write_frame(stream: BinaryIO, msg: Frame) -> None:
    raw = encode_frame(msg)
    if len(raw) > MAX_FRAME_LEN:
        raise CodecError(f"frame of {len(raw)} bytes exceeds {MAX_FRAME_LEN}")
    stream.write(struct.pack(">I", len(raw)) + raw)
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def read_frame(stream: BinaryIO) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF.

    An oversized length is consumed and discarded, then CodecError is
    raised so the connection can answer with an error frame and continue.
    """
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_LEN:
        remaining = length
        while remaining > 0:
            chunk = stream.read(min(remaining, 65536))
            if not chunk:
                break
            remaining -= len(chunk)
        raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME_LEN}")
    raw = _read_exact(stream, length)
    if raw is None:
        raise CodecError("stream ended mid-frame")
    return raw
