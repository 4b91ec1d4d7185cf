"""Tagged binary frames and length-prefixed stream framing.

A frame is one type byte followed by a body.  FRAMES, the one table of
layouts, gives every frame type its type byte, its class and its fields
with their widths; every size on the wire is derived from it.  On a stream
socket each frame is preceded by a 4-byte big-endian length; frames above
MAX_FRAME_LEN are rejected.  `Deframer` holds these stream rules once, for
`read_frame` and for the service's event loop.
"""
from __future__ import annotations

import operator
import struct
from itertools import accumulate
from typing import BinaryIO

from .core import DIGEST_LEN, FIELD_LEN, MAX_FRAME_LEN, TS_LEN
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


PREFIX = struct.Struct(">I")  # before each frame on a stream: its length
MID_FRAME = "stream ended mid-frame"


def _oversized(length: int) -> CodecError:
    return CodecError(f"frame of {length} bytes exceeds {MAX_FRAME_LEN}")


def frame_bytes(msg: Frame) -> bytes:
    """`msg`'s frame with its length prefix, as it goes on a stream."""
    raw = encode_frame(msg)
    if len(raw) > MAX_FRAME_LEN:
        raise _oversized(len(raw))
    return PREFIX.pack(len(raw)) + raw


def write_frame(stream: BinaryIO, msg: Frame) -> None:
    stream.write(frame_bytes(msg))
    stream.flush()


class Deframer:
    """Cuts length-prefixed frames out of a stream's bytes as they arrive.

    An oversized length raises CodecError as soon as it is read; the frame's
    body is then discarded as it arrives, and the stream goes on with the
    next frame.
    """

    __slots__ = ("buf", "skip")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.skip = 0  # bytes of an oversized frame still to discard

    def feed(self, data: bytes) -> None:
        if self.skip:
            dropped = min(self.skip, len(data))
            self.skip -= dropped
            data = data[dropped:]
        self.buf += data

    def cut(self) -> bytes | None:
        """The next whole frame, or None until more bytes arrive."""
        buf = self.buf
        if len(buf) < PREFIX.size:
            return None
        (length,) = PREFIX.unpack_from(buf)
        end = PREFIX.size + length
        if length > MAX_FRAME_LEN:
            self.skip = max(0, end - len(buf))
            del buf[:end]
            raise _oversized(length)
        if len(buf) < end:
            return None
        raw = bytes(buf[PREFIX.size : end])
        del buf[:end]
        return raw

    def need(self) -> int:
        """How many more bytes the next frame, or a discarded one, takes."""
        if self.skip:
            return self.skip
        if len(self.buf) < PREFIX.size:
            return PREFIX.size - len(self.buf)
        return PREFIX.size + PREFIX.unpack_from(self.buf)[0] - len(self.buf)

    def end(self) -> None:
        """At the end of the stream: CodecError if a frame was cut off after
        its length."""
        if len(self.buf) >= PREFIX.size:
            raise CodecError(MID_FRAME)


def read_frame(stream: BinaryIO) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF.

    An oversized frame is consumed and discarded, then CodecError is raised
    so the connection can answer with an error frame and continue.
    """
    frames = Deframer()
    try:
        while (raw := frames.cut()) is None:
            chunk = stream.read(frames.need())
            if not chunk:
                frames.end()
                return None
            frames.feed(chunk)
    except CodecError:
        while frames.skip and (chunk := stream.read(min(frames.skip, 65536))):
            frames.feed(chunk)
        raise
    return raw
