"""Byte-level primitives: hashing, fixed-width field encodings, XOR, keystream masking.

Every value that crosses a protocol boundary is built from four fixed widths:
32-byte digests, 16-byte nonces, 16-byte identity/password/location fields,
and 4-byte big-endian timestamps.  Concatenation of such values is therefore
unambiguous without any framing.
"""
from __future__ import annotations

import contextvars
import hashlib
import struct
from contextlib import contextmanager
from typing import Iterator

DIGEST_LEN = 32
NONCE_LEN = 16
FIELD_LEN = 16
TS_LEN = 4
MAX_FRAME_LEN = 4096  # one wire frame, its type byte included


class LengthMismatch(ValueError):
    """XOR operands of unequal length."""


class FieldTooLong(ValueError):
    """Identity/password/location longer than 16 UTF-8 bytes."""


class FieldEncodingError(ValueError):
    """Identity/password/location text that has no UTF-8 encoding (a lone surrogate)."""


class HashCounter:
    """Counts protocol-level hash invocations, grouped by phase label.

    Keystream-expansion sub-calls are tracked separately: they are an
    artifact of masking variable-length payloads under a 32-byte key and
    are exempt from the per-phase operation counts used for cost reports.

    Counters are activated per execution context (contextvars), so
    concurrent contexts each accumulate into their own active counter.
    """

    def __init__(self) -> None:
        self.phases: dict[str, int] = {}
        self.keystream: dict[str, int] = {}
        self._label: str | None = None

    @contextmanager
    def phase(self, label: str) -> Iterator["HashCounter"]:
        token = _ACTIVE.set(self)
        prev = self._label
        self._label = label
        try:
            yield self
        finally:
            self._label = prev
            _ACTIVE.reset(token)

    def _bump(self) -> None:
        label = self._label or "unlabeled"
        self.phases[label] = self.phases.get(label, 0) + 1

    def _bump_keystream(self) -> None:
        label = self._label or "unlabeled"
        self.keystream[label] = self.keystream.get(label, 0) + 1

    def count(self, label: str) -> int:
        return self.phases.get(label, 0)

    def keystream_count(self, label: str) -> int:
        return self.keystream.get(label, 0)


_ACTIVE: contextvars.ContextVar[HashCounter | None] = contextvars.ContextVar(
    "maskap_hash_counter", default=None
)


def sha256(data: bytes) -> bytes:
    """The protocol's one-way hash.  Counted when a HashCounter is active."""
    ctr = _ACTIVE.get()
    if ctr is not None:
        ctr._bump()
    return hashlib.sha256(data).digest()


def xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise LengthMismatch(f"xor operands differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def keystream_block(key: bytes, i: int) -> bytes:
    """Block i of `key`'s keystream: sha256(key || i), i a 4-byte big-endian counter.

    The hash bypasses sha256() above so it is not charged to the active
    counter's protocol-level tally; it is recorded in its separate keystream
    tally instead.
    """
    ctr = _ACTIVE.get()
    if ctr is not None:
        ctr._bump_keystream()
    return hashlib.sha256(key + struct.pack(">I", i)).digest()


def keystream_mask(key: bytes, payload: bytes) -> bytes:
    """XOR `payload` with `key`'s keystream blocks 0, 1, ...  Self-inverse."""
    n_blocks = -(-len(payload) // DIGEST_LEN)
    stream = b"".join(keystream_block(key, i) for i in range(n_blocks))
    return xor(payload, stream[: len(payload)])


def concat(*fields: bytes) -> bytes:
    """Juxtapose already-encoded fixed-width fields."""
    return b"".join(fields)


def encode_field(value: str) -> bytes:
    """Encode an identity/password/location as 16 bytes, zero-padded on the right."""
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FieldEncodingError(f"field {value!r} has no UTF-8 encoding: {exc.reason}") from None
    if len(raw) > FIELD_LEN:
        raise FieldTooLong(f"field {value!r} encodes to {len(raw)} bytes (max {FIELD_LEN})")
    return raw.ljust(FIELD_LEN, b"\x00")


def decode_field(raw: bytes) -> str:
    if len(raw) != FIELD_LEN:
        raise ValueError(f"expected {FIELD_LEN}-byte field, got {len(raw)}")
    return raw.rstrip(b"\x00").decode("utf-8")


def ts_bytes(seconds: int) -> bytes:
    """4-byte big-endian unsigned timestamp.  Rolls over in 2106; not handled."""
    if not 0 <= seconds < 2**32:
        raise ValueError(f"timestamp out of u32 range: {seconds}")
    return struct.pack(">I", seconds)


def ts_from_bytes(raw: bytes) -> int:
    if len(raw) != TS_LEN:
        raise ValueError(f"expected {TS_LEN}-byte timestamp, got {len(raw)}")
    return struct.unpack(">I", raw)[0]
