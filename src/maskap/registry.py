"""File persistence for RC state, tamper-resistant memories, and smart cards.

JSON documents with lowercase-hex byte fields and a version tag, written
compact with sorted keys: user rows from one string template each, every
other value by the C encoder.  Writes go through a temp file that is fsynced,
renamed over the target, and made durable with an fsync of the directory, so
readers always see whole snapshots and a crash keeps the old or the new one.
Loaders accept any JSON layout, the indented files of earlier versions too.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator

from .core import DIGEST_LEN, FIELD_LEN
from .protocol import RcState, ServerRecord, SmartCard, TamperResistantMemory

FORMAT_VERSION = 1

# Rows of a top-level list encoded per write call: one string per batch keeps
# the encoder's output small however many users a file holds.
ROW_BATCH = 256

# `json.dump` always runs the pure-Python encoder; `encode` uses the C one.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# One user row as `_encode` writes it, keys sorted.  `bytes.hex` yields only
# [0-9a-f], so the values need no JSON escaping.
_USER_ROW = '{"c":"%s","uid":"%s"}'


class CorruptRecord(Exception):
    """A persisted record failed width, uniqueness, shape, or format validation."""


@dataclass(frozen=True)
class _UserRows:
    """A uid -> c map, stored as the list of its ``{"c", "uid"}`` rows in map order."""

    users: dict[bytes, bytes]

    def batches(self) -> Iterator[str]:
        """The rows, ROW_BATCH at a time, each batch comma-joined without brackets."""
        items = iter(self.users.items())
        while batch := list(islice(items, ROW_BATCH)):
            yield ",".join([_USER_ROW % (c.hex(), uid.hex()) for uid, c in batch])


def _list_batches(value: list) -> Iterator[str]:
    for start in range(0, len(value), ROW_BATCH):
        # Strip the batch's own brackets; the list's are written around them.
        yield _encode(value[start : start + ROW_BATCH])[1:-1]


def _chunks(doc: dict) -> Iterator[str]:
    """`_encode(doc)` in pieces: each list and `_UserRows` goes out a batch of rows at a time."""
    yield "{"
    for i, key in enumerate(sorted(doc)):
        yield ("," if i else "") + _encode(key) + ":"
        value = doc[key]
        if isinstance(value, _UserRows):
            batches = value.batches()
        elif isinstance(value, list):
            batches = _list_batches(value)
        else:
            yield _encode(value)
            continue
        yield "["
        for n, batch in enumerate(batches):
            yield ("," if n else "") + batch
        yield "]"
    yield "}\n"


def _atomic_write(path: str, doc: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(_chunks(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _load_doc(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise CorruptRecord(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptRecord(f"{path}: top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise CorruptRecord(f"{path}: unsupported format version {doc.get('version')!r}")
    return doc


def _unhex(doc_path: str, name: str, value: Any, width: int | None) -> bytes:
    if not isinstance(value, str):
        raise CorruptRecord(f"{doc_path}: field {name} must be a hex string")
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise CorruptRecord(f"{doc_path}: field {name} is not valid hex") from exc
    if width is not None and len(raw) != width:
        raise CorruptRecord(f"{doc_path}: field {name} must be {width} bytes, got {len(raw)}")
    return raw


def _unhex_all(doc_path: str, name: str, values: list, width: int) -> list[bytes]:
    """`_unhex` of every value, decoded by one C-level `map` over the column.

    A column that fails is decoded again value by value with `_unhex`,
    which raises on the first bad value and names its field.
    """
    try:
        raw = list(map(bytes.fromhex, values))
        if set(map(len, raw)) <= {width}:
            return raw
    except (TypeError, ValueError):
        pass
    return [_unhex(doc_path, name, value, width) for value in values]


def _list(doc_path: str, doc: dict, name: str) -> list:
    value = doc[name]
    if not isinstance(value, list):
        raise CorruptRecord(f"{doc_path}: field {name} must be a list")
    return value


def _rows(doc_path: str, doc: dict, name: str) -> list[dict]:
    rows = _list(doc_path, doc, name)
    if not set(map(type, rows)) <= {dict}:
        raise CorruptRecord(f"{doc_path}: every row of {name} must be an object")
    return rows


def _user_map(doc_path: str, doc: dict, name: str) -> dict[bytes, bytes]:
    """The uid -> c map of the ``{"uid", "c"}`` row list ``doc[name]``."""
    rows = _rows(doc_path, doc, name)
    uid_hex = [row["uid"] for row in rows]
    c_hex = [row["c"] for row in rows]
    uids = _unhex_all(doc_path, f"{name}.uid", uid_hex, DIGEST_LEN)
    users = dict(zip(uids, _unhex_all(doc_path, f"{name}.c", c_hex, DIGEST_LEN)))
    if len(users) != len(uids):
        seen: set[bytes] = set()
        for uid in uids:
            if uid in seen:
                raise CorruptRecord(f"{doc_path}: duplicate uid {uid.hex()} in {name}")
            seen.add(uid)
    return users


# ---------------------------------------------------------------------------
# RC database
# ---------------------------------------------------------------------------


def store_rc(rc: RcState, path: str) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "k_rc": rc.k_rc.hex(),
        "servers": [
            {
                "id": id_j.hex(),
                "ssk": rec.ssk_j.hex(),
                "q": rec.q_j.hex(),
                "loc": rec.loc_j.hex(),
                "srt": rec.srt_j,
            }
            for id_j, rec in rc.servers.items()
        ],
        "users": _UserRows(rc.users),
        "sync_markers": {id_j.hex(): m for id_j, m in rc.sync_markers.items()},
    }
    _atomic_write(path, doc)


def load_rc(path: str) -> RcState:
    doc = _load_doc(path)
    try:
        k_rc = _unhex(path, "k_rc", doc["k_rc"], DIGEST_LEN)
        servers: dict[bytes, ServerRecord] = {}
        for row in _rows(path, doc, "servers"):
            id_j = _unhex(path, "servers.id", row["id"], FIELD_LEN)
            if id_j in servers:
                raise CorruptRecord(f"{path}: duplicate server id {row['id']}")
            srt = row["srt"]
            if not isinstance(srt, int) or not 0 <= srt < 2**32:
                raise CorruptRecord(f"{path}: servers.srt out of range")
            servers[id_j] = ServerRecord(
                ssk_j=_unhex(path, "servers.ssk", row["ssk"], DIGEST_LEN),
                q_j=_unhex(path, "servers.q", row["q"], DIGEST_LEN),
                loc_j=_unhex(path, "servers.loc", row["loc"], FIELD_LEN),
                srt_j=srt,
            )
        users = _user_map(path, doc, "users")
        if not isinstance(doc["sync_markers"], dict):
            raise CorruptRecord(f"{path}: field sync_markers must be an object")
        markers: dict[bytes, int] = {}
        for key, value in doc["sync_markers"].items():
            id_j = _unhex(path, "sync_markers key", key, FIELD_LEN)
            if not isinstance(value, int) or value < 0 or value > len(users):
                raise CorruptRecord(f"{path}: sync marker for {key} out of range")
            if id_j not in servers:
                raise CorruptRecord(f"{path}: sync marker for unregistered server {key}")
            markers[id_j] = value
    except KeyError as exc:
        raise CorruptRecord(f"{path}: missing field {exc}") from exc
    return RcState(k_rc=k_rc, servers=servers, users=users, sync_markers=markers)


# ---------------------------------------------------------------------------
# Smart card
# ---------------------------------------------------------------------------


def store_card(card: SmartCard, path: str) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "w": card.w.hex(),
        "x": card.x.hex(),
        "y": card.y.hex(),
        "z": card.z.hex(),
        "e": card.e.hex(),
    }
    _atomic_write(path, doc)


def load_card(path: str) -> SmartCard:
    doc = _load_doc(path)
    try:
        z = _unhex(path, "z", doc["z"], None)
        if len(z) == 0 or len(z) % 64 != 0:
            raise CorruptRecord(f"{path}: z length {len(z)} not a positive multiple of 64")
        return SmartCard(
            w=_unhex(path, "w", doc["w"], DIGEST_LEN),
            x=_unhex(path, "x", doc["x"], DIGEST_LEN),
            y=_unhex(path, "y", doc["y"], DIGEST_LEN),
            z=z,
            e=_unhex(path, "e", doc["e"], DIGEST_LEN),
        )
    except KeyError as exc:
        raise CorruptRecord(f"{path}: missing field {exc}") from exc


# ---------------------------------------------------------------------------
# Tamper-resistant memory
# ---------------------------------------------------------------------------


def store_trm(
    trm: TamperResistantMemory,
    path: str,
    server_id: str | None = None,
    server_loc: str | None = None,
) -> None:
    doc: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "ssk": trm.ssk_j.hex(),
        "p": trm.p_j.hex(),
        # A uid column beside list_c; the loader checks that the two agree.
        "list_uid": sorted(map(bytes.hex, trm.list_c)),
        "list_c": _UserRows(trm.list_c),
    }
    # Operational metadata for the CLI/service front ends; not part of the
    # provisioned store itself.
    if server_id is not None:
        doc["server_id"] = server_id
    if server_loc is not None:
        doc["server_loc"] = server_loc
    _atomic_write(path, doc)


def load_trm(path: str) -> TamperResistantMemory:
    trm, _, _ = load_trm_with_meta(path)
    return trm


def load_trm_with_meta(path: str) -> tuple[TamperResistantMemory, str | None, str | None]:
    doc = _load_doc(path)
    try:
        list_uid = set(_unhex_all(path, "list_uid", _list(path, doc, "list_uid"), DIGEST_LEN))
        list_c = _user_map(path, doc, "list_c")
        if list_uid != set(list_c):
            raise CorruptRecord(f"{path}: list_uid and list_c key set diverge")
        trm = TamperResistantMemory(
            ssk_j=_unhex(path, "ssk", doc["ssk"], DIGEST_LEN),
            p_j=_unhex(path, "p", doc["p"], DIGEST_LEN),
            list_c=list_c,
        )
    except KeyError as exc:
        raise CorruptRecord(f"{path}: missing field {exc}") from exc
    server_id, server_loc = doc.get("server_id"), doc.get("server_loc")
    for name, value in (("server_id", server_id), ("server_loc", server_loc)):
        if value is not None and not isinstance(value, str):
            raise CorruptRecord(f"{path}: field {name} must be a string")
    return trm, server_id, server_loc
