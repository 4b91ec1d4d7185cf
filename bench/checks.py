"""Checks on the program's outputs, computed apart from the program.

Each check recomputes what the scheme fixes from the paper's formulas with
``hashlib``, ``struct`` and ``json`` alone, and returns ``None`` when the
output holds or a one-line reason when it does not.  ``self_test`` feeds
every check a corrupted output and reports any check that lets it through.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct

DIGEST_LEN = 32
FIELD_LEN = 16
TS_LEN = 4
# Each way: 4-byte length prefix, 1 type byte, two digests, one timestamp.
LOGIN_WIRE_BYTES = 2 * (4 + 1 + DIGEST_LEN + DIGEST_LEN + TS_LEN)
# The answer to a forged request: the error frame tag, then the error kind.
AUTH_FAIL_FRAME = b"\x7fAuthFail"


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def field(text: str) -> bytes:
    """An identity, password or location as its 16-byte zero-padded field."""
    return text.encode("utf-8").ljust(FIELD_LEN, b"\x00")


def uid_from_card(user_id: str, password: str, w: bytes) -> bytes:
    """UID = h(r1 || ID || r2), with r1 || r2 = W xor h(ID || PW)."""
    a = _h(field(user_id) + field(password))
    r1r2 = bytes(x ^ y for x, y in zip(w, a))
    return _h(r1r2[:16] + field(user_id) + r1r2[16:])


def alpha_for(uid: bytes, server_field: bytes, ssk: bytes, t1: int) -> bytes:
    """alpha = h(SID || SSK || T1) xor UID, the login request's first digest."""
    mask = _h(server_field + ssk + struct.pack(">I", t1))
    return bytes(x ^ y for x, y in zip(mask, uid))


def session_key(
    uid: bytes, c: bytes, server_field: bytes, loc_field: bytes, expiry: int, duration: int
) -> bytes:
    """SK = h(UID || SID || C || LOC || VT), VT being expiry and duration as two u64."""
    return _h(uid + server_field + c + loc_field + struct.pack(">QQ", expiry, duration))


def check_issued(expiry: int, duration: int, issued_lo: int, issued_hi: int) -> str | None:
    """The validity window must start at the server's clock during the login."""
    issued = expiry - duration
    if not issued_lo <= issued <= issued_hi:
        return f"validity issued at {issued}, outside the login's [{issued_lo}, {issued_hi}]"
    return None


def check_session_key(
    sk: bytes,
    uid: bytes,
    c: bytes,
    server_field: bytes,
    loc_field: bytes,
    expiry: int,
    duration: int,
    issued_lo: int,
    issued_hi: int,
) -> str | None:
    late = check_issued(expiry, duration, issued_lo, issued_hi)
    if late is not None:
        return late
    if sk != session_key(uid, c, server_field, loc_field, expiry, duration):
        return "session key differs from h(uid || id || c || loc || vt)"
    return None


def check_fingerprint(fingerprint: str, expected_sk: bytes) -> str | None:
    if fingerprint != expected_sk[:8].hex():
        return f"fingerprint {fingerprint} differs from the recomputed {expected_sk[:8].hex()}"
    return None


def check_wire_bytes(n: int) -> str | None:
    if n != LOGIN_WIRE_BYTES:
        return f"login moved {n} bytes on the socket, not {LOGIN_WIRE_BYTES}"
    return None


def check_card_bytes(n: int, n_servers: int) -> str | None:
    expected = 4 * DIGEST_LEN + 64 * n_servers
    if n != expected:
        return f"card holds {n} bytes, not 4*32 + 64*{n_servers} = {expected}"
    return None


def check_reject(raw: bytes) -> str | None:
    if raw != AUTH_FAIL_FRAME:
        return f"forged request answered {raw[:24]!r}, not AuthFail"
    return None


def rc_user_map(rc_doc: dict) -> dict[str, str]:
    return {row["uid"]: row["c"] for row in rc_doc["users"]}


def trm_user_map(trm_doc: dict) -> dict[str, str] | None:
    """The TRM's uid -> c map, or None when its uid list disagrees with it."""
    users = {row["uid"]: row["c"] for row in trm_doc["list_c"]}
    return users if set(trm_doc["list_uid"]) == set(users) else None


def check_trm_matches_rc(rc_doc: dict, trm_doc: dict) -> str | None:
    rc_users = rc_user_map(rc_doc)
    trm_users = trm_user_map(trm_doc)
    if trm_users is None:
        return "TRM list_uid and list_c disagree"
    if trm_users != rc_users:
        missing = len(set(rc_users) - set(trm_users))
        return f"TRM holds {len(trm_users)} users, RC {len(rc_users)}; {missing} missing"
    return None


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def self_test(work: str) -> list[str]:
    """Run every check on a true output and on a corrupted one.

    Returns one line per check that rejected the true output or accepted
    the corrupted one; an empty list means every check works.
    """
    from maskap import netsim, protocol, registry

    faults: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            faults.append(what)

    world = netsim.build_world(seed=0, n_servers=1, n_users=2)
    user = world.users["user00"]
    server = world.servers["srv00"]
    t = world.clock.now
    req, ctx = protocol.user_login_begin(user.user_id, user.password, user.card, "srv00", t)
    resp, _ = protocol.server_handle_login(
        server.trm, "srv00", server.location, req, t2=t, delta_t=5
    )
    key = protocol.user_handle_response(ctx, resp, t3=t, delta_t=5)
    uid = uid_from_card(user.user_id, user.password, user.card.w)
    sid = field("srv00")
    loc = world.rc.servers[sid].loc_j
    args = (uid, world.rc.users[uid], sid, loc, key.vt.expiry, key.vt.duration_s, t, t)
    expect(check_session_key(key.sk, *args) is None, "session key: true key rejected")
    flipped = bytes([key.sk[0] ^ 0x01]) + key.sk[1:]
    expect(check_session_key(flipped, *args) is not None, "session key: flipped byte accepted")
    expect(
        check_issued(key.vt.expiry + 60, key.vt.duration_s, t, t) is not None,
        "validity: window issued a minute late accepted",
    )
    true_sk = session_key(*args[:6])
    expect(check_fingerprint(key.sk[:8].hex(), true_sk) is None, "fingerprint: true one rejected")
    expect(
        check_fingerprint(flipped[:8].hex(), true_sk) is not None,
        "fingerprint: flipped byte accepted",
    )

    expect(check_wire_bytes(LOGIN_WIRE_BYTES) is None, "wire bytes: true count rejected")
    expect(check_wire_bytes(LOGIN_WIRE_BYTES + 1) is not None, "wire bytes: extra byte accepted")
    expect(check_card_bytes(user.card.storage_bytes, 1) is None, "card bytes: true size rejected")
    expect(
        check_card_bytes(user.card.storage_bytes + 1, 1) is not None,
        "card bytes: extra byte accepted",
    )
    expect(check_reject(AUTH_FAIL_FRAME) is None, "reject: AuthFail rejected")
    expect(check_reject(b"\x7fUnknownUser") is not None, "reject: UnknownUser accepted")

    rc_path = os.path.join(work, "selftest.rcdb.json")
    trm_path = os.path.join(work, "selftest.trm.json")
    registry.store_rc(world.rc, rc_path)
    registry.store_trm(server.trm, trm_path, "srv00", server.location)
    rc_doc, trm_doc = load_json(rc_path), load_json(trm_path)
    expect(check_trm_matches_rc(rc_doc, trm_doc) is None, "TRM sync: true TRM rejected")
    dropped = trm_doc["list_c"].pop()
    trm_doc["list_uid"].remove(dropped["uid"])
    expect(check_trm_matches_rc(rc_doc, trm_doc) is not None, "TRM sync: missing user accepted")
    os.unlink(rc_path)
    os.unlink(trm_path)
    return faults
