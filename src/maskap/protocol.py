"""State-machine transforms for all five protocol phases.

Pure functions over immutable values: registration (server and user),
login/key agreement, card update, and server database sync.  Transport,
clocks, and storage live elsewhere; every function here takes explicit
timestamps and an explicit RNG where randomness is needed.
"""
from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field, replace
from typing import Protocol as _Proto

from .core import (
    DIGEST_LEN,
    FIELD_LEN,
    MAX_FRAME_LEN,
    NONCE_LEN,
    concat,
    encode_field,
    keystream_block,
    keystream_mask,
    sha256,
    ts_bytes,
    xor,
)

SERVER_ENTRY_LEN = FIELD_LEN + DIGEST_LEN + FIELD_LEN  # 64
# The whole server list travels in one frame, after its one-byte type.
MAX_SERVERS = (MAX_FRAME_LEN - 1) // SERVER_ENTRY_LEN  # 63
VALIDITY_LEN = 16
DEFAULT_VT_DURATION = 900


class ProtocolError(Exception):
    """Base for every protocol-phase rejection."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class BadCredentials(ProtocolError):
    """Local card check failed: wrong id/password or tampered card."""


class UnknownServer(ProtocolError):
    pass


class UnknownUser(ProtocolError):
    pass


class AuthFail(ProtocolError):
    """A verifier comparison (beta / sigma / tau / omega) did not hold."""


class StaleRequest(ProtocolError):
    pass


class StaleResponse(ProtocolError):
    pass


class DuplicateServerId(ProtocolError):
    pass


class DuplicateUid(ProtocolError):
    pass


class TooManyServers(ProtocolError):
    """Another entry would make the server list too long for one frame."""


class NoServersRegistered(ProtocolError):
    """A card with an empty server list would be unusable; fail fast."""


class MalformedList(ProtocolError):
    pass


class SupportsRandBytes(_Proto):
    def randbytes(self, n: int) -> bytes: ...


def _fresh(sent: int, received: int, delta_t: int) -> bool:
    # The written freshness inequality would accept only stale traffic;
    # the intended predicate is a transit-age window.
    return 0 <= received - sent <= delta_t


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerSecrets:
    """What a server keeps outside its tamper-resistant memory."""

    id_j: bytes
    pw_j: bytes
    r_s: bytes
    p_j: bytes
    loc_j: bytes


@dataclass(frozen=True)
class RegRequest:
    id_j: bytes
    p_j: bytes
    q_j: bytes
    loc_j: bytes


@dataclass
class TamperResistantMemory:
    ssk_j: bytes
    p_j: bytes
    list_uid: set[bytes]
    list_c: dict[bytes, bytes]


@dataclass(frozen=True)
class SmartCard:
    w: bytes
    x: bytes
    y: bytes
    z: bytes
    e: bytes

    def __post_init__(self) -> None:
        for name in ("w", "x", "y", "e"):
            if len(getattr(self, name)) != DIGEST_LEN:
                raise ValueError(f"card field {name} must be {DIGEST_LEN} bytes")
        if len(self.z) == 0 or len(self.z) % SERVER_ENTRY_LEN != 0:
            raise ValueError("card field z must be a positive multiple of 64 bytes")

    @property
    def storage_bytes(self) -> int:
        return len(self.w) + len(self.x) + len(self.y) + len(self.z) + len(self.e)


@dataclass(frozen=True)
class ServerListEntry:
    id_j: bytes
    ssk_j: bytes
    loc_j: bytes

    def pack(self) -> bytes:
        return concat(self.id_j, self.ssk_j, self.loc_j)

    @staticmethod
    def unpack(raw: bytes) -> "ServerListEntry":
        if len(raw) != SERVER_ENTRY_LEN:
            raise ValueError(f"server list entry must be {SERVER_ENTRY_LEN} bytes")
        return ServerListEntry(raw[:16], raw[16:48], raw[48:64])


def parse_server_list(raw: bytes) -> list[ServerListEntry]:
    if len(raw) == 0 or len(raw) % SERVER_ENTRY_LEN != 0:
        raise MalformedList(f"server list length {len(raw)} not a positive multiple of 64")
    return [
        ServerListEntry.unpack(raw[i : i + SERVER_ENTRY_LEN])
        for i in range(0, len(raw), SERVER_ENTRY_LEN)
    ]


@dataclass
class ServerRecord:
    ssk_j: bytes
    q_j: bytes
    loc_j: bytes
    srt_j: int


@dataclass
class RcState:
    """The registration center's secure database.

    Dict insertion order doubles as registration order, which the per-server
    sync markers index into when computing database-update deltas.
    """

    k_rc: bytes
    servers: dict[bytes, ServerRecord] = field(default_factory=dict)
    users: dict[bytes, bytes] = field(default_factory=dict)  # uid -> c
    sync_markers: dict[bytes, int] = field(default_factory=dict)


@dataclass(frozen=True)
class UserRegRequest:
    uid_i: bytes
    a_i: bytes


@dataclass(frozen=True)
class PendingRegistration:
    r1: bytes
    r2: bytes
    a_i: bytes
    uid_i: bytes


@dataclass(frozen=True)
class CardProvision:
    c_i: bytes
    d_i: bytes
    list_bytes: bytes


@dataclass(frozen=True)
class Validity16:
    """Session-key validity window: expiry plus duration, 16 bytes on the wire."""

    expiry: int
    duration_s: int

    def pack(self) -> bytes:
        return struct.pack(">QQ", self.expiry, self.duration_s)

    @staticmethod
    def unpack(raw: bytes) -> "Validity16":
        if len(raw) != VALIDITY_LEN:
            raise ValueError(f"validity must be {VALIDITY_LEN} bytes")
        expiry, duration = struct.unpack(">QQ", raw)
        return Validity16(expiry, duration)


@dataclass(frozen=True)
class LoginRequest:
    alpha: bytes
    beta: bytes
    t1: int


@dataclass(frozen=True)
class LoginResponse:
    gamma: bytes
    sigma: bytes
    t2: int


@dataclass(frozen=True)
class SessionKey:
    sk: bytes
    vt: Validity16
    peer_id: bytes  # server identity field on the user side, uid on the server side


@dataclass(frozen=True)
class LoginContext:
    uid: bytes
    c_i: bytes
    ssk_j: bytes
    id_j: bytes
    beta: bytes
    t1: int


@dataclass(frozen=True)
class UpdateRequest:
    uid: bytes
    tau: bytes
    t4: int


@dataclass(frozen=True)
class UpdateContext:
    uid: bytes
    c_i: bytes
    t4: int


@dataclass(frozen=True)
class DbUpdateRequest:
    id_j: bytes
    omega: bytes
    t6: int


@dataclass(frozen=True)
class UserListDelta:
    entries: tuple[tuple[bytes, bytes], ...]  # (uid, c) pairs in registration order


# ---------------------------------------------------------------------------
# Server registration
# ---------------------------------------------------------------------------


def server_register_begin(
    id_j: str, pw_j: str, loc_j: str, rng: SupportsRandBytes
) -> tuple[ServerSecrets, RegRequest]:
    idb = encode_field(id_j)
    pwb = encode_field(pw_j)
    locb = encode_field(loc_j)
    r_s = rng.randbytes(NONCE_LEN)
    p_j = sha256(concat(idb, r_s, pwb))
    q_j = xor(sha256(concat(idb, pwb)), p_j)
    secrets = ServerSecrets(id_j=idb, pw_j=pwb, r_s=r_s, p_j=p_j, loc_j=locb)
    return secrets, RegRequest(id_j=idb, p_j=p_j, q_j=q_j, loc_j=locb)


def rc_register_server(rc: RcState, req: RegRequest, srt_j: int) -> TamperResistantMemory:
    if req.id_j in rc.servers:
        raise DuplicateServerId(f"server id already registered")
    if len(rc.servers) >= MAX_SERVERS:
        raise TooManyServers(f"a deployment holds at most {MAX_SERVERS} servers")
    ssk_j = sha256(concat(rc.k_rc, req.p_j, ts_bytes(srt_j)))
    rc.servers[req.id_j] = ServerRecord(ssk_j=ssk_j, q_j=req.q_j, loc_j=req.loc_j, srt_j=srt_j)
    rc.sync_markers[req.id_j] = len(rc.users)
    return TamperResistantMemory(
        ssk_j=ssk_j,
        p_j=req.p_j,
        list_uid=set(rc.users),
        list_c=dict(rc.users),
    )


def server_list_bytes(rc: RcState) -> bytes:
    """The card's server list, sorted by id so that login can binary-search it."""
    return b"".join(
        ServerListEntry(id_j, rc.servers[id_j].ssk_j, rc.servers[id_j].loc_j).pack()
        for id_j in sorted(rc.servers)
    )


# ---------------------------------------------------------------------------
# User registration
# ---------------------------------------------------------------------------


def user_register_begin(
    id_i: str, pw_i: str, rng: SupportsRandBytes
) -> tuple[PendingRegistration, UserRegRequest]:
    idb = encode_field(id_i)
    pwb = encode_field(pw_i)
    r1 = rng.randbytes(NONCE_LEN)
    r2 = rng.randbytes(NONCE_LEN)
    a_i = sha256(concat(idb, pwb))
    uid_i = sha256(concat(r1, idb, r2))
    return (
        PendingRegistration(r1=r1, r2=r2, a_i=a_i, uid_i=uid_i),
        UserRegRequest(uid_i=uid_i, a_i=a_i),
    )


def rc_register_user(rc: RcState, req: UserRegRequest, rng: SupportsRandBytes) -> CardProvision:
    if req.uid_i in rc.users:
        raise DuplicateUid("uid already registered; retry with fresh nonces")
    if not rc.servers:
        raise NoServersRegistered("cannot provision a card with an empty server list")
    r3 = rng.randbytes(NONCE_LEN)
    usk_i = sha256(concat(req.uid_i, rc.k_rc, r3))
    c_i = xor(
        xor(sha256(concat(rc.k_rc, r3, req.a_i)), usk_i),
        sha256(concat(req.uid_i, req.a_i)),
    )
    d_i = xor(req.a_i, usk_i)
    rc.users[req.uid_i] = c_i
    return CardProvision(c_i=c_i, d_i=d_i, list_bytes=server_list_bytes(rc))


def user_finalize_card(
    id_i: str, pw_i: str, r1: bytes, r2: bytes, prov: CardProvision
) -> SmartCard:
    idb = encode_field(id_i)
    pwb = encode_field(pw_i)
    if len(prov.list_bytes) == 0 or len(prov.list_bytes) % SERVER_ENTRY_LEN != 0:
        raise MalformedList("provisioned server list has invalid length")
    a_i = sha256(concat(idb, pwb))
    uid_i = sha256(concat(r1, idb, r2))
    w = xor(concat(r1, r2), a_i)
    b_i = xor(sha256(concat(r1, pwb)), sha256(concat(r2, pwb)))
    x = xor(xor(sha256(xor(r2, idb)), prov.c_i), sha256(xor(r1, pwb)))
    y = xor(b_i, prov.d_i)
    outer, inner = _server_list_keys(idb, pwb, r1, r2)
    z = keystream_mask(outer, keystream_mask(inner, prov.list_bytes))
    usk_i = xor(a_i, prov.d_i)
    e = sha256(concat(uid_i, pwb, usk_i))
    return SmartCard(w=w, x=x, y=y, z=z, e=e)


# ---------------------------------------------------------------------------
# Login / key agreement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OpenedCard:
    r1: bytes
    r2: bytes
    uid: bytes
    usk: bytes


def _open_card(idb: bytes, pwb: bytes, card: SmartCard) -> _OpenedCard:
    """Step 1 of login/update: recover nonces from the card and check the
    stored password digest.  Hash calls follow the written formula sequence,
    so the recomputation of h(id||pw) in the key-recovery line is performed
    (not cached) to keep instrumented counts aligned with the symbolic ones.
    """
    r1r2 = xor(card.w, sha256(concat(idb, pwb)))
    r1, r2 = r1r2[:NONCE_LEN], r1r2[NONCE_LEN:]
    b_i = xor(sha256(concat(r1, pwb)), sha256(concat(r2, pwb)))
    usk = xor(xor(sha256(concat(idb, pwb)), card.y), b_i)
    uid = sha256(concat(r1, idb, r2))
    e_check = sha256(concat(uid, pwb, usk))
    if not hmac.compare_digest(e_check, card.e):
        raise BadCredentials("card check value mismatch")
    return _OpenedCard(r1=r1, r2=r2, uid=uid, usk=usk)


def _server_list_keys(idb: bytes, pwb: bytes, r1: bytes, r2: bytes) -> tuple[bytes, bytes]:
    """The two keys whose keystreams mask the card's server list, outer one first."""
    return sha256(concat(r1, idb, pwb)), sha256(concat(idb, pwb, r2))


def _unmask_server_list(idb: bytes, pwb: bytes, r1: bytes, r2: bytes, z: bytes) -> bytes:
    outer, inner = _server_list_keys(idb, pwb, r1, r2)
    return keystream_mask(inner, keystream_mask(outer, z))


def _find_server_entry(
    idb: bytes, pwb: bytes, r1: bytes, r2: bytes, z: bytes, target: bytes
) -> ServerListEntry | None:
    """The entry for `target` in the masked list `z`, unmasking only the blocks read.

    Entry k spans keystream blocks 2k and 2k+1, and its id is the first 16
    bytes of block 2k.  A probe therefore unmasks one block under each of the
    two mask keys, and the entry found unmasks its second block.  Lists are
    written sorted by id, so a binary search finds the entry; when it misses,
    every id is scanned, for cards whose lists are still in registration order.
    """
    outer, inner = _server_list_keys(idb, pwb, r1, r2)

    def unmask(i: int) -> bytes:
        block = z[i * DIGEST_LEN : (i + 1) * DIGEST_LEN]
        return xor(xor(block, keystream_block(outer, i)), keystream_block(inner, i))

    heads: dict[int, bytes] = {}

    def id_at(k: int) -> bytes:
        if k not in heads:
            heads[k] = unmask(2 * k)
        return heads[k][:FIELD_LEN]

    def entry(k: int) -> ServerListEntry:
        return ServerListEntry.unpack(heads[k] + unmask(2 * k + 1))

    n = len(z) // SERVER_ENTRY_LEN
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        probe = id_at(mid)
        if probe == target:
            return entry(mid)
        if probe < target:
            lo = mid + 1
        else:
            hi = mid
    return next((entry(k) for k in range(n) if id_at(k) == target), None)


def _recover_c(idb: bytes, pwb: bytes, r1: bytes, r2: bytes, x: bytes) -> bytes:
    return xor(xor(x, sha256(xor(r2, idb))), sha256(xor(r1, pwb)))


def user_login_begin(
    id_i: str, pw_i: str, card: SmartCard, target_id_j: str, t1: int
) -> tuple[LoginRequest, LoginContext]:
    idb = encode_field(id_i)
    pwb = encode_field(pw_i)
    opened = _open_card(idb, pwb, card)
    target = encode_field(target_id_j)
    entry = _find_server_entry(idb, pwb, opened.r1, opened.r2, card.z, target)
    if entry is None:
        raise UnknownServer(f"server {target_id_j!r} not in card's list")
    alpha = xor(sha256(concat(entry.id_j, entry.ssk_j, ts_bytes(t1))), opened.uid)
    c_i = _recover_c(idb, pwb, opened.r1, opened.r2, card.x)
    beta = sha256(concat(opened.uid, entry.ssk_j, c_i, ts_bytes(t1)))
    ctx = LoginContext(
        uid=opened.uid, c_i=c_i, ssk_j=entry.ssk_j, id_j=entry.id_j, beta=beta, t1=t1
    )
    return LoginRequest(alpha=alpha, beta=beta, t1=t1), ctx


def _enc_diff(later: int, earlier: int) -> bytes:
    # Tampered timestamps can make the difference negative; keep the
    # encoding total so the comparison (not an exception) rejects.
    return struct.pack(">I", (later - earlier) % 2**32)


def server_handle_login(
    trm: TamperResistantMemory,
    id_j: str,
    loc_j: str,
    req: LoginRequest,
    t2: int,
    delta_t: int,
    vt_duration: int = DEFAULT_VT_DURATION,
    replay_cache: set[tuple[bytes, int]] | None = None,
) -> tuple[LoginResponse, SessionKey]:
    if not _fresh(req.t1, t2, delta_t):
        raise StaleRequest(f"request aged {t2 - req.t1}s, window {delta_t}s")
    if replay_cache is not None and (req.beta, req.t1) in replay_cache:
        raise StaleRequest("request already seen within window")
    idb = encode_field(id_j)
    uid = xor(sha256(concat(idb, trm.ssk_j, ts_bytes(req.t1))), req.alpha)
    c_i = trm.list_c.get(uid)
    if c_i is None:
        raise UnknownUser("uid not in provisioned user list")
    beta_check = sha256(concat(uid, trm.ssk_j, c_i, ts_bytes(req.t1)))
    if not hmac.compare_digest(beta_check, req.beta):
        raise AuthFail("login request verifier mismatch")
    if replay_cache is not None:
        replay_cache.add((req.beta, req.t1))
    vt = Validity16(expiry=t2 + vt_duration, duration_s=vt_duration)
    locb = encode_field(loc_j)
    gamma = xor(concat(vt.pack(), locb), sha256(concat(c_i, uid, idb, beta_check)))
    sigma = sha256(concat(vt.pack(), c_i, _enc_diff(t2, req.t1)))
    sk = sha256(concat(uid, idb, c_i, locb, vt.pack()))
    return LoginResponse(gamma=gamma, sigma=sigma, t2=t2), SessionKey(sk=sk, vt=vt, peer_id=uid)


def user_handle_response(
    ctx: LoginContext, resp: LoginResponse, t3: int, delta_t: int
) -> SessionKey:
    if not _fresh(resp.t2, t3, delta_t):
        raise StaleResponse(f"response aged {t3 - resp.t2}s, window {delta_t}s")
    plain = xor(resp.gamma, sha256(concat(ctx.c_i, ctx.uid, ctx.id_j, ctx.beta)))
    vt_raw, locb = plain[:VALIDITY_LEN], plain[VALIDITY_LEN:]
    sigma_check = sha256(concat(vt_raw, ctx.c_i, _enc_diff(resp.t2, ctx.t1)))
    if not hmac.compare_digest(sigma_check, resp.sigma):
        raise AuthFail("login response verifier mismatch")
    sk = sha256(concat(ctx.uid, ctx.id_j, ctx.c_i, locb, vt_raw))
    return SessionKey(sk=sk, vt=Validity16.unpack(vt_raw), peer_id=ctx.id_j)


# ---------------------------------------------------------------------------
# Card / password update
# ---------------------------------------------------------------------------


def user_update_begin(
    id_i: str, pw_i: str, card: SmartCard, t4: int
) -> tuple[UpdateRequest, UpdateContext]:
    idb = encode_field(id_i)
    pwb = encode_field(pw_i)
    opened = _open_card(idb, pwb, card)
    c_i = _recover_c(idb, pwb, opened.r1, opened.r2, card.x)
    tau = sha256(concat(c_i, ts_bytes(t4), opened.uid))
    return (
        UpdateRequest(uid=opened.uid, tau=tau, t4=t4),
        UpdateContext(uid=opened.uid, c_i=c_i, t4=t4),
    )


def rc_handle_update(rc: RcState, req: UpdateRequest, t5: int, delta_t: int) -> bytes:
    if not _fresh(req.t4, t5, delta_t):
        raise StaleRequest(f"update request aged {t5 - req.t4}s, window {delta_t}s")
    c_i = rc.users.get(req.uid)
    if c_i is None:
        raise UnknownUser("uid not registered")
    tau_check = sha256(concat(c_i, ts_bytes(req.t4), req.uid))
    if not hmac.compare_digest(tau_check, req.tau):
        raise AuthFail("update request verifier mismatch")
    return server_list_bytes(rc)


def user_apply_server_list(id_i: str, pw_i: str, card: SmartCard, list_bytes: bytes) -> SmartCard:
    idb = encode_field(id_i)
    pwb = encode_field(pw_i)
    opened = _open_card(idb, pwb, card)
    if len(list_bytes) == 0 or len(list_bytes) % SERVER_ENTRY_LEN != 0:
        raise MalformedList(f"server list length {len(list_bytes)} not a positive multiple of 64")
    outer, inner = _server_list_keys(idb, pwb, opened.r1, opened.r2)
    z_new = keystream_mask(outer, keystream_mask(inner, list_bytes))
    return replace(card, z=z_new)


# ---------------------------------------------------------------------------
# Server database update
# ---------------------------------------------------------------------------


def server_db_update_begin(secrets: ServerSecrets, ssk_j: bytes, t6: int) -> DbUpdateRequest:
    q_j = xor(sha256(concat(secrets.id_j, secrets.pw_j)), secrets.p_j)
    omega = sha256(concat(q_j, ts_bytes(t6), ssk_j))
    return DbUpdateRequest(id_j=secrets.id_j, omega=omega, t6=t6)


def rc_handle_db_update(rc: RcState, req: DbUpdateRequest, t7: int, delta_t: int) -> UserListDelta:
    if not _fresh(req.t6, t7, delta_t):
        raise StaleRequest(f"db update request aged {t7 - req.t6}s, window {delta_t}s")
    rec = rc.servers.get(req.id_j)
    if rec is None:
        raise UnknownServer("server id not registered")
    omega_check = sha256(concat(rec.q_j, ts_bytes(req.t6), rec.ssk_j))
    if not hmac.compare_digest(omega_check, req.omega):
        raise AuthFail("db update request verifier mismatch")
    marker = rc.sync_markers.get(req.id_j, 0)
    new_uids = list(rc.users)[marker:]
    rc.sync_markers[req.id_j] = len(rc.users)
    return UserListDelta(entries=tuple((uid, rc.users[uid]) for uid in new_uids))


def apply_user_list_delta(trm: TamperResistantMemory, delta: UserListDelta) -> None:
    for uid, c in delta.entries:
        trm.list_uid.add(uid)
        trm.list_c[uid] = c
