import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskap import protocol, wire
from maskap.core import HashCounter, encode_field, sha256, ts_bytes, xor
from maskap.protocol import (
    AuthFail,
    BadCredentials,
    DuplicateServerId,
    DuplicateUid,
    LoginRequest,
    LoginResponse,
    MalformedList,
    NoServersRegistered,
    RcState,
    ServerListEntry,
    StaleRequest,
    StaleResponse,
    TooManyServers,
    UnknownServer,
    UnknownUser,
    Validity16,
    parse_server_list,
)


class FixedRng:
    """Hands out a scripted sequence of nonce values."""

    def __init__(self, *values: bytes):
        self.values = list(values)

    def randbytes(self, n: int) -> bytes:
        v = self.values.pop(0)
        assert len(v) == n
        return v


K_RC = bytes(range(32))
R_S = (0).to_bytes(15, "big") + b"\x01"
R1, R2, R3 = b"\x11" * 16, b"\x22" * 16, b"\x33" * 16
SRT = 1_700_000_000

# frozen straight-line oracle recomputations (independent hashlib script)
ORACLE_P = "c463b17a18b2df5908f1b241c5dcb8a923e9ae0a13594a50b49aa5a9061949ea"
ORACLE_Q = "fbd2182071d8707ad88e0fac80bce04422986a76524e993deb2884a8dbacef47"
ORACLE_SSK = "41ae7cba99aa29fa886daebb45d470535b492ac4e139186586a9a6e51116580a"
ORACLE_A = "920883f27fce30d48c55478ca6a002f403f0f91d5e196281cbbc4f213ea78047"
ORACLE_UID = "732772ec4417287038c17a8768b1c6ec91a1d362c61c4d48ce752fa25d6044c3"
ORACLE_CARD = {
    "w": "831992e36edf21c59d44569db7b113e521d2db3f7c3b40a3e99e6d031c85a265",
    "x": "844f75b775974baa018c59b3339185afd9692a50d9df77f41bd14ef7731e753f",
    "y": "95c03e578b05d05cc616c5eb101ad6400f6eac5a65c3a9596bd2ada74af6b06a",
    "z": "0b701acbc03e2882781275fb8309da9995e5076b8cb8e845e4e5f14d2e6225908424a828a72f06c7e068c5ea9f5674e99b355b36d3b8fd6a01a5a8b9ac3f396c",
    "e": "ef4005546dd9ffb01fc39001e5e2229d6a12c69fae7523d30dcd5540c3a606c5",
}
ORACLE_TAU = "a4bd11c388fed399c853506939b5807eb055326b4c81736bc5b6c5a422c531f1"
ORACLE_OMEGA = "99e626fb6b9e4fa2a93e8313169f3aec78c212596ab775fb06352133623ba1fa"


def fixed_setup():
    """The frozen-constant deployment: one server, one user, scripted nonces."""
    rc = RcState(k_rc=K_RC)
    secrets, reg = protocol.server_register_begin("hosp01", "pw", "goa", FixedRng(R_S))
    trm = protocol.rc_register_server(rc, reg, srt_j=SRT)
    pending, ureq = protocol.user_register_begin("alice", "hunter2", FixedRng(R1, R2))
    prov = protocol.rc_register_user(rc, ureq, FixedRng(R3))
    card = protocol.user_finalize_card("alice", "hunter2", pending.r1, pending.r2, prov)
    protocol.apply_user_list_delta(
        trm, protocol.UserListDelta(entries=tuple(rc.users.items()))
    )
    return rc, secrets, trm, card


class TestServerRegistration:
    def test_oracle_values(self):
        _, reg = protocol.server_register_begin("hosp01", "pw", "goa", FixedRng(R_S))
        assert reg.p_j.hex() == ORACLE_P
        assert reg.q_j.hex() == ORACLE_Q

    def test_q_cancellation(self):
        _, reg = protocol.server_register_begin("s", "p", "l", FixedRng(R_S))
        assert xor(reg.q_j, reg.p_j) == sha256(encode_field("s") + encode_field("p"))

    def test_field_too_long(self):
        with pytest.raises(Exception):
            protocol.server_register_begin("x" * 17, "p", "l", FixedRng(R_S))

    def test_ssk_oracle(self):
        rc = RcState(k_rc=K_RC)
        _, reg = protocol.server_register_begin("hosp01", "pw", "goa", FixedRng(R_S))
        trm = protocol.rc_register_server(rc, reg, srt_j=SRT)
        assert trm.ssk_j.hex() == ORACLE_SSK
        assert trm.ssk_j == sha256(K_RC + reg.p_j + ts_bytes(SRT))

    def test_duplicate_server(self):
        rc = RcState(k_rc=K_RC)
        _, reg = protocol.server_register_begin("s", "p", "l", FixedRng(R_S))
        protocol.rc_register_server(rc, reg, srt_j=SRT)
        with pytest.raises(DuplicateServerId):
            protocol.rc_register_server(rc, reg, srt_j=SRT + 1)

    def test_server_limit_fills_one_frame(self):
        rc = RcState(k_rc=K_RC)
        for j in range(protocol.MAX_SERVERS):
            _, reg = protocol.server_register_begin(f"s{j}", "p", "l", FixedRng(R_S))
            protocol.rc_register_server(rc, reg, srt_j=SRT)
        assert protocol.MAX_SERVERS == 63
        assert 1 + len(protocol.server_list_bytes(rc)) <= wire.MAX_FRAME_LEN
        _, reg = protocol.server_register_begin("s63", "p", "l", FixedRng(R_S))
        with pytest.raises(TooManyServers):
            protocol.rc_register_server(rc, reg, srt_j=SRT)
        assert len(rc.servers) == protocol.MAX_SERVERS and reg.id_j not in rc.sync_markers

    def test_fresh_rc_trm_lists_empty(self):
        rc = RcState(k_rc=K_RC)
        _, reg = protocol.server_register_begin("s", "p", "l", FixedRng(R_S))
        trm = protocol.rc_register_server(rc, reg, srt_j=SRT)
        assert trm.list_uid == set() and trm.list_c == {}


class TestUserRegistration:
    def test_oracle_values(self):
        pending, req = protocol.user_register_begin("alice", "hunter2", FixedRng(R1, R2))
        assert req.a_i.hex() == ORACLE_A
        assert req.uid_i.hex() == ORACLE_UID

    def test_nonce_separation(self):
        rng = random.Random(7)
        _, req1 = protocol.user_register_begin("bob", "pw", rng)
        _, req2 = protocol.user_register_begin("bob", "pw", rng)
        assert req1.uid_i != req2.uid_i

    def test_duplicate_uid(self):
        rc, *_ = fixed_setup()
        _, req = protocol.user_register_begin("alice", "hunter2", FixedRng(R1, R2))
        with pytest.raises(DuplicateUid):
            protocol.rc_register_user(rc, req, FixedRng(R3))

    def test_no_servers(self):
        rc = RcState(k_rc=K_RC)
        _, req = protocol.user_register_begin("alice", "pw", FixedRng(R1, R2))
        with pytest.raises(NoServersRegistered):
            protocol.rc_register_user(rc, req, FixedRng(R3))

    def test_usk_recoverable(self):
        rc = RcState(k_rc=K_RC)
        _, reg = protocol.server_register_begin("s", "p", "l", FixedRng(R_S))
        protocol.rc_register_server(rc, reg, srt_j=SRT)
        _, req = protocol.user_register_begin("alice", "pw", FixedRng(R1, R2))
        prov = protocol.rc_register_user(rc, req, FixedRng(R3))
        usk = xor(req.a_i, prov.d_i)
        assert usk == sha256(req.uid_i + K_RC + R3)

    def test_list_bytes_length(self):
        rc = RcState(k_rc=K_RC)
        rng = random.Random(9)
        for j in range(2):
            _, reg = protocol.server_register_begin(f"s{j}", "p", "l", rng)
            protocol.rc_register_server(rc, reg, srt_j=SRT)
        _, req = protocol.user_register_begin("alice", "pw", rng)
        prov = protocol.rc_register_user(rc, req, rng)
        assert len(prov.list_bytes) == 128

    def test_card_oracle(self):
        _, _, _, card = fixed_setup()
        assert card.w.hex() == ORACLE_CARD["w"]
        assert card.x.hex() == ORACLE_CARD["x"]
        assert card.y.hex() == ORACLE_CARD["y"]
        assert card.z.hex() == ORACLE_CARD["z"]
        assert card.e.hex() == ORACLE_CARD["e"]

    def test_card_unmasking_round_trips(self):
        rc, _, _, card = fixed_setup()
        idb, pwb = encode_field("alice"), encode_field("hunter2")
        # W -> r1||r2
        assert xor(card.w, sha256(idb + pwb)) == R1 + R2
        # Z -> server list
        raw = protocol._unmask_server_list(idb, pwb, R1, R2, card.z)
        assert raw == protocol.server_list_bytes(rc)
        entries = parse_server_list(raw)
        assert entries[0].id_j == encode_field("hosp01")


class TestLogin:
    def test_honest_key_agreement(self):
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        resp, server_key = protocol.server_handle_login(
            trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5
        )
        user_key = protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5)
        assert user_key.sk == server_key.sk
        assert user_key.vt == server_key.vt
        assert user_key.vt.expiry == (t1 + 1) + 900

    def test_wrong_password(self):
        _, _, _, card = fixed_setup()
        with pytest.raises(BadCredentials):
            protocol.user_login_begin("alice", "wrong", card, "hosp01", 0)

    def test_unknown_server(self):
        _, _, _, card = fixed_setup()
        with pytest.raises(UnknownServer):
            protocol.user_login_begin("alice", "hunter2", card, "nothere", 0)

    def test_alpha_unmasks_to_uid(self):
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        mask = sha256(encode_field("hosp01") + trm.ssk_j + ts_bytes(t1))
        assert xor(req.alpha, mask) == ctx.uid
        assert ctx.uid.hex() == ORACLE_UID

    def test_stale_request(self):
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, _ = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        with pytest.raises(StaleRequest):
            protocol.server_handle_login(trm, "hosp01", "goa", req, t2=t1 + 6, delta_t=5)
        with pytest.raises(StaleRequest):
            # receive time before the claimed send time
            protocol.server_handle_login(trm, "hosp01", "goa", req, t2=t1 - 1, delta_t=5)

    def test_timestamp_rewrite_rejected(self):
        # beta binds t1: moving the timestamp without recomputing it must fail
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, _ = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        rewritten = LoginRequest(alpha=req.alpha, beta=req.beta, t1=t1 + 1)
        with pytest.raises((AuthFail, UnknownUser)):
            protocol.server_handle_login(trm, "hosp01", "goa", rewritten, t2=t1 + 2, delta_t=5)

    def test_unknown_user(self):
        rc, _, trm, card = fixed_setup()
        trm.list_c.clear()
        trm.list_uid.clear()
        t1 = 1_700_000_050
        req, _ = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        with pytest.raises(UnknownUser):
            protocol.server_handle_login(trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5)

    def test_gamma_bit_flip_never_agrees(self):
        # sigma binds the validity window and c, so flips in the window half
        # of gamma fail the verifier outright; flips in the location half pass
        # it but derail the key derivation, so no session is ever agreed
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        resp, skey = protocol.server_handle_login(
            trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5
        )
        for byte_index in (0, 7, 15):
            mutated = bytearray(resp.gamma)
            mutated[byte_index] ^= 0x01
            bad = LoginResponse(gamma=bytes(mutated), sigma=resp.sigma, t2=resp.t2)
            with pytest.raises(AuthFail):
                protocol.user_handle_response(ctx, bad, t3=t1 + 2, delta_t=5)
        for byte_index in (16, 24, 31):
            mutated = bytearray(resp.gamma)
            mutated[byte_index] ^= 0x01
            bad = LoginResponse(gamma=bytes(mutated), sigma=resp.sigma, t2=resp.t2)
            ukey = protocol.user_handle_response(ctx, bad, t3=t1 + 2, delta_t=5)
            assert ukey.sk != skey.sk

    def test_stale_response(self):
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        resp, _ = protocol.server_handle_login(trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5)
        with pytest.raises(StaleResponse):
            protocol.user_handle_response(ctx, resp, t3=t1 + 10, delta_t=5)

    def test_replay_cache_flag(self):
        _, _, trm, card = fixed_setup()
        t1 = 1_700_000_050
        req, _ = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
        cache: set = set()
        protocol.server_handle_login(
            trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5, replay_cache=cache
        )
        with pytest.raises(StaleRequest):
            protocol.server_handle_login(
                trm, "hosp01", "goa", req, t2=t1 + 2, delta_t=5, replay_cache=cache
            )

    def test_auth_hash_count_is_twenty(self):
        _, _, trm, card = fixed_setup()
        counter = HashCounter()
        t1 = 1_700_000_050
        with counter.phase("auth"):
            req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
            resp, skey = protocol.server_handle_login(
                trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5
            )
            ukey = protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5)
        assert ukey.sk == skey.sk
        assert counter.count("auth") == 20

    def test_distinct_sessions_distinct_keys(self):
        _, _, trm, card = fixed_setup()
        keys = set()
        for t1 in (1_700_000_050, 1_700_000_060, 1_700_000_070):
            req, ctx = protocol.user_login_begin("alice", "hunter2", card, "hosp01", t1)
            resp, _ = protocol.server_handle_login(
                trm, "hosp01", "goa", req, t2=t1 + 1, delta_t=5
            )
            keys.add(protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5).sk)
        assert len(keys) == 3


def card_with_servers(server_ids, seed=1):
    """An RC with `server_ids` registered in the given order, each server's
    memory synced, and one card for alice issued after them."""
    rc = RcState(k_rc=K_RC)
    rng = random.Random(seed)
    trms = {}
    for sid in server_ids:
        _, reg = protocol.server_register_begin(sid, "pw", "loc", rng)
        trms[sid] = protocol.rc_register_server(rc, reg, srt_j=SRT)
    pending, ureq = protocol.user_register_begin("alice", "hunter2", rng)
    prov = protocol.rc_register_user(rc, ureq, rng)
    card = protocol.user_finalize_card("alice", "hunter2", pending.r1, pending.r2, prov)
    delta = protocol.UserListDelta(entries=tuple(rc.users.items()))
    for trm in trms.values():
        protocol.apply_user_list_delta(trm, delta)
    return rc, trms, card


def registration_order_list(rc):
    """The server list as cards issued before lists were sorted hold it."""
    return b"".join(
        ServerListEntry(id_j, rec.ssk_j, rec.loc_j).pack() for id_j, rec in rc.servers.items()
    )


def card_list(card):
    opened = protocol._open_card(encode_field("alice"), encode_field("hunter2"), card)
    return parse_server_list(
        protocol._unmask_server_list(
            encode_field("alice"), encode_field("hunter2"), opened.r1, opened.r2, card.z
        )
    )


def agree(trms, card, server_id, t1=1_700_000_050):
    req, ctx = protocol.user_login_begin("alice", "hunter2", card, server_id, t1)
    resp, skey = protocol.server_handle_login(
        trms[server_id], server_id, "loc", req, t2=t1 + 1, delta_t=5
    )
    return protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5).sk == skey.sk


class TestServerListSearch:
    SCRAMBLED = ["s5", "s1", "s9", "s3", "s7", "s0"]

    def test_list_written_sorted(self):
        rc, _, card = card_with_servers(self.SCRAMBLED)
        ids = [e.id_j for e in parse_server_list(protocol.server_list_bytes(rc))]
        assert ids == sorted(encode_field(s) for s in self.SCRAMBLED)
        assert [e.id_j for e in card_list(card)] == ids

    def test_unsorted_card_logs_in_everywhere(self):
        rc, trms, card = card_with_servers(self.SCRAMBLED)
        legacy = protocol.user_apply_server_list(
            "alice", "hunter2", card, registration_order_list(rc)
        )
        assert [e.id_j for e in card_list(legacy)] == [encode_field(s) for s in self.SCRAMBLED]
        for sid in self.SCRAMBLED:
            assert agree(trms, legacy, sid)

    def test_update_rewrites_unsorted_card_sorted(self):
        rc, trms, card = card_with_servers(self.SCRAMBLED)
        legacy = protocol.user_apply_server_list(
            "alice", "hunter2", card, registration_order_list(rc)
        )
        t4 = 1_700_000_100
        req, _ = protocol.user_update_begin("alice", "hunter2", legacy, t4=t4)
        list_bytes = protocol.rc_handle_update(rc, req, t5=t4 + 1, delta_t=5)
        updated = protocol.user_apply_server_list("alice", "hunter2", legacy, list_bytes)
        assert updated.z == card.z

    @pytest.mark.parametrize("sorted_list", [True, False])
    def test_absent_id_raises_unknown_server(self, sorted_list):
        rc, _, card = card_with_servers(self.SCRAMBLED)
        if not sorted_list:
            card = protocol.user_apply_server_list(
                "alice", "hunter2", card, registration_order_list(rc)
            )
        for absent in ("s", "s2", "s4x", "s99", "a", "z"):
            with pytest.raises(UnknownServer):
                protocol.user_login_begin("alice", "hunter2", card, absent, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 48, 63])
    def test_keystream_blocks_logarithmic(self, n):
        # At most floor(log2 n) + 1 probes of two blocks each, plus the two
        # blocks of the found entry's second half.  A card of one server
        # still needs 4: its single entry spans two blocks under two keys.
        ids = [f"srv{j:02d}" for j in range(n)]
        _, _, card = card_with_servers(ids)
        bound = 2 * n.bit_length() + 2
        for sid in ids:
            counter = HashCounter()
            with counter.phase("login"):
                protocol.user_login_begin("alice", "hunter2", card, sid, 0)
            assert counter.keystream_count("login") <= bound
            assert counter.count("login") == 12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abz09_", min_size=1, max_size=16),
            min_size=1, max_size=24, unique=True,
        ),
        st.text(alphabet="abz09_", min_size=1, max_size=16),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_search_matches_linear_scan(self, ids, extra, rnd, keep_sorted):
        rc, _, card = card_with_servers(ids)
        if not keep_sorted:
            entries = parse_server_list(protocol.server_list_bytes(rc))
            rnd.shuffle(entries)
            card = protocol.user_apply_server_list(
                "alice", "hunter2", card, b"".join(e.pack() for e in entries)
            )
        idb, pwb = encode_field("alice"), encode_field("hunter2")
        opened = protocol._open_card(idb, pwb, card)
        scanned = card_list(card)
        for target in [*ids, extra]:
            tb = encode_field(target)
            found = protocol._find_server_entry(idb, pwb, opened.r1, opened.r2, card.z, tb)
            assert found == next((e for e in scanned if e.id_j == tb), None)


class TestUpdatePhase:
    def test_tau_oracle(self):
        _, _, _, card = fixed_setup()
        req, _ = protocol.user_update_begin("alice", "hunter2", card, t4=1_700_000_100)
        assert req.tau.hex() == ORACLE_TAU

    def test_wrong_password(self):
        _, _, _, card = fixed_setup()
        with pytest.raises(BadCredentials):
            protocol.user_update_begin("alice", "nope", card, t4=0)

    def test_round_trip_and_new_server(self):
        rc, _, trm, card = fixed_setup()
        rng = random.Random(3)
        _, reg = protocol.server_register_begin("hosp02", "pw2", "blr", rng)
        trm2 = protocol.rc_register_server(rc, reg, srt_j=SRT + 10)
        protocol.apply_user_list_delta(
            trm2, protocol.UserListDelta(entries=tuple(rc.users.items()))
        )
        t4 = 1_700_000_100
        req, _ = protocol.user_update_begin("alice", "hunter2", card, t4=t4)
        list_bytes = protocol.rc_handle_update(rc, req, t5=t4 + 1, delta_t=5)
        assert len(list_bytes) == 128
        new_card = protocol.user_apply_server_list("alice", "hunter2", card, list_bytes)
        t1 = 1_700_000_200
        lreq, ctx = protocol.user_login_begin("alice", "hunter2", new_card, "hosp02", t1)
        resp, skey = protocol.server_handle_login(
            trm2, "hosp02", "blr", lreq, t2=t1 + 1, delta_t=5
        )
        ukey = protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5)
        assert ukey.sk == skey.sk

    def test_apply_is_deterministic(self):
        rc, _, _, card = fixed_setup()
        lst = protocol.server_list_bytes(rc)
        c1 = protocol.user_apply_server_list("alice", "hunter2", card, lst)
        c2 = protocol.user_apply_server_list("alice", "hunter2", card, lst)
        assert c1.z == c2.z

    def test_malformed_list(self):
        _, _, _, card = fixed_setup()
        with pytest.raises(MalformedList):
            protocol.user_apply_server_list("alice", "hunter2", card, b"\x00" * 63)

    def test_stale_and_unknown(self):
        rc, _, _, card = fixed_setup()
        t4 = 1_700_000_100
        req, _ = protocol.user_update_begin("alice", "hunter2", card, t4=t4)
        with pytest.raises(StaleRequest):
            protocol.rc_handle_update(rc, req, t5=t4 + 100, delta_t=5)
        forged = protocol.UpdateRequest(uid=b"\xab" * 32, tau=req.tau, t4=t4)
        with pytest.raises(UnknownUser):
            protocol.rc_handle_update(rc, forged, t5=t4 + 1, delta_t=5)
        bad = protocol.UpdateRequest(uid=req.uid, tau=b"\xcd" * 32, t4=t4)
        with pytest.raises(AuthFail):
            protocol.rc_handle_update(rc, bad, t5=t4 + 1, delta_t=5)


class TestDbUpdatePhase:
    def test_omega_oracle(self):
        _, secrets, trm, _ = fixed_setup()
        req = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=1_700_000_200)
        assert req.omega.hex() == ORACLE_OMEGA

    def test_omega_determinism(self):
        _, secrets, trm, _ = fixed_setup()
        a = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=100)
        b = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=100)
        c = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=101)
        assert a.omega == b.omega
        assert a.omega != c.omega

    def test_delta_counts(self):
        rc, secrets, trm, _ = fixed_setup()
        rng = random.Random(5)
        for i in range(3):
            _, req = protocol.user_register_begin(f"u{i}", "pw", rng)
            protocol.rc_register_user(rc, req, rng)
        t6 = 1_700_000_200
        dreq = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=t6)
        delta = protocol.rc_handle_db_update(rc, dreq, t7=t6 + 1, delta_t=5)
        # alice synced manually in fixed_setup, so the RC-side marker still
        # counts her plus the three new registrations
        assert len(delta.entries) == 4
        protocol.apply_user_list_delta(trm, delta)
        dreq2 = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=t6 + 2)
        delta2 = protocol.rc_handle_db_update(rc, dreq2, t7=t6 + 3, delta_t=5)
        assert delta2.entries == ()

    def test_forged_omega(self):
        rc, secrets, trm, _ = fixed_setup()
        req = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=100)
        forged = protocol.DbUpdateRequest(id_j=req.id_j, omega=b"\x00" * 32, t6=100)
        with pytest.raises(AuthFail):
            protocol.rc_handle_db_update(rc, forged, t7=101, delta_t=5)

    def test_stale_and_unknown_server(self):
        rc, secrets, trm, _ = fixed_setup()
        req = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=100)
        with pytest.raises(StaleRequest):
            protocol.rc_handle_db_update(rc, req, t7=200, delta_t=5)
        other = protocol.DbUpdateRequest(id_j=encode_field("ghost"), omega=req.omega, t6=100)
        with pytest.raises(UnknownServer):
            protocol.rc_handle_db_update(rc, other, t7=101, delta_t=5)


class TestWireWidths:
    def test_validity_16_bytes(self):
        vt = Validity16(expiry=1_700_000_900, duration_s=900)
        raw = vt.pack()
        assert len(raw) == 16
        assert Validity16.unpack(raw) == vt


class TestPropertyKeyAgreement:
    def test_randomized_sessions(self):
        rng = random.Random(42)
        for trial in range(200):
            rc = RcState(k_rc=rng.randbytes(32))
            n = rng.randint(1, 4)
            trms = {}
            for j in range(n):
                _, reg = protocol.server_register_begin(f"s{j}", f"p{j}", f"l{j}", rng)
                trms[f"s{j}"] = protocol.rc_register_server(rc, reg, srt_j=1000 + j)
            pending, ureq = protocol.user_register_begin(
                f"u{trial}", f"pw{trial}", rng
            )
            prov = protocol.rc_register_user(rc, ureq, rng)
            card = protocol.user_finalize_card(
                f"u{trial}", f"pw{trial}", pending.r1, pending.r2, prov
            )
            target = f"s{rng.randrange(n)}"
            protocol.apply_user_list_delta(
                trms[target], protocol.UserListDelta(entries=tuple(rc.users.items()))
            )
            t1 = 2_000_000 + trial
            req, ctx = protocol.user_login_begin(
                f"u{trial}", f"pw{trial}", card, target, t1
            )
            resp, skey = protocol.server_handle_login(
                trms[target], target, f"l{target[1:]}", req, t2=t1 + 1, delta_t=5
            )
            ukey = protocol.user_handle_response(ctx, resp, t3=t1 + 2, delta_t=5)
            assert ukey.sk == skey.sk
