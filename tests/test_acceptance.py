"""End-to-end acceptance suite.

One test per shipped claim, numbered; `pytest tests/test_acceptance.py -v`
prints a pass/fail line per criterion, and `-s` adds the measured numbers.
"""
import hashlib
import random
import socket
import time

import pytest

from maskap import metrics, protocol, registry, service, wire
from maskap.attacks import run_all
from maskap.core import keystream_mask, sha256, xor
from maskap.netsim import World, build_world
from maskap.protocol import LoginRequest, LoginResponse, ProtocolError, StaleRequest


def report(line: str) -> None:
    print(f"\n{line}")


class TestCriterion01HonestKeyAgreement:
    def test_1000_randomized_sessions_under_5s(self):
        rng = random.Random(1)
        trials = 1000
        start = time.perf_counter()
        accepted = 0
        for i in range(trials):
            n = rng.randint(1, 5)
            world = World(seed=rng.randrange(2**32))
            for j in range(n):
                world.register_server(f"s{rng.randrange(10**6)}", f"p{j}", f"l{j}")
            user_id = f"u{rng.randrange(10**6)}"
            password = f"pw{rng.randrange(10**6)}"
            world.register_user(user_id, password)
            world.advance_and_sync(0)
            server_id = rng.choice(list(world.servers))
            outcome = world.run_honest_session(user_id, server_id, delta_t=5)
            if outcome.accepted and outcome.session_keys[0].sk == outcome.session_keys[1].sk:
                accepted += 1
        elapsed = time.perf_counter() - start
        report(f"criterion 1: {accepted}/{trials} sessions agreed in {elapsed:.2f}s")
        assert accepted == trials
        assert elapsed < 5.0


class TestCriterion02CommunicationCost:
    def test_wire_bytes_exact(self):
        world = build_world(seed=2)
        outcome = world.run_honest_session("user00", "srv00", delta_t=5)
        req = bytes.fromhex(outcome.transcript[0]["frame"])
        resp_event = next(e for e in outcome.transcript if e["direction"] == "server->user")
        resp = bytes.fromhex(resp_event["frame"])
        report(f"criterion 2: request {len(req)}B + response {len(resp)}B = {len(req) + len(resp)}B")
        assert len(req) == 68
        assert len(resp) == 68
        assert len(req) + len(resp) == 136


class TestCriterion03ExecutionCost:
    def test_twenty_protocol_hashes(self):
        world = build_world(seed=3)
        counter, _ = metrics.run_counted_auth(world, "user00", "srv00")
        rows = metrics.measure_costs(seed=3, runs=100)
        auth = next(r for r in rows if r.phase == "authentication")
        report(
            f"criterion 3: {counter.count('auth')} protocol hashes per authentication, "
            f"{counter.keystream_count('auth')} keystream-expansion hashes reported separately, "
            f"median wall time {auth.wall_time_ms:.4f}ms (reported, not asserted)"
        )
        assert counter.count("auth") == 20
        assert counter.keystream_count("auth") > 0


class TestCriterion04StorageCost:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_card_bytes(self, n):
        got = metrics.card_storage_bytes(n)
        report(
            f"criterion 4: card with {n} server(s) = {got}B (4*32 + 64*{n}); "
            f"published figure {metrics.PAPER_CARD_STORAGE_BYTES}B omits the per-server list width"
        )
        assert got == 4 * 32 + 64 * n


class TestCriterion05AttackSuite:
    def test_eleven_scenarios_zero_acceptances(self):
        start = time.perf_counter()
        reports = run_all(seed=0)
        elapsed = time.perf_counter() - start
        total_acceptances = sum(r.acceptances for r in reports.values())
        dos_hashes = reports["dos"].max_reject_hashes
        report(
            f"criterion 5: {len(reports)} scenarios, {total_acceptances} acceptances, "
            f"DoS pre-rejection cost {dos_hashes} hashes, suite ran in {elapsed:.2f}s"
        )
        assert len(reports) == 11
        assert total_acceptances == 0
        assert dos_hashes == 2
        assert elapsed < 60.0


class TestCriterion06TamperExhaustion:
    def test_every_wire_bit_flip_yields_no_agreed_session(self):
        world = build_world(seed=6)
        user = world.users["user00"]
        server = world.servers["srv00"]
        t1 = world.clock.now
        req, ctx = protocol.user_login_begin(user.user_id, user.password, user.card, "srv00", t1)
        resp, server_key = protocol.server_handle_login(
            server.trm, "srv00", server.location, req,
            t2=t1 + 1, delta_t=5, vt_duration=world.vt_duration_s,
        )
        raw_req, raw_resp = wire.encode_body(req), wire.encode_body(resp)

        rejected = 0
        for bit in range(8 * len(raw_req)):
            mutated = bytearray(raw_req)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                protocol.server_handle_login(
                    server.trm, "srv00", server.location, wire.decode_body(LoginRequest, bytes(mutated)),
                    t2=t1 + 1, delta_t=5, vt_duration=world.vt_duration_s,
                )
            except ProtocolError:
                rejected += 1

        for bit in range(8 * len(raw_resp)):
            mutated = bytearray(raw_resp)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                key = protocol.user_handle_response(
                    ctx, wire.decode_body(LoginResponse, bytes(mutated)), t3=t1 + 2, delta_t=5
                )
                # flips inside the masked location half pass the response
                # verifier but the derived keys cannot match
                if key.sk != server_key.sk:
                    rejected += 1
            except ProtocolError:
                rejected += 1

        total = 8 * (len(raw_req) + len(raw_resp))
        report(f"criterion 6: {rejected}/{total} single-bit flips left no agreed session")
        assert total == 8 * 136
        assert rejected == total


class TestCriterion07Replay:
    def test_1000_replay_trials(self):
        world = build_world(seed=7)
        server = world.servers["srv00"]
        user = world.users["user00"]
        delta_t = 5
        stale_rejected = rewrite_rejected = 0
        trials = 1000
        for _ in range(trials):
            t1 = world.clock.now
            req, _ = protocol.user_login_begin(user.user_id, user.password, user.card, "srv00", t1)
            world.clock.advance(delta_t + 1)
            try:
                protocol.server_handle_login(
                    server.trm, "srv00", server.location, req,
                    t2=world.clock.now, delta_t=delta_t, vt_duration=world.vt_duration_s,
                )
            except StaleRequest:
                stale_rejected += 1
            rewritten = LoginRequest(alpha=req.alpha, beta=req.beta, t1=world.clock.now)
            try:
                protocol.server_handle_login(
                    server.trm, "srv00", server.location, rewritten,
                    t2=world.clock.now, delta_t=delta_t, vt_duration=world.vt_duration_s,
                )
            except ProtocolError:
                rewrite_rejected += 1
        report(
            f"criterion 7: stale replays rejected {stale_rejected}/{trials}, "
            f"timestamp-rewritten replays rejected {rewrite_rejected}/{trials}"
        )
        assert stale_rejected == trials
        assert rewrite_rejected == trials


class TestCriterion08PrimitiveCorrectness:
    def test_fips_vectors_and_involutions(self):
        vectors = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ]
        for msg, digest in vectors:
            assert sha256(msg).hex() == digest
            assert hashlib.sha256(msg).hexdigest() == digest

        rng = random.Random(8)
        cases = 10_000
        for _ in range(cases):
            n = rng.randint(0, 96)
            a, b = rng.randbytes(n), rng.randbytes(n)
            assert xor(xor(a, b), b) == a
            key = rng.randbytes(32)
            payload = rng.randbytes(rng.randint(0, 96))
            assert keystream_mask(key, keystream_mask(key, payload)) == payload
        report(f"criterion 8: FIPS vectors matched; {cases} XOR and keystream involution cases")


class TestCriterion09UpdatePhases:
    def test_card_update_then_login_to_new_server(self):
        world = build_world(seed=9)
        world.register_server("srvnew", "pwnew", "locnew")
        world.update_user_card("user00")
        world.advance_and_sync(1)
        outcome = world.run_honest_session("user00", "srvnew", delta_t=5)
        report(f"criterion 9a: post-update login to new server accepted={outcome.accepted}")
        assert outcome.accepted

    def test_sync_delta_matches_registrations(self):
        world = build_world(seed=9)
        for i in range(3):
            world.register_user(f"extra{i}", f"pw{i}")
        sim = world.servers["srv00"]
        req = protocol.server_db_update_begin(sim.secrets, sim.trm.ssk_j, t6=world.clock.now)
        delta = protocol.rc_handle_db_update(world.rc, req, t7=world.clock.now, delta_t=5)
        report(f"criterion 9b: sync delta carries {len(delta.entries)} entries for 3 registrations")
        assert len(delta.entries) == 3

    def test_stale_t4_and_t6_rejected(self):
        world = build_world(seed=9)
        user = world.users["user00"]
        req, _ = protocol.user_update_begin(user.user_id, user.password, user.card, t4=world.clock.now)
        with pytest.raises(StaleRequest):
            protocol.rc_handle_update(world.rc, req, t5=world.clock.now + 100, delta_t=5)
        sim = world.servers["srv00"]
        dreq = protocol.server_db_update_begin(sim.secrets, sim.trm.ssk_j, t6=world.clock.now)
        with pytest.raises(StaleRequest):
            protocol.rc_handle_db_update(world.rc, dreq, t7=world.clock.now + 100, delta_t=5)
        report("criterion 9c: stale card-update and database-update requests rejected")


class TestCriterion10Persistence:
    def test_100_randomized_round_trips(self, tmp_path):
        rng = random.Random(10)
        for i in range(100):
            world = build_world(
                seed=rng.randrange(2**32),
                n_servers=rng.randint(1, 3),
                n_users=rng.randint(1, 2),
            )
            rc_path = str(tmp_path / f"{i}.rcdb.json")
            registry.store_rc(world.rc, rc_path)
            assert registry.load_rc(rc_path) == world.rc
            card = world.users["user00"].card
            card_path = str(tmp_path / f"{i}.card.json")
            registry.store_card(card, card_path)
            assert registry.load_card(card_path) == card
            trm = world.servers["srv00"].trm
            trm_path = str(tmp_path / f"{i}.trm.json")
            registry.store_trm(trm, trm_path, server_id="srv00", server_loc="loc00")
            assert registry.load_trm(trm_path) == trm
        report("criterion 10a: 100 randomized states round-tripped identically in all 3 formats")

    def test_service_and_simulator_agree_on_sk(self):
        world = build_world(seed=10)
        sim = world.servers["srv00"]
        app = service.ServerApp(
            trm=sim.trm, server_id=sim.server_id, server_loc=sim.location,
            delta_t=5, vt_duration=world.vt_duration_s,
            now_fn=lambda: world.clock.now + world.latency_s,
        )
        srv = service.start_server(app)
        service.serve_forever_in_thread(srv)
        try:
            user = world.users["user00"]
            req, ctx = protocol.user_login_begin(
                user.user_id, user.password, user.card, "srv00", world.clock.now
            )
            sock = socket.create_connection(srv.server_address, timeout=5)
            stream = sock.makefile("rwb")
            try:
                wire.write_frame(stream, req)
                _, resp = wire.decode_frame(wire.read_frame(stream))
                service_key = protocol.user_handle_response(
                    ctx, resp, t3=world.clock.now + 2, delta_t=5
                )
            finally:
                sock.close()
        finally:
            srv.shutdown()
            srv.server_close()
        sim_world = build_world(seed=10)
        outcome = sim_world.run_honest_session("user00", "srv00", delta_t=5)
        report("criterion 10b: socket service and simulator derive the same session key")
        assert outcome.accepted
        assert service_key.sk == outcome.session_keys[0].sk
