import contextlib
import socket
import struct

import pytest

from maskap import protocol, service, wire
from maskap.netsim import build_world


@pytest.fixture
def world():
    return build_world(seed=20, n_servers=2, n_users=2)


@pytest.fixture
def login_server(world):
    sim = world.servers["srv00"]
    app = service.ServerApp(
        trm=sim.trm,
        server_id=sim.server_id,
        server_loc=sim.location,
        delta_t=5,
        vt_duration=world.vt_duration_s,
        now_fn=lambda: world.clock.now + world.latency_s,
    )
    srv = service.start_server(app)
    service.serve_forever_in_thread(srv)
    yield srv
    srv.shutdown()
    srv.server_close()


def connect(srv):
    sock = socket.create_connection(srv.server_address, timeout=5)
    return sock, sock.makefile("rwb")


class TestServerRole:
    def test_login_exchange_agrees_with_simulator(self, world, login_server):
        user = world.users["user00"]
        req, ctx = protocol.user_login_begin(
            user.user_id, user.password, user.card, "srv00", world.clock.now
        )
        sock, stream = connect(login_server)
        try:
            wire.write_frame(stream, req)
            msg_type, resp = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_LOGIN_RESPONSE
            key = protocol.user_handle_response(
                ctx, resp, t3=world.clock.now + 2 * world.latency_s, delta_t=5
            )
        finally:
            sock.close()
        # same credentials through the in-process simulator yield the same
        # key material shape; fingerprints must agree for the same inputs
        world2 = build_world(seed=20, n_servers=2, n_users=2)
        outcome = world2.run_honest_session("user00", "srv00", delta_t=5)
        assert outcome.accepted
        assert key.sk == outcome.session_keys[0].sk

    def test_garbage_frame_gets_error_reply(self, login_server):
        sock, stream = connect(login_server)
        try:
            stream.write(struct.pack(">I", 5) + b"\xffjunk")
            stream.flush()
            msg_type, reply = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_ERROR
            assert "unknown frame type" in reply
        finally:
            sock.close()

    def test_wrong_role_frame_rejected(self, world, login_server):
        sock, stream = connect(login_server)
        try:
            wire.write_frame(stream, protocol.UpdateRequest(b"\x00" * 32, b"\x00" * 32, 1))
            msg_type, reply = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_ERROR
            assert "does not accept" in reply
        finally:
            sock.close()

    def test_oversized_frame_error_connection_survives(self, world, login_server):
        user = world.users["user00"]
        req, _ = protocol.user_login_begin(
            user.user_id, user.password, user.card, "srv00", world.clock.now
        )
        sock, stream = connect(login_server)
        try:
            stream.write(struct.pack(">I", 5000) + b"\x00" * 5000)
            stream.flush()
            msg_type, reply = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_ERROR
            assert "exceeds" in reply
            # same connection still serves a valid request afterwards
            wire.write_frame(stream, req)
            msg_type, _resp = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_LOGIN_RESPONSE
        finally:
            sock.close()

    def test_stale_request_maps_to_error_frame(self, world, login_server):
        user = world.users["user00"]
        req, _ = protocol.user_login_begin(
            user.user_id, user.password, user.card, "srv00", world.clock.now - 100
        )
        sock, stream = connect(login_server)
        try:
            wire.write_frame(stream, req)
            msg_type, reply = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_ERROR
            assert reply == "StaleRequest"
        finally:
            sock.close()


class TestRcRole:
    def test_card_update_over_socket(self, world, tmp_path):
        rc_path = str(tmp_path / "rc.rcdb.json")
        app = service.RcApp(rc=world.rc, rc_path=rc_path, now_fn=lambda: world.clock.now)
        srv = service.start_server(app)
        service.serve_forever_in_thread(srv)
        try:
            user = world.users["user00"]
            req, _ctx = protocol.user_update_begin(
                user.user_id, user.password, user.card, t4=world.clock.now
            )
            sock, stream = connect(srv)
            try:
                wire.write_frame(stream, req)
                msg_type, payload = wire.decode_frame(wire.read_frame(stream))
                assert msg_type == wire.MSG_LIST_PAYLOAD
                new_card = protocol.user_apply_server_list(
                    user.user_id, user.password, user.card, payload
                )
                assert new_card.z == user.card.z  # no new servers since issuance
            finally:
                sock.close()
        finally:
            srv.shutdown()
            srv.server_close()

    def test_db_update_persists_rc(self, world, tmp_path):
        from maskap import registry

        rc_path = str(tmp_path / "rc.rcdb.json")
        app = service.RcApp(rc=world.rc, rc_path=rc_path, now_fn=lambda: world.clock.now)
        srv = service.start_server(app)
        service.serve_forever_in_thread(srv)
        try:
            world.register_user("user99", "pw99")
            sim = world.servers["srv01"]
            req = protocol.server_db_update_begin(sim.secrets, sim.trm.ssk_j, t6=world.clock.now)
            sock, stream = connect(srv)
            try:
                wire.write_frame(stream, req)
                msg_type, delta = wire.decode_frame(wire.read_frame(stream))
                assert msg_type == wire.MSG_USER_LIST_DELTA
                assert len(delta.entries) == 1
                protocol.apply_user_list_delta(sim.trm, delta)
            finally:
                sock.close()
            assert registry.load_rc(rc_path) == world.rc
            assert world.run_honest_session("user99", "srv01", delta_t=5).accepted
        finally:
            srv.shutdown()
            srv.server_close()

    def test_card_update_with_the_most_servers(self):
        world = build_world(seed=22, n_servers=1, n_users=1)
        for j in range(1, protocol.MAX_SERVERS):
            world.register_server(f"srv{j:02d}", f"spw{j:02d}", f"loc{j:02d}")
        app = service.RcApp(rc=world.rc, now_fn=lambda: world.clock.now)
        srv = service.start_server(app)
        service.serve_forever_in_thread(srv)
        try:
            user = world.users["user00"]
            req, _ctx = protocol.user_update_begin(
                user.user_id, user.password, user.card, t4=world.clock.now
            )
            sock, stream = connect(srv)
            try:
                wire.write_frame(stream, req)
                msg_type, payload = wire.decode_frame(wire.read_frame(stream))
                assert msg_type == wire.MSG_LIST_PAYLOAD
                assert len(payload) == protocol.MAX_SERVERS * protocol.SERVER_ENTRY_LEN
            finally:
                sock.close()
        finally:
            srv.shutdown()
            srv.server_close()
        user.card = protocol.user_apply_server_list(user.user_id, user.password, user.card, payload)
        assert world.run_honest_session("user00", "srv62", delta_t=5).accepted

    def test_sync_of_64_users_takes_two_pages_and_connection_survives(self):
        # 64 users would make a 4,097-byte delta frame, one byte too many.
        world = build_world(seed=21, n_servers=1, n_users=1)
        for i in range(64):
            world.register_user(f"late{i:02d}", f"pw{i:02d}")
        sim = world.servers["srv00"]
        late = dict(list(world.rc.users.items())[1:])
        with rc_service(world) as stream:
            pages = [db_update(stream, world, sim) for _ in range(2)]
            assert [len(p.entries) for p in pages] == [protocol.MAX_DELTA_ENTRIES, 1]
            assert dict(pages[0].entries + pages[1].entries) == late
            user = world.users["user00"]
            update, _ctx = protocol.user_update_begin(
                user.user_id, user.password, user.card, t4=world.clock.now
            )
            wire.write_frame(stream, update)
            msg_type, payload = wire.decode_frame(wire.read_frame(stream))
            assert msg_type == wire.MSG_LIST_PAYLOAD
            assert payload == protocol.server_list_bytes(world.rc)

    def test_sync_of_1000_users_loses_none(self):
        world = build_world(seed=23, n_servers=1, n_users=0)
        for i in range(1000):
            world.register_user(f"u{i:04d}", "pw")
        sim = world.servers["srv00"]
        with rc_service(world) as stream:
            pages = 0
            while True:
                delta = db_update(stream, world, sim)
                protocol.apply_user_list_delta(sim.trm, delta)
                pages += 1
                if len(delta.entries) < protocol.MAX_DELTA_ENTRIES:
                    break
        assert pages == 1000 // protocol.MAX_DELTA_ENTRIES + 1
        assert sim.trm.list_c == world.rc.users


@contextlib.contextmanager
def rc_service(world):
    """A stream to an RC-role service over ``world.rc``, on the world's clock."""
    srv = service.start_server(service.RcApp(rc=world.rc, now_fn=lambda: world.clock.now))
    service.serve_forever_in_thread(srv)
    try:
        sock, stream = connect(srv)
        try:
            yield stream
        finally:
            sock.close()
    finally:
        srv.shutdown()
        srv.server_close()


def db_update(stream, world, sim):
    """One database-update exchange for ``sim``: the delta page it gets back."""
    wire.write_frame(
        stream, protocol.server_db_update_begin(sim.secrets, sim.trm.ssk_j, t6=world.clock.now)
    )
    msg_type, delta = wire.decode_frame(wire.read_frame(stream))
    assert msg_type == wire.MSG_USER_LIST_DELTA
    return delta
