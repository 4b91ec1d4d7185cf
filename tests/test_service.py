import contextlib
import socket
import struct
import threading
import time

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


def login_frames(world, n):
    """``n`` framed login requests to srv00, cycling over its users and the
    freshness window so that neighbouring replies differ."""
    users = list(world.users.values())
    frames = []
    for i in range(n):
        user = users[i % len(users)]
        req, _ = protocol.user_login_begin(
            user.user_id, user.password, user.card, "srv00", world.clock.now - (i // 2) % 5
        )
        frames.append(framed(wire.encode_frame(req)))
    return frames


def framed(raw):
    return struct.pack(">I", len(raw)) + raw


def expected_reply(srv, frame):
    """The reply frame the service owes the framed request, computed in-process."""
    return wire.encode_frame(srv.app.dispatch(frame[4:]))


def read_exactly(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, f"connection closed after {len(buf)} of {n} bytes"
        buf += chunk
    return buf


class TestFraming:
    def test_request_written_one_byte_at_a_time(self, world, login_server):
        (frame,) = login_frames(world, 1)
        sock, stream = connect(login_server)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(frame)):
                sock.sendall(frame[i : i + 1])
            assert wire.read_frame(stream) == expected_reply(login_server, frame)
        finally:
            sock.close()

    def test_two_requests_in_one_write_get_two_replies_in_order(self, world, login_server):
        frames = login_frames(world, 2)
        sock, stream = connect(login_server)
        try:
            sock.sendall(frames[0] + frames[1])
            for frame in frames:
                assert wire.read_frame(stream) == expected_reply(login_server, frame)
        finally:
            sock.close()

    def test_eof_mid_frame_gets_error_frame(self, login_server):
        sock, stream = connect(login_server)
        try:
            sock.sendall(struct.pack(">I", 68) + b"\x01" * 10)
            sock.shutdown(socket.SHUT_WR)
            assert wire.decode_frame(wire.read_frame(stream))[1] == "CodecError: stream ended mid-frame"
            assert wire.read_frame(stream) is None
        finally:
            sock.close()

    def test_64_connections_interleaved_each_get_their_own_reply(self, world, login_server):
        frames = login_frames(world, 64)
        conns = [connect(login_server) for _ in frames]
        try:
            for (sock, _), frame in zip(conns, frames):
                sock.sendall(frame[:30])
            for (sock, _), frame in zip(reversed(conns), reversed(frames)):
                sock.sendall(frame[30:])
            for (_, stream), frame in zip(conns, frames):
                assert wire.read_frame(stream) == expected_reply(login_server, frame)
        finally:
            for sock, _ in conns:
                sock.close()

    def test_client_reset_leaves_the_others_served(self, world, login_server):
        frames = login_frames(world, 2)
        other, other_stream = connect(login_server)
        rude, _ = connect(login_server)
        try:
            rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            rude.sendall(frames[0][:10])
            rude.close()
            other.sendall(frames[1])
            assert wire.read_frame(other_stream) == expected_reply(login_server, frames[1])
        finally:
            other.close()

    def test_no_thread_per_connection(self, world, login_server):
        (frame,) = login_frames(world, 1)
        before = threading.active_count()
        for _ in range(50):
            sock, stream = connect(login_server)
            sock.sendall(frame)
            assert wire.read_frame(stream) is not None
            stream.close()
            sock.close()
        deadline = time.monotonic() + 2
        while threading.active_count() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before


@contextlib.contextmanager
def served(app):
    srv = service.start_server(app)
    thread = service.serve_forever_in_thread(srv)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def login_app(world):
    sim = world.servers["srv00"]
    return service.ServerApp(
        sim.trm, sim.server_id, sim.location, delta_t=5, vt_duration=world.vt_duration_s,
        now_fn=lambda: world.clock.now + world.latency_s,
    )


class TestBounds:
    def test_connection_over_the_cap_reads_eof(self, world, monkeypatch):
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
        (frame,) = login_frames(world, 1)
        with served(login_app(world)) as srv:
            kept = [connect(srv) for _ in range(2)]
            try:
                for sock, stream in kept:  # both are accepted and served
                    sock.sendall(frame)
                    assert wire.read_frame(stream) is not None
                extra, _ = connect(srv)
                try:
                    assert extra.recv(1) == b""
                finally:
                    extra.close()
            finally:
                for sock, _ in kept:
                    sock.close()

    def test_idle_client_reads_eof(self, world, monkeypatch):
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
        with served(login_app(world)) as srv:
            sock, _ = connect(srv)
            try:
                t0 = time.monotonic()
                assert sock.recv(1) == b""
                assert 0.15 <= time.monotonic() - t0 < 2
            finally:
                sock.close()

    def test_pipelining_client_does_not_stall_another(self, world, monkeypatch):
        monkeypatch.setattr(service, "MAX_UNSENT_BYTES", 4096)
        frames = login_frames(world, 2000)
        with served(login_app(world)) as srv:
            greedy = socket.socket()
            greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            greedy.settimeout(10)
            greedy.connect(srv.server_address)
            writer = threading.Thread(target=greedy.sendall, args=(b"".join(frames),), daemon=True)
            writer.start()
            try:
                time.sleep(0.2)
                other, other_stream = connect(srv)
                try:
                    other.sendall(frames[1])
                    assert wire.read_frame(other_stream) == expected_reply(srv, frames[1])
                finally:
                    other.close()
                want = b"".join(framed(expected_reply(srv, frame)) for frame in frames)
                assert read_exactly(greedy, len(want)) == want
                writer.join(timeout=10)
                assert not writer.is_alive()
            finally:
                greedy.close()


class TestShutdown:
    def test_shutdown_is_prompt_and_closes_clients(self, world):
        (frame,) = login_frames(world, 1)
        srv = service.start_server(login_app(world))
        thread = service.serve_forever_in_thread(srv)
        sock, stream = connect(srv)
        try:
            sock.sendall(frame)
            assert wire.read_frame(stream) is not None
            t0 = time.monotonic()
            srv.shutdown()
            assert time.monotonic() - t0 < 0.2
            srv.server_close()
            assert sock.recv(1) == b""
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            sock.close()
