"""Loopback request/response service speaking the binary wire format.

Two roles: a server role answering login requests from its provisioned
memory, and an RC role answering card-update and database-update requests.
The RC endpoints model the trusted registration channel and are meant to be
bound to loopback.

One thread serves every connection from one `selectors` loop, so the apps
hold no lock.  The loop is bounded: at most MAX_CONNECTIONS connections, each
closed after IDLE_TIMEOUT_S of silence, and a connection with more than
MAX_UNSENT_BYTES of replies unsent is not read until they drain.  The RC
role's fsynced store blocks the loop while it writes.

Each role's `handle(msg, now)` is the one place that answers a decoded
request: `dispatch` calls it for the socket, and the CLI, the simulator and
the attack suite call it directly.
"""
from __future__ import annotations

import selectors
import socket
import threading
import time
import traceback
from typing import Callable

from . import protocol, registry, wire
from .core import encode_field
from .protocol import ProtocolError

MAX_CONNECTIONS = 512  # a connection beyond it is accepted and closed at once
IDLE_TIMEOUT_S = 300.0  # a connection silent this long is closed
MAX_UNSENT_BYTES = 1 << 16  # replies queued for one connection before it is not read
_RECV_BYTES = 1 << 16


class ServerApp:
    """Answers login requests on behalf of one provisioned server."""

    def __init__(
        self,
        trm: protocol.TamperResistantMemory,
        server_id: str,
        server_loc: str,
        delta_t: int = 5,
        vt_duration: int = protocol.DEFAULT_VT_DURATION,
        now_fn: Callable[[], float] = time.time,
    ) -> None:
        self.trm = trm
        self.server_id = server_id
        self.server_loc = server_loc
        self.delta_t = delta_t
        self.vt_duration = vt_duration
        self.now_fn = now_fn
        self._idb = encode_field(server_id)
        self._locb = encode_field(server_loc)

    def handle(
        self, req: protocol.LoginRequest, now: int
    ) -> tuple[protocol.LoginResponse, protocol.SessionKey]:
        return protocol.handle_login_fields(
            self.trm, self._idb, self._locb, req, now, self.delta_t, self.vt_duration
        )

    def dispatch(self, raw: bytes) -> wire.Frame:
        msg_type, msg = wire.decode_frame(raw)
        if msg_type != wire.MSG_LOGIN_REQUEST:
            raise wire.CodecError(f"server role does not accept frame type 0x{msg_type:02x}")
        return self.handle(msg, int(self.now_fn()))[0]


class RcApp:
    """Answers card-update and database-update requests from the RC database."""

    def __init__(
        self,
        rc: protocol.RcState,
        rc_path: str | None = None,
        delta_t: int = 5,
        now_fn: Callable[[], float] = time.time,
    ) -> None:
        self.rc = rc
        self.rc_path = rc_path
        self.delta_t = delta_t
        self.now_fn = now_fn

    def handle(self, msg: wire.Frame, now: int) -> wire.Frame:
        if isinstance(msg, protocol.UpdateRequest):
            return protocol.rc_handle_update(self.rc, msg, t5=now, delta_t=self.delta_t)
        if isinstance(msg, protocol.DbUpdateRequest):
            delta = protocol.rc_handle_db_update(self.rc, msg, t7=now, delta_t=self.delta_t)
            if self.rc_path:
                registry.store_rc(self.rc, self.rc_path)
            return delta
        msg_type = wire.layout(type(msg)).msg_type
        raise wire.CodecError(f"rc role does not accept frame type 0x{msg_type:02x}")

    def dispatch(self, raw: bytes) -> wire.Frame:
        return self.handle(wire.decode_frame(raw)[1], int(self.now_fn()))

    def sync(
        self, secrets: protocol.ServerSecrets, trm: protocol.TamperResistantMemory, now: int
    ) -> int:
        """Pull the users registered since the server's last sync into `trm`,
        one page per exchange until a short one; the number of users synced."""
        synced = 0
        while True:
            req = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=now)
            delta = self.handle(req, now)
            protocol.apply_user_list_delta(trm, delta)
            synced += len(delta.entries)
            if len(delta.entries) < protocol.MAX_DELTA_ENTRIES:
                return synced


class _Connection:
    __slots__ = ("sock", "frames", "out", "held", "last", "events", "eof")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.frames = wire.Deframer()
        self.out = bytearray()  # replies not yet sent
        self.held = False  # whole frames received are left unanswered until replies drain
        self.last = now  # when the peer last sent anything
        self.events = selectors.EVENT_READ  # what the selector watches for
        self.eof = False  # the peer sent all it will


def _reply_bytes(app: ServerApp | RcApp, raw: bytes) -> bytes:
    """The framed answer to one request frame: its reply, or an error frame."""
    try:
        reply = app.dispatch(raw)
    except wire.CodecError as exc:
        reply = f"CodecError: {exc}"
    except ProtocolError as exc:
        reply = exc.kind
    try:
        return wire.frame_bytes(reply)
    except wire.CodecError as exc:  # a reply too big for one frame
        return wire.frame_bytes(f"CodecError: {exc}")


class Service:
    """One listening socket and its connections, served by one selector loop."""

    def __init__(self, app: ServerApp | RcApp, host: str, port: int) -> None:
        self.app = app
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._conns: dict[int, _Connection] = {}
        self._idle_check = float("inf")  # when the next connection may fall idle
        self._stopped = threading.Event()
        self._stopped.set()

    def serve_forever(self) -> None:
        """Serve until `shutdown()` is called."""
        self._stopped.clear()
        try:
            timeout = None
            while True:
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, mask in events:
                    conn = key.data
                    if conn is not None:
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn, now)
                        if mask & selectors.EVENT_WRITE:
                            self._send(conn)
                    elif key.fileobj is self._listener:
                        self._accept(now)
                    else:
                        self._wake_r.recv(64)
                        return
                if now >= self._idle_check:
                    self._close_idle(now)
                timeout = max(0.0, self._idle_check - now) if self._conns else None
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop `serve_forever` and wait until it has returned."""
        self._wake_w.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listener and every connection."""
        for conn in list(self._conns.values()):
            self._close(conn)
        self._selector.close()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # out of file descriptors, or the peer gave up
                traceback.print_exc()
                return
            if len(self._conns) >= MAX_CONNECTIONS:
                sock.close()
                continue
            sock.setblocking(False)
            conn = _Connection(sock, now)
            self._conns[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._idle_check = min(self._idle_check, now + IDLE_TIMEOUT_S)

    def _on_readable(self, conn: _Connection, now: float) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # reset by the peer
            self._close(conn)
            return
        if data:
            conn.last = now
            conn.frames.feed(data)
            self._answer(conn)
        else:
            conn.eof = True
            try:
                conn.frames.end()
            except wire.CodecError as exc:
                conn.out += wire.frame_bytes(f"CodecError: {exc}")
        self._send(conn)

    def _answer(self, conn: _Connection) -> None:
        """Answer the whole frames received, while the unsent replies fit."""
        frames, out = conn.frames, conn.out
        while len(out) < MAX_UNSENT_BYTES:
            try:
                raw = frames.cut()
            except wire.CodecError as exc:  # an oversized frame
                out += wire.frame_bytes(f"CodecError: {exc}")
                continue
            if raw is None:
                conn.held = False
                return
            try:
                out += _reply_bytes(self.app, raw)
            except Exception:  # a fault in the app: drop this connection only
                traceback.print_exc()
                self._close(conn)
                return
        conn.held = True

    def _send(self, conn: _Connection) -> None:
        """Send what is unsent, then watch for what the connection waits on."""
        out = conn.out
        if conn.sock.fileno() < 0:
            return
        if out and not self._send_some(conn):
            return
        while conn.held and len(out) < MAX_UNSENT_BYTES:
            self._answer(conn)
            if conn.sock.fileno() < 0 or (out and not self._send_some(conn)):
                return
        if conn.eof and not out:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if out else 0
        if len(out) < MAX_UNSENT_BYTES and not conn.eof:
            events |= selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _send_some(self, conn: _Connection) -> bool:
        """One send of the unsent replies; False if the connection is closed."""
        try:
            del conn.out[: conn.sock.send(conn.out)]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # reset by the peer, or closed after a fault in the app
            self._close(conn)
            return False
        return True

    def _close_idle(self, now: float) -> None:
        self._idle_check = float("inf")
        for conn in list(self._conns.values()):
            deadline = conn.last + IDLE_TIMEOUT_S
            if deadline <= now:
                self._close(conn)
            else:
                self._idle_check = min(self._idle_check, deadline)

    def _close(self, conn: _Connection) -> None:
        if self._conns.pop(conn.sock.fileno(), None) is conn:
            self._selector.unregister(conn.sock)
        conn.sock.close()


def start_server(app: ServerApp | RcApp, host: str = "127.0.0.1", port: int = 0) -> Service:
    """Bind and return a service; the caller drives serve_forever()."""
    return Service(app, host, port)


def serve_forever_in_thread(srv: Service) -> threading.Thread:
    """Serve on a daemon thread; `srv.shutdown()` stops it at once."""
    srv._stopped.clear()  # so that a shutdown() right away waits for the thread
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return thread
