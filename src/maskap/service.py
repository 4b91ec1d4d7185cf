"""Loopback request/response service speaking the binary wire format.

Two roles: a server role answering login requests from its provisioned
memory, and an RC role answering card-update and database-update requests.
The RC endpoints model the trusted registration channel and are meant to be
bound to loopback.  State mutations are serialized per instance.

Each role's `handle(msg, now)` is the one place that answers a decoded
request: `dispatch` calls it for the socket, and the CLI, the simulator and
the attack suite call it directly.
"""
from __future__ import annotations

import socketserver
import threading
import time
from typing import Callable

from . import protocol, registry, wire
from .protocol import ProtocolError


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                raw = wire.read_frame(self.rfile)
            except wire.CodecError as exc:
                wire.write_frame(self.wfile, f"CodecError: {exc}")
                continue
            except (ConnectionError, OSError):
                return
            if raw is None:
                return
            try:
                reply = self.server.app.dispatch(raw)  # type: ignore[attr-defined]
            except wire.CodecError as exc:
                reply = f"CodecError: {exc}"
            except ProtocolError as exc:
                reply = exc.kind
            try:
                self._write(reply)
            except (ConnectionError, OSError):
                return

    def _write(self, reply: wire.Frame) -> None:
        try:
            wire.write_frame(self.wfile, reply)
        except wire.CodecError as exc:  # a reply too big for one frame
            wire.write_frame(self.wfile, f"CodecError: {exc}")


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


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
        self._lock = threading.Lock()

    def handle(
        self, req: protocol.LoginRequest, now: int
    ) -> tuple[protocol.LoginResponse, protocol.SessionKey]:
        with self._lock:
            return protocol.server_handle_login(
                self.trm, self.server_id, self.server_loc, req,
                t2=now, delta_t=self.delta_t, vt_duration=self.vt_duration,
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
        self._lock = threading.Lock()

    def handle(self, msg: wire.Frame, now: int) -> wire.Frame:
        with self._lock:
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


def start_server(app: ServerApp | RcApp, host: str = "127.0.0.1", port: int = 0) -> _ThreadingServer:
    """Bind and return a threading TCP server; caller drives serve_forever()."""
    srv = _ThreadingServer((host, port), _Handler)
    srv.app = app  # type: ignore[attr-defined]
    return srv


def serve_forever_in_thread(srv: _ThreadingServer) -> threading.Thread:
    """Serve on a daemon thread, polling for shutdown every 0.05 s so that
    `srv.shutdown()` returns promptly."""
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return thread
