"""Login workloads: clients in this process, `maskap serve --role server` processes.

Both workloads build their deployment with ``netsim.build_world``, store the
served servers' tamper-resistant memories with ``registry.store_trm``, and
log in over loopback TCP with ``protocol`` on the user side and ``wire``
framing, the way a user device or a gateway would.
"""
from __future__ import annotations

import itertools
import os
import random
import selectors
import socket
import struct
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import checks
from harness import DELTA_T, VT_DURATION, WINDOWS, Outcome, ms, p50, p99, windowed
from maskap import cli, netsim, protocol, registry, service, wire
from maskap.core import HashCounter, keystream_mask
from maskap.protocol import ProtocolError

READY_TIMEOUT_S = 60
# Traced runs replay the service start-up's file and parse calls this often.
STARTUP_REPS = 5


class ServiceProcess:
    """One `maskap serve --role server` process on an ephemeral loopback port."""

    def __init__(self, root: str, trm_path: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [
            sys.executable, "-u", "-m", "maskap.cli", "serve", "--role", "server",
            "--trm", trm_path, "--bind", "127.0.0.1:0",
            "--delta-t", str(DELTA_T), "--vt", str(VT_DURATION),
        ]
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.log,
        )
        self.addr: tuple[str, int] | None = None

    def wait_ready(self) -> tuple[str, int]:
        """Read the 'listening on host:port' line the service prints first."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError(f"service not ready after {READY_TIMEOUT_S}s")
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    raise RuntimeError(f"service exited with {self.proc.wait()}; see {self.log.name}")
                line += chunk
        host, _, port = line.split()[-1].decode().rpartition(":")
        self.addr = (host, int(port))
        return self.addr

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Conn:
    """A client socket with the stream interface `wire` reads and writes.

    Counts every byte written and read, so wire cost is measured on the
    socket rather than taken from the encodings.
    """

    def __init__(self, addr: tuple[str, int]) -> None:
        self.sock = socket.create_connection(addr)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Close with a reset: many short connections from one client address
        # would otherwise fill its port range with TIME_WAIT sockets.
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.reader = self.sock.makefile("rb")
        self.moved = 0

    def write(self, data: bytes) -> None:
        self.sock.sendall(data)
        self.moved += len(data)

    def flush(self) -> None:
        pass

    def read(self, n: int) -> bytes:
        chunk = self.reader.read(n)
        self.moved += len(chunk)
        return chunk

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class LoginRefused(Exception):
    pass


@dataclass
class User:
    user_id: str
    password: str
    card: protocol.SmartCard
    uid: bytes


@dataclass
class Target:
    """A served server: its RC record, its memory, its service process, and an
    in-process ServerApp over the same memory for the traced replays."""

    server_id: str
    location: str
    field: bytes
    ssk: bytes
    loc_field: bytes
    trm: protocol.TamperResistantMemory
    trm_path: str
    proc: ServiceProcess
    app: service.ServerApp


class LoginWorkload:
    """Set-up and the per-login steps both login workloads share."""

    n_servers: int
    n_users: int
    served: tuple[int, ...]  # positions in the card's server list that get a service
    primary = "login"

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.targets: list[Target] = []
        self.users: list[User] = []
        self.build_world_s = 0.0

    def setup(self) -> None:
        t0 = time.perf_counter()
        world = netsim.build_world(seed=self.seed, n_servers=self.n_servers, n_users=self.n_users)
        self.build_world_s = time.perf_counter() - t0
        self.world = world
        server_ids = list(world.servers)
        try:
            for pos in self.served:
                sim = world.servers[server_ids[pos]]
                trm_path = os.path.join(self.work, f"{sim.server_id}.trm.json")
                registry.store_trm(sim.trm, trm_path, sim.server_id, sim.location)
                fld = checks.field(sim.server_id)
                rec = world.rc.servers[fld]
                app = service.ServerApp(
                    sim.trm, sim.server_id, sim.location, delta_t=DELTA_T, vt_duration=VT_DURATION
                )
                proc = ServiceProcess(self.root, trm_path, trm_path + ".log")
                self.targets.append(
                    Target(
                        sim.server_id, sim.location, fld, rec.ssk_j, rec.loc_j, sim.trm, trm_path,
                        proc, app,
                    )
                )
            for t in self.targets:
                t.proc.wait_ready()
        except BaseException:
            self.teardown()
            raise
        self.users = [
            User(u.user_id, u.password, u.card, checks.uid_from_card(u.user_id, u.password, u.card.w))
            for u in world.users.values()
        ]

    def teardown(self) -> None:
        for t in self.targets:
            t.proc.stop()
        self.targets = []

    def login(
        self, conn: Conn, user: User, target: Target, tracer, out: Outcome, rid: int
    ) -> tuple[float, float] | None:
        """One full login, checked; its start and end times, or None if it failed."""
        counter = HashCounter() if tracer.enabled else None
        counting = counter.phase("login") if counter else nullcontext()
        moved0 = conn.moved
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.login", rid):
                t1 = int(time.time())
                with tracer.span("protocol.user_login_begin"), counting:
                    req, ctx = protocol.user_login_begin(
                        user.user_id, user.password, user.card, target.server_id, t1
                    )
                with tracer.span("service.rtt"):
                    wire.write_frame(conn, req)
                    raw = wire.read_frame(conn)
                if raw is None:
                    raise LoginRefused("connection closed")
                with tracer.span("wire.decode_frame"):
                    msg_type, resp = wire.decode_frame(raw)
                if msg_type != wire.MSG_LOGIN_RESPONSE:
                    raise LoginRefused(str(resp))
                counting = counter.phase("login") if counter else nullcontext()
                with tracer.span("protocol.user_handle_response"), counting:
                    key = protocol.user_handle_response(
                        ctx, resp, t3=int(time.time()), delta_t=DELTA_T
                    )
        except (ProtocolError, wire.CodecError, LoginRefused, OSError) as exc:
            out.failed += 1
            out.expect(f"login failed: {type(exc).__name__}: {exc}")
            return None
        t_end = time.perf_counter()
        out.expect(checks.check_wire_bytes(conn.moved - moved0))
        out.expect(
            checks.check_session_key(
                key.sk, user.uid, self.world.rc.users.get(user.uid, b""), target.field,
                target.loc_field, key.vt.expiry, key.vt.duration_s, t1, int(time.time()),
            )
        )
        if counter is not None:
            self.replay(req, user, target, counter, tracer, out, rid)
            out.samples["hashes"].append(counter.count("login"))
            out.samples["keystream_blocks"].append(counter.keystream_count("login"))
        return t0, t_end

    def replay(self, req, user: User, target: Target, counter, tracer, out: Outcome, rid: int) -> None:
        """Traced runs only: time in-process what the login did out of reach.

        The request frame is encoded again and handed to ServerApp.dispatch
        and to protocol.server_handle_login, as the service process would;
        the card's server list is masked twice, as user_login_begin does.
        """
        with tracer.span("bench.replay", rid):
            with tracer.span("wire.encode_frame"):
                raw = wire.encode_frame(req)
            try:
                with tracer.span("service.dispatch"):
                    target.app.dispatch(raw)
                with tracer.span("protocol.server_handle_login"), counter.phase("login"):
                    protocol.server_handle_login(
                        target.trm, target.server_id, target.location, req,
                        t2=int(time.time()), delta_t=DELTA_T, vt_duration=VT_DURATION,
                    )
            except ProtocolError as exc:
                out.expect(f"replayed request refused: {exc.kind}")
            with tracer.span("core.keystream_mask"):
                keystream_mask(user.uid, user.card.z)
                keystream_mask(user.uid, user.card.z)

    def replay_startup(self, tracer) -> None:
        """Traced runs only: time in-process what set-up and service start-up do.

        ``registry`` and ``cli`` are on a login workload's path only there:
        set-up stores each served memory, and each service parses its
        command line and loads that memory.  They run STARTUP_REPS times.
        """
        scratch = os.path.join(self.work, "replay.trm.json")
        for _ in range(STARTUP_REPS):
            for t in self.targets:
                with tracer.span("bench.startup"):
                    with tracer.span("registry.store_trm"):
                        registry.store_trm(t.trm, scratch, t.server_id, t.location)
                    with tracer.span("cli.parse"):
                        cli.build_parser().parse_args(
                            ["serve", "--role", "server", "--trm", t.trm_path,
                             "--bind", "127.0.0.1:0", "--delta-t", str(DELTA_T),
                             "--vt", str(VT_DURATION)]
                        )
                    with tracer.span("registry.load_trm"):
                        registry.load_trm_with_meta(t.trm_path)

    def e2e_common(self, out: Outcome, windows: list[list[float]]) -> None:
        out.metrics["op_p50_ms"] = (ms(p50([p50(w) for w in windows])), "ms")
        out.metrics["op_p99_ms"] = (ms(p50([p99(w) for w in windows])), "ms")
        cards = {u.card.storage_bytes for u in self.users}
        for n in cards:
            out.expect(checks.check_card_bytes(n, self.n_servers))
        out.metrics["card_bytes"] = (float(max(cards)), "B")
        out.metrics["state_file_bytes"] = (
            float(sum(os.path.getsize(t.trm_path) for t in self.targets)), "B"
        )
        out.metrics["peak_rss_mb"] = (max(t.proc.peak_rss_mb() for t in self.targets), "MB")
        out.metrics["login_wire_bytes"] = (float(checks.LOGIN_WIRE_BYTES), "B")

    def layer_metrics(self, tracer, out: Outcome) -> dict[str, tuple[float, str]]:
        rtt = tracer.median_us("service.rtt")
        dispatch = tracer.median_us("service.dispatch")
        return {
            "core.keystream_blocks_per_login": (p50(out.samples["keystream_blocks"]), "count"),
            "core.keystream_mask_us": (tracer.median_us("core.keystream_mask"), "us"),
            "protocol.hashes_per_login": (p50(out.samples["hashes"]), "count"),
            "protocol.login_begin_us": (tracer.median_us("protocol.user_login_begin"), "us"),
            "protocol.handle_response_us": (
                tracer.median_us("protocol.user_handle_response"), "us"
            ),
            "protocol.server_handle_us": (tracer.median_us("protocol.server_handle_login"), "us"),
            "wire.encode_us": (tracer.median_us("wire.encode_frame"), "us"),
            "wire.decode_us": (tracer.median_us("wire.decode_frame"), "us"),
            "service.rtt_us": (rtt, "us"),
            "service.dispatch_us": (dispatch, "us"),
            "service.transport_us": (rtt - dispatch, "us"),
            "registry.load_trm_ms": (tracer.median_us("registry.load_trm") / 1e3, "ms"),
            "registry.store_trm_ms": (tracer.median_us("registry.store_trm") / 1e3, "ms"),
            "cli.parse_ms": (tracer.median_us("cli.parse") / 1e3, "ms"),
            "netsim.build_world_s": (self.build_world_s, "s"),
        }


class Persistent(LoginWorkload):
    """Closed loop on one persistent connection, like a hospital gateway.

    Users rotate over the pool in a seeded order.  Each round is ROUND
    requests, the last of them forged: a valid alpha for the next user in
    the rotation and a random beta, which the server must answer AuthFail.
    """

    n_servers = 2
    n_users = 64
    served = (0,)
    ROUND = 32

    def measure(self, seconds: float, tracer) -> Outcome:
        out = Outcome()
        rng = random.Random(self.seed)
        order = list(range(len(self.users)))
        rng.shuffle(order)
        rotation = itertools.cycle(order)
        rids = itertools.count(1)
        target = self.targets[0]
        if tracer.enabled:
            self.replay_startup(tracer)
        conn = Conn(target.proc.addr)
        try:
            start = time.perf_counter()
            deadline = start + seconds
            while True:
                for k in range(self.ROUND):
                    out.attempted += 1
                    user = self.users[next(rotation)]
                    if k == self.ROUND - 1:
                        self.forge(conn, user, target, rng, tracer, out, next(rids))
                        continue
                    times = self.login(conn, user, target, tracer, out, next(rids))
                    if times is not None:
                        out.samples["login"].append(times[1] - times[0])
                        out.samples["login_end"].append(times[1])
                if time.perf_counter() >= deadline:
                    break
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        windows = windowed(out.samples["login_end"], out.samples["login"], start, start + elapsed)
        rates = [len(w) / (elapsed / WINDOWS) for w in windows]
        out.metrics["ops_per_s"] = (p50(rates), "1/s")
        self.e2e_common(out, windows)
        return out

    def forge(self, conn: Conn, user: User, target: Target, rng, tracer, out: Outcome, rid: int):
        t1 = int(time.time())
        forged = protocol.LoginRequest(
            alpha=checks.alpha_for(user.uid, target.field, target.ssk, t1),
            beta=rng.randbytes(32),
            t1=t1,
        )
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.forged", rid), tracer.span("service.reject_rtt"):
                wire.write_frame(conn, forged)
                raw = wire.read_frame(conn)
        except (wire.CodecError, OSError) as exc:
            out.failed += 1
            out.expect(f"forged request failed: {type(exc).__name__}: {exc}")
            return
        out.samples["reject"].append(time.perf_counter() - t0)
        out.expect(checks.check_reject(raw or b""))

    def layer_metrics(self, tracer, out: Outcome) -> dict[str, tuple[float, str]]:
        metrics = super().layer_metrics(tracer, out)
        metrics["service.reject_rtt_us"] = (tracer.median_us("service.reject_rtt"), "us")
        return metrics


class Roaming(LoginWorkload):
    """Open loop: logins fall due at a fixed rate, each on a new connection.

    Every login is from a user drawn at random from the pool, whose card
    lists 48 servers, to one of the services at list positions 0, 24 and
    47.  Latency runs from when the login was due, so a stall also counts
    against the logins queued behind it.  Throughput is the rate at which
    logins complete: the offered rate while the program keeps up, less once
    a backlog grows.
    """

    n_servers = 48
    n_users = 512
    served = (0, 24, 47)
    RATE = 200  # offered logins per second

    def measure(self, seconds: float, tracer) -> Outcome:
        """Logins come from this one thread.  A second client thread, woken
        for its due login, would wait for this one's card unmasking to
        release the interpreter lock, up to a 5 ms switch interval, and that
        wait, not the program, would set the tail."""
        out = Outcome()
        rng = random.Random(self.seed)
        n = int(self.RATE * seconds)
        plan = [
            (self.users[rng.randrange(len(self.users))], self.targets[rng.randrange(len(self.targets))])
            for _ in range(n)
        ]
        if tracer.enabled:
            self.replay_startup(tracer)
        start = time.perf_counter() + 0.05
        for i, (user, target) in enumerate(plan):
            due = start + i / self.RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            out.samples["late"].append(time.perf_counter() - due)
            out.attempted += 1
            try:
                with tracer.span("service.connect", i):
                    conn = Conn(target.proc.addr)
            except OSError as exc:
                out.failed += 1
                out.expect(f"connect failed: {exc}")
                continue
            try:
                times = self.login(conn, user, target, tracer, out, i)
            finally:
                conn.close()
            if times is not None:
                # Latency from the due time, not from when the login began.
                out.samples["login"].append(times[1] - due)
                out.samples["due"].append(due)
                out.samples["login_end"].append(times[1])
        end = start + n / self.RATE
        done = out.samples["login_end"]
        out.metrics["ops_per_s"] = (len(done) / (max(done) - start), "1/s")
        self.e2e_common(out, windowed(out.samples["due"], out.samples["login"], start, end))
        return out

    def layer_metrics(self, tracer, out: Outcome) -> dict[str, tuple[float, str]]:
        metrics = super().layer_metrics(tracer, out)
        metrics["service.connect_us"] = (tracer.median_us("service.connect"), "us")
        metrics["generator.late_p99_ms"] = (ms(p99(out.samples["late"])), "ms")
        return metrics
