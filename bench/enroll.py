"""The operator's file-backed path: `cli.main` over RC, TRM and card files.

Set-up builds a deployment of N0 users with ``netsim.build_world`` and
stores it with ``registry``, since enrolling N0 users one CLI call at a time
costs O(N0^2) and would outlast a run.  The measured loop then runs whole
epochs through ``cli.main`` in this process.  Each epoch starts from that
stored snapshot, so every epoch does the same work whatever the run length:

- ROUNDS rounds, each: ``register-user`` for B users, ``sync-server`` for
  every server, then ``update-card`` and ``authenticate`` for SAMPLE users;
- at round JOIN_ROUND a new server joins with ``register-server``.
"""
from __future__ import annotations

import io
import json
import os
import random
import resource
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Iterator

import checks
from harness import DELTA_T, VT_DURATION, Outcome, ms, p50, p99, windowed
from maskap import cli, netsim, protocol, registry, service, wire
from maskap.core import HashCounter, keystream_mask


@dataclass
class Server:
    server_id: str
    password: str
    location: str
    trm_path: str


class EnrollSync:
    primary = "register"
    N0 = 2000
    SERVERS = 3
    ROUNDS = 2
    JOIN_ROUND = 1
    B = 64
    SAMPLE = 2

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.rc_path = os.path.join(work, "center.rcdb.json")
        self.scratch = os.path.join(work, "replay")
        self.build_world_s = 0.0
        self.excluded = 0.0
        # Traced runs: (hashes, keystream blocks) of each replayed login.
        self.login_counts: list[tuple[int, int]] = []

    def setup(self) -> None:
        t0 = time.perf_counter()
        world = netsim.build_world(seed=self.seed, n_servers=self.SERVERS, n_users=self.N0)
        self.build_world_s = time.perf_counter() - t0
        registry.store_rc(world.rc, self.rc_path)
        self.servers = []
        for sim in world.servers.values():
            path = os.path.join(self.work, f"{sim.server_id}.trm.json")
            registry.store_trm(sim.trm, path, sim.server_id, sim.location)
            password = sim.secrets.pw_j.rstrip(b"\x00").decode()
            self.servers.append(Server(sim.server_id, password, sim.location, path))
        self.snapshot = {}
        for path in [self.rc_path] + [s.trm_path for s in self.servers]:
            with open(path, "rb") as fh:
                self.snapshot[path] = fh.read()

    def teardown(self) -> None:
        pass

    @contextmanager
    def unmeasured(self) -> Iterator[None]:
        """Benchmark-only work: left out of the wall time ops_per_s divides by."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0

    def cli(self, argv: list[str], kind: str, tracer, out: Outcome, rid: int) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with tracer.span(f"cli.{kind}", rid), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        t_end = time.perf_counter()
        out.samples[kind].append(t_end - t0)
        out.samples[kind + "_end"].append(t_end)
        out.attempted += 1
        if code != 0:
            out.failed += 1
            out.expect(f"{kind} exited {code}: {stderr.getvalue().strip()}")
        return code, stdout.getvalue()

    def measure(self, seconds: float, tracer) -> Outcome:
        out = Outcome()
        rng = random.Random(self.seed)
        start = time.perf_counter()
        deadline = start + seconds
        rates = []
        while True:
            self.excluded = 0.0
            t0 = time.perf_counter()
            self.epoch(len(rates), rng, tracer, out)
            rates.append(self.ROUNDS * self.B / (time.perf_counter() - t0 - self.excluded))
            if time.perf_counter() >= deadline:
                break
        out.metrics["ops_per_s"] = (p50(rates), "1/s")
        out.metrics["op_p50_ms"] = (ms(p50(out.samples["register"])), "ms")
        # The median of ten spans' p99, as on the login workloads, so that a
        # burst of noise from other tenants of the host moves one span.
        windows = windowed(
            out.samples["register_end"], out.samples["register"], start, time.perf_counter()
        )
        out.metrics["op_p99_ms"] = (ms(p50([p99(w) for w in windows])), "ms")
        out.metrics["sync_p50_ms"] = (ms(p50(out.samples["sync"])), "ms")
        out.metrics["file_auth_p50_ms"] = (ms(p50(out.samples["authenticate"])), "ms")
        # The card last refreshed by update-card lists every server, the joined one too.
        servers = len(self.servers) + 1
        card_bytes = registry.load_card(self.last_card).storage_bytes
        out.expect(checks.check_card_bytes(card_bytes, servers))
        out.metrics["card_bytes"] = (float(card_bytes), "B")
        state = [self.rc_path] + [s.trm_path for s in self.servers] + [self.joined.trm_path]
        out.metrics["state_file_bytes"] = (float(sum(os.path.getsize(p) for p in state)), "B")
        # cli.main runs in this process, so its peak RSS is the program's.
        out.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        return out

    def epoch(self, e: int, rng: random.Random, tracer, out: Outcome) -> None:
        with self.unmeasured():
            for path, data in self.snapshot.items():
                with open(path, "wb") as fh:
                    fh.write(data)
        servers = list(self.servers)
        kept: list[tuple[str, str, str]] = []
        rc_doc: dict = {}
        for r in range(self.ROUNDS):
            if r == self.JOIN_ROUND:
                self.joined = Server(
                    "srvjoin", f"{rng.getrandbits(32):08x}", "joinloc",
                    os.path.join(self.work, "srvjoin.trm.json"),
                )
                s = self.joined
                self.cli(
                    ["--seed", str(rng.getrandbits(31)), "register-server", "--rc", self.rc_path,
                     "--trm", s.trm_path, "--id", s.server_id, "--pw", s.password,
                     "--loc", s.location],
                    "register-server", tracer, out, out.attempted + 1,
                )
                servers.append(s)
                with self.unmeasured():
                    out.expect(
                        checks.check_trm_matches_rc(
                            checks.load_json(self.rc_path), checks.load_json(s.trm_path)
                        )
                    )

            for b in range(self.B):
                name = f"e{e}r{r}u{b}"
                password = f"{rng.getrandbits(32):08x}"
                card = os.path.join(self.work, f"kept{r}.card.json" if b == 0 else "card.json")
                argv = ["--json", "--seed", str(rng.getrandbits(31)), "register-user",
                        "--rc", self.rc_path, "--card", card, "--id", name, "--pw", password]
                rid = out.attempted + 1
                if tracer.enabled:
                    self.decompose_register(argv, name, password, tracer, rid)
                self.cli(argv, "register", tracer, out, rid)
                if tracer.enabled:
                    out.samples["enroll_bytes"].append(
                        os.path.getsize(self.rc_path) + os.path.getsize(card)
                    )
                if b == 0:
                    kept.append((name, password, card))

            for s in servers:
                argv = ["--json", "sync-server", "--rc", self.rc_path, "--trm", s.trm_path,
                        "--pw", s.password, "--delta-t", str(DELTA_T)]
                rid = out.attempted + 1
                if tracer.enabled:
                    self.decompose_sync(argv, s, tracer, rid)
                code, text = self.cli(argv, "sync", tracer, out, rid)
                with self.unmeasured():
                    rc_doc = checks.load_json(self.rc_path)
                    out.expect(checks.check_trm_matches_rc(rc_doc, checks.load_json(s.trm_path)))
                    if code == 0 and json.loads(text)["new_users"] != self.B:
                        out.expect(f"sync of {s.server_id} delivered {text.strip()}, not {self.B}")

            sample = [kept[r], kept[rng.randrange(r + 1)]][: self.SAMPLE]
            for k, (name, password, card) in enumerate(sample):
                s = servers[(r * self.SAMPLE + k) % len(servers)]
                argv = ["--json", "update-card", "--rc", self.rc_path, "--card", card,
                        "--id", name, "--pw", password, "--delta-t", str(DELTA_T)]
                rid = out.attempted + 1
                if tracer.enabled:
                    self.decompose_update(argv, name, password, card, tracer, rid)
                self.cli(argv, "update-card", tracer, out, rid)
                self.last_card = card
                argv = ["--json", "authenticate", "--card", card, "--trm", s.trm_path,
                        "--id", name, "--pw", password,
                        "--delta-t", str(DELTA_T), "--vt", str(VT_DURATION)]
                rid = out.attempted + 1
                if tracer.enabled:
                    self.decompose_authenticate(argv, name, password, card, s, tracer, rid)
                t_lo = int(time.time())
                code, text = self.cli(argv, "authenticate", tracer, out, rid)
                t_hi = int(time.time())
                with self.unmeasured():
                    if code == 0:
                        self.check_authenticate(text, name, password, card, s, rc_doc, t_lo, t_hi, out)

    def check_authenticate(
        self, text: str, name: str, password: str, card: str, s: Server, rc_doc: dict,
        t_lo: int, t_hi: int, out: Outcome,
    ) -> None:
        """The printed fingerprint against a key recomputed from the RC file."""
        doc = json.loads(text)
        uid = checks.uid_from_card(name, password, bytes.fromhex(checks.load_json(card)["w"]))
        c = checks.rc_user_map(rc_doc).get(uid.hex())
        sid = checks.field(s.server_id)
        loc = next((row["loc"] for row in rc_doc["servers"] if row["id"] == sid.hex()), None)
        if c is None or loc is None:
            out.expect(f"{name} at {s.server_id}: no RC record for the user or the server")
            return
        sk = checks.session_key(
            uid, bytes.fromhex(c), sid, bytes.fromhex(loc), doc["valid_until"], VT_DURATION
        )
        out.expect(checks.check_issued(doc["valid_until"], VT_DURATION, t_lo, t_hi))
        out.expect(checks.check_fingerprint(doc["sk_fingerprint"], sk))

    # -- traced runs only: each command split into the calls it makes ----------

    def parse(self, argv: list[str], tracer) -> None:
        with tracer.span("cli.parse"):
            cli.build_parser().parse_args(argv)

    def decompose_register(self, argv, name, password, tracer, rid) -> None:
        rng = random.Random(rid)
        with tracer.span("bench.decompose", rid):
            self.parse(argv, tracer)
            with tracer.span("registry.load_rc"):
                rc = registry.load_rc(self.rc_path)
            with tracer.span("protocol.register"):
                pending, req = protocol.user_register_begin(name, password, rng)
                prov = protocol.rc_register_user(rc, req, rng)
                new_card = protocol.user_finalize_card(name, password, pending.r1, pending.r2, prov)
            with tracer.span("registry.store_rc"):
                registry.store_rc(rc, self.scratch + ".rcdb.json")
            with tracer.span("registry.store_card"):
                registry.store_card(new_card, self.scratch + ".card.json")

    def decompose_sync(self, argv, s: Server, tracer, rid) -> None:
        with tracer.span("bench.decompose", rid):
            self.parse(argv, tracer)
            with tracer.span("registry.load_rc"):
                rc = registry.load_rc(self.rc_path)
            with tracer.span("registry.load_trm"):
                trm, server_id, server_loc = registry.load_trm_with_meta(s.trm_path)
            with tracer.span("protocol.db_update"):
                idb = checks.field(s.server_id)
                secrets = protocol.ServerSecrets(
                    id_j=idb, pw_j=checks.field(s.password), r_s=bytes(16), p_j=trm.p_j,
                    loc_j=rc.servers[idb].loc_j,
                )
                now = int(time.time())
                req = protocol.server_db_update_begin(secrets, trm.ssk_j, t6=now)
                delta = protocol.rc_handle_db_update(rc, req, t7=now, delta_t=DELTA_T)
                protocol.apply_user_list_delta(trm, delta)
            with tracer.span("registry.store_rc"):
                registry.store_rc(rc, self.scratch + ".rcdb.json")
            with tracer.span("registry.store_trm"):
                registry.store_trm(trm, self.scratch + ".trm.json", server_id, server_loc)

    def decompose_update(self, argv, name, password, card_path, tracer, rid) -> None:
        with tracer.span("bench.decompose", rid):
            self.parse(argv, tracer)
            with tracer.span("registry.load_card"):
                card = registry.load_card(card_path)
            with tracer.span("registry.load_rc"):
                rc = registry.load_rc(self.rc_path)
            with tracer.span("protocol.card_update"):
                now = int(time.time())
                req, _ctx = protocol.user_update_begin(name, password, card, t4=now)
                list_bytes = protocol.rc_handle_update(rc, req, t5=now, delta_t=DELTA_T)
                new_card = protocol.user_apply_server_list(name, password, card, list_bytes)
            with tracer.span("registry.store_card"):
                registry.store_card(new_card, self.scratch + ".card.json")

    def decompose_authenticate(self, argv, name, password, card_path, s: Server, tracer, rid):
        """Also frames the login and hands it to ServerApp.dispatch, as a
        service would, and masks the card's server list twice, as
        user_login_begin does; the login workloads time the same calls."""
        counter = HashCounter()
        with tracer.span("bench.decompose", rid):
            self.parse(argv, tracer)
            with tracer.span("registry.load_card"):
                card = registry.load_card(card_path)
            with tracer.span("registry.load_trm"):
                trm, server_id, server_loc = registry.load_trm_with_meta(s.trm_path)
            now = int(time.time())
            with tracer.span("protocol.user_login_begin"), counter.phase("login"):
                req, ctx = protocol.user_login_begin(name, password, card, server_id, now)
            with tracer.span("protocol.server_handle_login"), counter.phase("login"):
                resp, _ = protocol.server_handle_login(
                    trm, server_id, server_loc, req, t2=now, delta_t=DELTA_T,
                    vt_duration=VT_DURATION,
                )
            with tracer.span("protocol.user_handle_response"), counter.phase("login"):
                protocol.user_handle_response(ctx, resp, t3=now, delta_t=DELTA_T)
            with tracer.span("wire.encode_frame"):
                raw = wire.encode_frame(req)
            app = service.ServerApp(
                trm, server_id, server_loc, delta_t=DELTA_T, vt_duration=VT_DURATION
            )
            with tracer.span("service.dispatch"):
                reply = app.dispatch(raw)
            raw = wire.encode_frame(reply)
            with tracer.span("wire.decode_frame"):
                wire.decode_frame(raw)
            uid = checks.uid_from_card(name, password, card.w)
            with tracer.span("core.keystream_mask"):
                keystream_mask(uid, card.z)
                keystream_mask(uid, card.z)
        self.login_counts.append((counter.count("login"), counter.keystream_count("login")))

    def layer_metrics(self, tracer, out: Outcome) -> dict[str, tuple[float, str]]:
        def ms_of(name: str) -> float:
            return tracer.median_us(name) / 1e3

        return {
            "core.keystream_blocks_per_login": (p50([k for _, k in self.login_counts]), "count"),
            "core.keystream_mask_us": (tracer.median_us("core.keystream_mask"), "us"),
            "protocol.hashes_per_login": (p50([h for h, _ in self.login_counts]), "count"),
            "protocol.login_begin_us": (tracer.median_us("protocol.user_login_begin"), "us"),
            "protocol.handle_response_us": (
                tracer.median_us("protocol.user_handle_response"), "us"
            ),
            "protocol.server_handle_us": (tracer.median_us("protocol.server_handle_login"), "us"),
            "protocol.register_us": (tracer.median_us("protocol.register"), "us"),
            "protocol.db_update_us": (tracer.median_us("protocol.db_update"), "us"),
            "protocol.card_update_us": (tracer.median_us("protocol.card_update"), "us"),
            "wire.encode_us": (tracer.median_us("wire.encode_frame"), "us"),
            "wire.decode_us": (tracer.median_us("wire.decode_frame"), "us"),
            "service.dispatch_us": (tracer.median_us("service.dispatch"), "us"),
            "registry.load_rc_ms": (ms_of("registry.load_rc"), "ms"),
            "registry.store_rc_ms": (ms_of("registry.store_rc"), "ms"),
            "registry.load_trm_ms": (ms_of("registry.load_trm"), "ms"),
            "registry.store_trm_ms": (ms_of("registry.store_trm"), "ms"),
            "registry.bytes_written_per_enroll": (p50(out.samples["enroll_bytes"]), "B"),
            "cli.parse_ms": (ms_of("cli.parse"), "ms"),
            "netsim.build_world_s": (self.build_world_s, "s"),
        }
