"""Deterministic simulation of the user / server / RC topology.

A World owns a virtual clock and a seeded RNG, so any scenario replays
bit-identically.  Public-channel frames pass through a scriptable adversary;
registration and RC maintenance traffic ride secure channels the adversary
cannot observe.  Servers answer logins, and the RC card and database
updates, through `service.ServerApp.handle` and `service.RcApp.handle`.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Union

from . import protocol, wire
from .protocol import (
    LoginRequest,
    LoginResponse,
    ProtocolError,
    RcState,
    ServerSecrets,
    SessionKey,
    SmartCard,
    TamperResistantMemory,
)
from .service import RcApp, ServerApp

DEFAULT_START_TIME = 1_700_000_000
DEFAULT_LATENCY_S = 1


@dataclass
class SimClock:
    now: int

    def advance(self, d_s: int) -> None:
        if d_s < 0:
            raise ValueError("clock cannot move backwards")
        self.now += d_s

    def advance_to(self, t: int) -> None:
        if t > self.now:
            self.now = t


# ---------------------------------------------------------------------------
# Adversary actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Forward:
    pass


@dataclass(frozen=True)
class Delay:
    d_s: int


@dataclass(frozen=True)
class Replay:
    """Suppress the original delivery and resend the captured frame.

    Copy k arrives k latency hops after the nominal delivery time: capturing
    and re-injecting costs the adversary at least one hop.
    """

    copies: int = 1


@dataclass(frozen=True)
class ModifyBit:
    field: str
    byte_index: int
    bit_index: int


@dataclass(frozen=True)
class Drop:
    pass


@dataclass(frozen=True)
class Inject:
    frame: bytes


AdversaryAction = Union[Forward, Delay, Replay, ModifyBit, Drop, Inject]

# A session's public messages by index: the class, its sender and its receiver.
_MESSAGES = ((LoginRequest, "user", "server"), (LoginResponse, "server", "user"))
_FIELD_SPANS = {index: wire.layout(cls).spans for index, (cls, *_) in enumerate(_MESSAGES)}


def _action_desc(act: AdversaryAction) -> str:
    if isinstance(act, Forward):
        return "forward"
    if isinstance(act, Delay):
        return f"delay({act.d_s})"
    if isinstance(act, Replay):
        return f"replay({act.copies})"
    if isinstance(act, ModifyBit):
        return f"modify_bit({act.field},{act.byte_index},{act.bit_index})"
    if isinstance(act, Drop):
        return "drop"
    return f"inject({act.frame.hex()})"


@dataclass
class _Delivery:
    arrival: int
    frame: bytes
    pristine: bool


def _apply_actions(
    actions: list[AdversaryAction],
    frame: bytes,
    send_time: int,
    latency: int,
    msg_index: int,
) -> list[_Delivery]:
    deliveries = [_Delivery(send_time + latency, frame, True)]
    spans = _FIELD_SPANS[msg_index]
    for act in actions:
        if isinstance(act, Forward):
            continue
        if isinstance(act, Drop):
            deliveries = []
        elif isinstance(act, Delay):
            for d in deliveries:
                d.arrival += act.d_s
                d.pristine = False
        elif isinstance(act, Inject):
            for d in deliveries:
                d.frame = act.frame
                d.pristine = False
        elif isinstance(act, ModifyBit):
            lo, hi = spans[act.field]
            pos = lo + act.byte_index
            if not lo <= pos < hi or not 0 <= act.bit_index < 8:
                raise ValueError(f"modify_bit indices out of bounds for field {act.field}")
            for d in deliveries:
                mutated = bytearray(d.frame)
                mutated[pos] ^= 1 << act.bit_index
                d.frame = bytes(mutated)
                d.pristine = False
        elif isinstance(act, Replay):
            resent: list[_Delivery] = []
            for d in deliveries:
                for k in range(1, act.copies + 1):
                    resent.append(_Delivery(d.arrival + k * latency, d.frame, False))
            deliveries = resent
        else:
            raise ValueError(f"unsupported adversary action {act!r}")
        deliveries.sort(key=lambda d: d.arrival)
    return deliveries


# ---------------------------------------------------------------------------
# Outcome / world
# ---------------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    accepted: bool
    error: str | None
    transcript: list[dict]
    session_keys: tuple[SessionKey, SessionKey] | None  # (user, server)

    def to_json(self) -> str:
        doc = {
            "accepted": self.accepted,
            "error": self.error,
            "transcript": self.transcript,
            "session_keys": (
                [self.session_keys[0].sk.hex(), self.session_keys[1].sk.hex()]
                if self.session_keys
                else None
            ),
        }
        return json.dumps(doc, indent=2)


@dataclass
class SimUser:
    user_id: str
    password: str
    card: SmartCard


@dataclass
class SimServer:
    server_id: str
    location: str
    secrets: ServerSecrets
    trm: TamperResistantMemory


class World:
    """One simulated deployment: an RC, its servers and users, and a clock."""

    def __init__(
        self,
        seed: int = 0,
        start_time: int = DEFAULT_START_TIME,
        latency_s: int = DEFAULT_LATENCY_S,
        vt_duration_s: int = protocol.DEFAULT_VT_DURATION,
    ) -> None:
        self.rng = random.Random(seed)
        self.clock = clock = SimClock(now=start_time)
        self.latency_s = latency_s
        self.vt_duration_s = vt_duration_s
        self.rc = RcState(k_rc=self.rng.randbytes(32))
        # Bound to the clock, not to self: a cycle through self would keep a
        # dropped world in memory until the cyclic garbage collector runs.
        self.rc_app = RcApp(self.rc, now_fn=lambda: clock.now)
        self.servers: dict[str, SimServer] = {}
        self.users: dict[str, SimUser] = {}
        self.adversary_observed: list[bytes] = []
        self.secure_log: list[dict] = []

    # -- enrollment (secure channels) --------------------------------------

    def register_server(self, server_id: str, password: str, location: str) -> SimServer:
        secrets, req = protocol.server_register_begin(server_id, password, location, self.rng)
        trm = protocol.rc_register_server(self.rc, req, srt_j=self.clock.now)
        sim = SimServer(server_id=server_id, location=location, secrets=secrets, trm=trm)
        self.servers[server_id] = sim
        self.secure_log.append(
            {"time": self.clock.now, "channel": "secure", "kind": "server_registration",
             "peer": server_id}
        )
        return sim

    def register_user(self, user_id: str, password: str) -> SimUser:
        pending, req = protocol.user_register_begin(user_id, password, self.rng)
        prov = protocol.rc_register_user(self.rc, req, self.rng)
        card = protocol.user_finalize_card(user_id, password, pending.r1, pending.r2, prov)
        sim = SimUser(user_id=user_id, password=password, card=card)
        self.users[user_id] = sim
        self.secure_log.append(
            {"time": self.clock.now, "channel": "secure", "kind": "user_registration",
             "peer": user_id}
        )
        return sim

    def advance_and_sync(self, d_s: int) -> None:
        """Advance the clock, then sync every server through the RC."""
        self.clock.advance(d_s)
        now = self.clock.now
        for sim in self.servers.values():
            synced = self.rc_app.sync(sim.secrets, sim.trm, now)
            self.secure_log.append(
                {"time": now, "channel": "secure", "kind": "db_sync",
                 "peer": sim.server_id, "delta": synced}
            )

    # -- card maintenance (secure channel) ----------------------------------

    def update_user_card(self, user_id: str) -> None:
        sim = self.users[user_id]
        req, _ctx = protocol.user_update_begin(sim.user_id, sim.password, sim.card, t4=self.clock.now)
        list_bytes = self.rc_app.handle(req, self.clock.now)
        sim.card = protocol.user_apply_server_list(sim.user_id, sim.password, sim.card, list_bytes)
        self.secure_log.append(
            {"time": self.clock.now, "channel": "secure", "kind": "card_update", "peer": user_id}
        )

    # -- authentication sessions --------------------------------------------

    def run_honest_session(self, user_id: str, server_id: str, delta_t: int) -> ScenarioOutcome:
        return self.run_with_adversary(user_id, server_id, {}, delta_t)

    def run_with_adversary(
        self,
        user_id: str,
        server_id: str,
        script: dict[int, list[AdversaryAction]],
        delta_t: int,
    ) -> ScenarioOutcome:
        user = self.users[user_id]
        server = self.servers[server_id]
        transcript: list[dict] = []
        errors: list[str] = []
        tainted_accept = False

        def deliver(msg_index: int, msg: LoginRequest | LoginResponse, sent_at: int, handle):
            """Pass a message through the adversary; the first accepted (result, time), or None."""
            nonlocal tainted_accept
            cls, sender, peer = _MESSAGES[msg_index]
            actions = script.get(msg_index, [])
            frame = wire.encode_body(msg)
            transcript.append(
                {"time": sent_at, "channel": "public", "direction": f"{sender}->{peer}",
                 "frame": frame.hex(), "actions": [_action_desc(a) for a in actions]}
            )
            deliveries = _apply_actions(actions, frame, sent_at, self.latency_s, msg_index)
            if not deliveries:
                errors.append("Dropped")
            first = None
            for dlv in deliveries:
                self.clock.advance_to(dlv.arrival)
                self.adversary_observed.append(dlv.frame)
                event = {"time": dlv.arrival, "channel": "public", "direction": f"deliver->{peer}",
                         "frame": dlv.frame.hex(), "pristine": dlv.pristine}
                try:
                    result = handle(wire.decode_body(cls, dlv.frame), self.clock.now)
                except (ProtocolError, wire.CodecError) as exc:
                    kind = exc.kind if isinstance(exc, ProtocolError) else "MalformedFrame"
                    event["result"] = kind
                    errors.append(kind)
                else:
                    event["result"] = "accepted"
                    tainted_accept = tainted_accept or not dlv.pristine
                    first = first or (result, self.clock.now)
                transcript.append(event)
            return first

        t1 = self.clock.now
        try:
            login_req, ctx = protocol.user_login_begin(
                user.user_id, user.password, user.card, server_id, t1
            )
        except ProtocolError as exc:
            return ScenarioOutcome(False, exc.kind, transcript, None)

        user_key: SessionKey | None = None
        server_key: SessionKey | None = None
        app = ServerApp(server.trm, server.server_id, server.location, delta_t, self.vt_duration_s)
        served = deliver(0, login_req, t1, app.handle)
        if served is not None:
            (response, server_key), response_time = served
            finished = deliver(1, response, response_time, lambda resp, now: (
                protocol.user_handle_response(ctx, resp, t3=now, delta_t=delta_t)
            ))
            user_key = finished[0] if finished else None

        keys = (user_key, server_key) if user_key and server_key else None
        accepted = keys is not None and keys[0].sk == keys[1].sk and not tainted_accept
        return ScenarioOutcome(accepted and not errors, errors[0] if errors else None, transcript, keys)


def build_world(
    seed: int,
    n_servers: int = 1,
    n_users: int = 1,
    **kwargs,
) -> World:
    """Convenience topology: n servers registered before n users, then synced."""
    world = World(seed=seed, **kwargs)
    for j in range(n_servers):
        world.register_server(f"srv{j:02d}", f"spw{j:02d}", f"loc{j:02d}")
    for i in range(n_users):
        world.register_user(f"user{i:02d}", f"upw{i:02d}")
    world.advance_and_sync(0)
    return world
