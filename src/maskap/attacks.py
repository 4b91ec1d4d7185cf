"""Scripted adversary scenarios, one per analyzed attack class.

Each scenario grants the adversary exactly the knowledge its threat model
allows (public transcripts, own credentials, stolen card fields, ...) and
then runs the strongest concrete strategy expressible with that knowledge.
A scenario's report counts attempts and acceptances; every shipped scenario
must end with zero acceptances.  These are tests-as-programs, not proofs.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from . import protocol, wire
from .core import HashCounter, encode_field, sha256, ts_bytes, xor
from .netsim import ModifyBit, Replay, World, build_world
from .protocol import (
    AuthFail,
    BadCredentials,
    LoginRequest,
    LoginResponse,
    ProtocolError,
    StaleRequest,
    UnknownUser,
    Validity16,
    parse_server_list,
)


@dataclass
class AttackReport:
    attack_name: str
    attempts: int = 0
    acceptances: int = 0
    notes: list[str] = field(default_factory=list)
    max_reject_hashes: int | None = None  # set by the denial-of-service scenario

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def default_world(seed: int = 0) -> World:
    return build_world(seed=seed, n_servers=2, n_users=2)


@dataclass
class _InsiderView:
    """Everything a registered user legitimately knows about the system."""

    card: protocol.SmartCard
    uid: bytes
    c: bytes
    entries: list[protocol.ServerListEntry]

    def entry(self, server_id: str) -> protocol.ServerListEntry:
        """The insider's unmasked card entry for `server_id`: its id, key and location."""
        idb = encode_field(server_id)
        return next(s for s in self.entries if s.id_j == idb)


def _alpha_mask(entry: protocol.ServerListEntry, t: int) -> bytes:
    """The mask over uid in a request's alpha, computable by anyone holding the entry."""
    return sha256(entry.id_j + entry.ssk_j + ts_bytes(t))


def _insider(world: World, user_id: str) -> _InsiderView:
    user = world.users[user_id]
    idb = encode_field(user.user_id)
    pwb = encode_field(user.password)
    opened = protocol._open_card(idb, pwb, user.card)
    c = protocol._recover_c(idb, pwb, opened.r1, opened.r2, user.card.x)
    raw = protocol._unmask_server_list(idb, pwb, opened.r1, opened.r2, user.card.z)
    return _InsiderView(
        card=user.card,
        uid=opened.uid,
        c=c,
        entries=parse_server_list(raw),
    )


def _capture_session(world: World, user_id: str, server_id: str, delta_t: int = 5):
    """Run an honest session and hand back its public frames."""
    outcome = world.run_honest_session(user_id, server_id, delta_t)
    assert outcome.accepted, "control session must succeed"
    req = wire.decode_body(LoginRequest, bytes.fromhex(outcome.transcript[0]["frame"]))
    resp_event = next(e for e in outcome.transcript if e["direction"] == "server->user")
    resp = wire.decode_body(LoginResponse, bytes.fromhex(resp_event["frame"]))
    return outcome, req, resp


def _submit(world: World, server_id: str, req: LoginRequest, delta_t: int = 5):
    server = world.servers[server_id]
    return protocol.server_handle_login(
        server.trm, server.server_id, server.location, req,
        t2=world.clock.now, delta_t=delta_t, vt_duration=world.vt_duration_s,
    )


# ---------------------------------------------------------------------------
# 1. user impersonation
# ---------------------------------------------------------------------------


def attack_user_impersonation(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("user_impersonation")
    victim, insider_id, server_id = "user00", "user01", "srv00"
    _, victim_req, victim_resp = _capture_session(world, victim, server_id)
    insider = _insider(world, insider_id)
    entry = insider.entry(server_id)

    # A registered insider recovers the victim's anonymous identity from the
    # captured request mask (it knows the server key), but lacks the victim's
    # per-user secret needed for the request verifier.
    victim_uid = xor(_alpha_mask(entry, victim_req.t1), victim_req.alpha)
    report.note("insider recovers victim uid from alpha; forgery still requires the victim's c")

    uid_candidates = [insider.uid, victim_uid]
    c_candidates = [insider.c, victim_req.alpha, victim_req.beta, victim_resp.gamma,
                    victim_resp.sigma, sha256(insider.c)]
    t = world.clock.now
    for uid in uid_candidates:
        for c in c_candidates:
            alpha = xor(_alpha_mask(entry, t), uid)
            beta = sha256(uid + entry.ssk_j + c + ts_bytes(t))
            req = LoginRequest(alpha=alpha, beta=beta, t1=t)
            report.attempts += 1
            try:
                _, key = _submit(world, server_id, req)
                if uid == insider.uid and c == insider.c:
                    # the insider authenticating as itself is legitimate use,
                    # not an impersonation of the victim
                    report.note("insider's own credentials accepted (legitimate login)")
                else:
                    report.acceptances += 1
            except ProtocolError:
                pass

    rng = random.Random(seed + 1)
    for _ in range(1000):
        req = LoginRequest(alpha=rng.randbytes(32), beta=rng.randbytes(32), t1=world.clock.now)
        report.attempts += 1
        try:
            _submit(world, server_id, req)
            report.acceptances += 1
        except ProtocolError:
            pass

    # Verbatim within-window replay: without the optional duplicate cache the
    # server answers, but the response is bound to the original user's secret
    # session, which the adversary cannot complete.
    report.attempts += 1
    try:
        resp, _ = _submit(world, server_id, victim_req)
        try:
            fake_ctx = protocol.LoginContext(
                uid=victim_uid, c_i=insider.c, ssk_j=entry.ssk_j,
                id_j=entry.id_j, beta=victim_req.beta, t1=victim_req.t1,
            )
            protocol.user_handle_response(fake_ctx, resp, t3=world.clock.now, delta_t=5)
            report.acceptances += 1
        except ProtocolError:
            report.note("within-window verbatim replay answered, but adversary cannot derive the key")
    except ProtocolError:
        report.note("within-window verbatim replay rejected (window already passed)")
    return report


# ---------------------------------------------------------------------------
# 2. server impersonation
# ---------------------------------------------------------------------------


def attack_server_impersonation(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("server_impersonation")
    victim, server_id = "user00", "srv00"
    insider = _insider(world, "user01")
    entry = insider.entry(server_id)

    control = world.run_honest_session(victim, server_id, delta_t=5)
    assert control.accepted
    report.note("honest-forward control session accepted")

    user = world.users[victim]
    t1 = world.clock.now
    req, ctx = protocol.user_login_begin(user.user_id, user.password, user.card, server_id, t1)
    victim_uid = xor(_alpha_mask(entry, t1), req.alpha)
    t2 = t1 + world.latency_s

    rng = random.Random(seed + 2)
    c_candidates = [insider.c, req.beta, req.alpha, sha256(insider.c)] + [
        rng.randbytes(32) for _ in range(200)
    ]
    vt = Validity16(expiry=t2 + world.vt_duration_s, duration_s=world.vt_duration_s)
    for c_guess in c_candidates:
        gamma = xor(vt.pack() + entry.loc_j, sha256(c_guess + victim_uid + entry.id_j + req.beta))
        sigma = sha256(vt.pack() + c_guess + ts_bytes(t2 - t1))
        forged = LoginResponse(gamma=gamma, sigma=sigma, t2=t2)
        report.attempts += 1
        try:
            protocol.user_handle_response(ctx, forged, t3=t2 + world.latency_s, delta_t=5)
            report.acceptances += 1
        except ProtocolError:
            pass
    return report


# ---------------------------------------------------------------------------
# 3. session key disclosure
# ---------------------------------------------------------------------------


def attack_session_key_disclosure(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("session_key_disclosure")
    victim, server_id = "user00", "srv00"
    outcome, req, resp = _capture_session(world, victim, server_id)
    real_sk = outcome.session_keys[0].sk
    real_vt = outcome.session_keys[0].vt
    insider = _insider(world, "user01")
    entry = insider.entry(server_id)
    victim_uid = xor(_alpha_mask(entry, req.t1), req.alpha)

    # Insider knows uid, server identity/location, and can reconstruct the
    # validity window from the issuing policy; only the per-user secret c is
    # missing from the key derivation input.
    report.note("adversary holds uid, server id/loc, and the policy-derived validity window")
    c_candidates = [insider.c, req.alpha, req.beta, resp.gamma, resp.sigma,
                    sha256(insider.c), insider.card.x, insider.card.w]
    for c_guess in c_candidates:
        sk_guess = sha256(victim_uid + entry.id_j + c_guess + entry.loc_j + real_vt.pack())
        report.attempts += 1
        if sk_guess == real_sk:
            report.acceptances += 1
    return report


# ---------------------------------------------------------------------------
# 4. stolen smart card
# ---------------------------------------------------------------------------


def attack_stolen_smart_card(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("stolen_smart_card")
    victim, server_id = "user00", "srv00"
    card = world.users[victim].card

    guesses = 10_000
    for i in range(guesses):
        report.attempts += 1
        try:
            protocol.user_login_begin(victim, f"guess{i}", card, server_id, world.clock.now)
            report.acceptances += 1
        except BadCredentials:
            pass
    report.note(f"{guesses} wrong-password login attempts with the stolen card all rejected")

    # card fields used directly as request material
    for alpha, beta in [(card.w, card.x), (card.x, card.e), (card.e, card.y)]:
        req = LoginRequest(alpha=alpha, beta=beta, t1=world.clock.now)
        report.attempts += 1
        try:
            _submit(world, server_id, req)
            report.acceptances += 1
        except ProtocolError:
            pass
    return report


# ---------------------------------------------------------------------------
# 5. modification
# ---------------------------------------------------------------------------


def attack_modification(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("modification")
    rng = random.Random(seed + 4)
    fields = [(0, "alpha", 32), (0, "beta", 32), (0, "t1", 4),
              (1, "gamma", 32), (1, "sigma", 32), (1, "t2", 4)]
    for msg_index, name, width in fields:
        for _ in range(20):
            act = ModifyBit(name, rng.randrange(width), rng.randrange(8))
            outcome = world.run_with_adversary("user00", "srv00", {msg_index: [act]}, delta_t=5)
            report.attempts += 1
            if outcome.accepted:
                report.acceptances += 1
    return report


# ---------------------------------------------------------------------------
# 6. password guessing
# ---------------------------------------------------------------------------


def attack_password_guessing(world: World | None = None, seed: int = 0) -> AttackReport:
    """Offline guessing against transcript-only data.

    There is no equation over public values in which the password appears
    alone, so a guess has nothing to be confirmed against: the adversary's
    best check is a direct hash comparison against transcript fields, whose
    success rate must be indistinguishable from chance.
    """
    world = world or default_world(seed)
    report = AttackReport("password_guessing")
    victim, server_id = "user00", "srv00"
    _, req, resp = _capture_session(world, victim, server_id)
    observable = {req.alpha, req.beta, resp.gamma, resp.sigma}
    true_pw = world.users[victim].password

    space = [f"candidate{i}" for i in range(999)] + [true_pw]
    confirmed = 0
    true_confirmed = False
    for pw in space:
        pwb = encode_field(pw)
        checks = [
            sha256(pwb + ts_bytes(req.t1)),
            sha256(pwb),
            sha256(pwb + ts_bytes(resp.t2)),
        ]
        hit = any(c in observable for c in checks)
        report.attempts += 1
        if hit:
            confirmed += 1
            if pw == true_pw:
                true_confirmed = True

    n, p0 = len(space), 1.0 / len(space)
    # one-sided binomial tail: P(X >= confirmed) under chance rate p0
    tail = sum(
        math.comb(n, k) * p0**k * (1 - p0) ** (n - k) for k in range(confirmed, n + 1)
    )
    report.note(f"{confirmed}/{n} guesses confirmed; binomial tail p-value {tail:.3f}")
    if tail < 0.01 or true_confirmed:
        report.acceptances += 1
        report.note("confirmation rate distinguishable from chance")
    return report


# ---------------------------------------------------------------------------
# 7. man in the middle
# ---------------------------------------------------------------------------


def attack_mitm(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("man_in_the_middle")
    rng = random.Random(seed + 5)

    # interpose on both frames of the same exchange
    for _ in range(50):
        script = {
            0: [ModifyBit("alpha", rng.randrange(32), rng.randrange(8))],
            1: [ModifyBit("gamma", rng.randrange(32), rng.randrange(8))],
        }
        outcome = world.run_with_adversary("user00", "srv00", script, delta_t=5)
        report.attempts += 1
        if outcome.accepted:
            report.acceptances += 1

    # passive interception: the masked validity/location never opens without c
    _, req, resp = _capture_session(world, "user00", "srv00")
    insider = _insider(world, "user01")
    entry = insider.entry("srv00")
    victim_uid = xor(_alpha_mask(entry, req.t1), req.alpha)
    unmask_guess = xor(resp.gamma, sha256(insider.c + victim_uid + entry.id_j + req.beta))
    report.attempts += 1
    try:
        vt = Validity16.unpack(unmask_guess[:16])
        plausible = vt.expiry == resp.t2 + world.vt_duration_s
    except ValueError:
        plausible = False
    if plausible:
        report.acceptances += 1
    else:
        report.note("gamma unmasked with a wrong per-user secret yields no valid window")
    return report


# ---------------------------------------------------------------------------
# 8. forward secrecy
# ---------------------------------------------------------------------------


def check_forward_secrecy(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("forward_secrecy")
    victim, server_id = "user00", "srv00"
    outcome1, req1, resp1 = _capture_session(world, victim, server_id)
    world.clock.advance(60)
    outcome2, req2, resp2 = _capture_session(world, victim, server_id)
    sk1 = outcome1.session_keys[0].sk
    sk2 = outcome2.session_keys[0].sk
    vt2 = outcome2.session_keys[0].vt
    report.note("adversary holds one revealed session key plus both public transcripts")

    known = [sk1, req1.alpha, req1.beta, resp1.gamma, resp1.sigma,
             req2.alpha, req2.beta, resp2.gamma, resp2.sigma]
    candidates: list[bytes] = list(known)
    for a in known:
        candidates.append(sha256(a))
        candidates.append(sha256(a + vt2.pack()))
        for b in known:
            if a is not b:
                candidates.append(sha256(a + b))
                candidates.append(xor(a, b))
    for guess in candidates:
        report.attempts += 1
        if guess == sk2:
            report.acceptances += 1
    return report


# ---------------------------------------------------------------------------
# 9. replay
# ---------------------------------------------------------------------------


def attack_replay(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("replay")
    victim, server_id = "user00", "srv00"
    delta_t = 5

    # out-of-window verbatim resend
    for _ in range(100):
        _, req, _ = _capture_session(world, victim, server_id, delta_t)
        world.clock.advance(delta_t + 1)
        report.attempts += 1
        try:
            _submit(world, server_id, req, delta_t)
            report.acceptances += 1
        except StaleRequest:
            pass

    # timestamp rewritten to pass freshness, verifier left intact
    for _ in range(100):
        _, req, _ = _capture_session(world, victim, server_id, delta_t)
        world.clock.advance(delta_t + 10)
        rewritten = LoginRequest(alpha=req.alpha, beta=req.beta, t1=world.clock.now)
        report.attempts += 1
        try:
            _submit(world, server_id, rewritten, delta_t)
            report.acceptances += 1
        except (AuthFail, UnknownUser):
            # alpha unmasks against the rewritten timestamp, so the uid lookup
            # itself usually fails before the verifier comparison
            pass

    # scripted stop-and-resend through the simulator
    for copies in (1, 2, 3):
        outcome = world.run_with_adversary(
            victim, server_id, {0: [Replay(copies=copies)]}, delta_t=world.latency_s
        )
        report.attempts += 1
        if outcome.accepted:
            report.acceptances += 1
    report.note("within-window verbatim duplicates are only rejected with the optional seen-request cache")
    return report


# ---------------------------------------------------------------------------
# 10. insider
# ---------------------------------------------------------------------------


def attack_insider(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("insider")
    victim, server_id = "user00", "srv00"
    insider = _insider(world, "user01")
    entry = insider.entry(server_id)
    _, req, resp = _capture_session(world, victim, server_id)
    victim_uid = xor(_alpha_mask(entry, req.t1), req.alpha)
    report.note("insider knowledge: own card/credentials plus unmasked server list entries")

    rng = random.Random(seed + 6)
    t = world.clock.now
    c_candidates = [insider.c, xor(insider.c, insider.card.x), req.beta, resp.sigma] + [
        rng.randbytes(32) for _ in range(200)
    ]
    for c_guess in c_candidates:
        alpha = xor(_alpha_mask(entry, t), victim_uid)
        beta = sha256(victim_uid + entry.ssk_j + c_guess + ts_bytes(t))
        report.attempts += 1
        try:
            _submit(world, server_id, LoginRequest(alpha=alpha, beta=beta, t1=t))
            report.acceptances += 1
        except ProtocolError:
            pass
    return report


# ---------------------------------------------------------------------------
# 11. denial of service
# ---------------------------------------------------------------------------


def attack_dos(world: World | None = None, seed: int = 0) -> AttackReport:
    world = world or default_world(seed)
    report = AttackReport("denial_of_service")
    server_id = "srv00"
    insider = _insider(world, "user01")
    entry = insider.entry(server_id)
    rng = random.Random(seed + 7)

    hash_costs = []
    for _ in range(100):
        t = world.clock.now
        # freshness passes and the uid resolves, so the server is driven as
        # deep as the request verifier before it can reject
        alpha = xor(_alpha_mask(entry, t), insider.uid)
        forged = LoginRequest(alpha=alpha, beta=rng.randbytes(32), t1=t)
        counter = HashCounter()
        report.attempts += 1
        try:
            with counter.phase("server_reject"):
                _submit(world, server_id, forged)
            report.acceptances += 1
        except AuthFail:
            pass
        hash_costs.append(counter.count("server_reject"))
    report.note(f"server hash cost before rejecting a forged request: {sorted(set(hash_costs))}")
    report.max_reject_hashes = max(hash_costs)
    return report


ATTACKS = {
    "user-impersonation": attack_user_impersonation,
    "server-impersonation": attack_server_impersonation,
    "session-key-disclosure": attack_session_key_disclosure,
    "stolen-smart-card": attack_stolen_smart_card,
    "modification": attack_modification,
    "password-guessing": attack_password_guessing,
    "mitm": attack_mitm,
    "forward-secrecy": check_forward_secrecy,
    "replay": attack_replay,
    "insider": attack_insider,
    "dos": attack_dos,
}


def run_all(seed: int = 0) -> dict[str, AttackReport]:
    return {name: fn(default_world(seed), seed=seed) for name, fn in ATTACKS.items()}
