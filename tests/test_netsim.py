import random

import pytest

from maskap.netsim import (
    Delay,
    Drop,
    Forward,
    Inject,
    ModifyBit,
    Replay,
    World,
    build_world,
)


class TestHonestSession:
    def test_accepted_with_equal_keys(self):
        world = build_world(seed=1, n_servers=2, n_users=2)
        outcome = world.run_honest_session("user01", "srv01", delta_t=5)
        assert outcome.accepted
        user_key, server_key = outcome.session_keys
        assert user_key.sk == server_key.sk

    def test_two_public_frames_68_bytes(self):
        world = build_world(seed=1)
        outcome = world.run_honest_session("user00", "srv00", delta_t=5)
        sends = [e for e in outcome.transcript if e["direction"] in ("user->server", "server->user")]
        assert len(sends) == 2
        assert all(len(bytes.fromhex(e["frame"])) == 68 for e in sends)

    def test_unsynced_user_rejected(self):
        world = build_world(seed=2)
        world.register_user("late", "pw")
        outcome = world.run_honest_session("late", "srv00", delta_t=5)
        assert not outcome.accepted
        assert outcome.error == "UnknownUser"

    def test_zero_window_with_latency(self):
        world = World(seed=3, latency_s=1)
        world.register_server("srv00", "pw", "loc")
        world.register_user("user00", "pw")
        world.advance_and_sync(0)
        outcome = world.run_honest_session("user00", "srv00", delta_t=0)
        assert not outcome.accepted
        assert outcome.error == "StaleRequest"


class TestDeterminism:
    def test_identical_seed_identical_transcript(self):
        script = {0: [Delay(2)], 1: [Forward()]}
        outcomes = []
        for _ in range(2):
            world = build_world(seed=9, n_servers=2, n_users=1)
            outcomes.append(world.run_with_adversary("user00", "srv01", script, delta_t=5))
        assert outcomes[0].transcript == outcomes[1].transcript
        assert outcomes[0].accepted == outcomes[1].accepted


class TestAdversary:
    def test_all_forward_matches_honest(self):
        w1 = build_world(seed=4)
        w2 = build_world(seed=4)
        honest = w1.run_honest_session("user00", "srv00", delta_t=5)
        forwarded = w2.run_with_adversary(
            "user00", "srv00", {0: [Forward()], 1: [Forward()]}, delta_t=5
        )
        assert forwarded.accepted
        assert honest.session_keys[0].sk == forwarded.session_keys[0].sk

    def test_delay_beyond_window(self):
        world = build_world(seed=5)
        outcome = world.run_with_adversary("user00", "srv00", {0: [Delay(6)]}, delta_t=5)
        assert not outcome.accepted
        assert outcome.error == "StaleRequest"

    def test_modify_beta_bit(self):
        world = build_world(seed=6)
        outcome = world.run_with_adversary(
            "user00", "srv00", {0: [ModifyBit("beta", 0, 0)]}, delta_t=5
        )
        assert not outcome.accepted
        assert outcome.error == "AuthFail"

    def test_drop(self):
        world = build_world(seed=7)
        outcome = world.run_with_adversary("user00", "srv00", {0: [Drop()]}, delta_t=5)
        assert not outcome.accepted
        assert outcome.session_keys is None

    def test_inject_garbage(self):
        world = build_world(seed=8)
        outcome = world.run_with_adversary(
            "user00", "srv00", {0: [Inject(b"\x00" * 10)]}, delta_t=5
        )
        assert not outcome.accepted
        assert outcome.error == "MalformedFrame"

    def test_replay_is_stale_with_tight_window(self):
        world = build_world(seed=9)
        outcome = world.run_with_adversary(
            "user00", "srv00", {0: [Replay(copies=2)]}, delta_t=world.latency_s
        )
        assert not outcome.accepted

    def test_modify_bit_bounds_checked(self):
        world = build_world(seed=10)
        with pytest.raises(ValueError):
            world.run_with_adversary(
                "user00", "srv00", {0: [ModifyBit("t1", 4, 0)]}, delta_t=5
            )

    def test_secure_frames_not_observable(self):
        world = build_world(seed=11, n_servers=2, n_users=2)
        world.run_honest_session("user00", "srv00", delta_t=5)
        # registration and sync traffic happened, but only the two public
        # auth frames ever reached the adversary
        assert len(world.adversary_observed) == 2
        assert len(world.secure_log) >= 5

    def test_randomized_non_forward_scripts_never_accepted(self):
        rng = random.Random(99)
        fields = {0: ["alpha", "beta", "t1"], 1: ["gamma", "sigma", "t2"]}
        for trial in range(40):
            world = build_world(seed=100 + trial)
            msg = rng.choice([0, 1])
            kind = rng.choice(["delay", "modify", "drop", "replay", "inject"])
            if kind == "delay":
                action = Delay(world.latency_s + rng.randint(1, 10))
            elif kind == "modify":
                name = rng.choice(fields[msg])
                width = 4 if name in ("t1", "t2") else 32
                action = ModifyBit(name, rng.randrange(width), rng.randrange(8))
            elif kind == "drop":
                action = Drop()
            elif kind == "replay":
                action = Replay(copies=rng.randint(1, 3))
            else:
                action = Inject(rng.randbytes(rng.choice([0, 10, 68])))
            outcome = world.run_with_adversary(
                "user00", "srv00", {msg: [action]}, delta_t=world.latency_s
            )
            assert not outcome.accepted, f"{kind} on msg {msg} yielded acceptance"


class TestSync:
    def test_sync_enables_new_user(self):
        world = build_world(seed=12)
        world.register_user("newbie", "pw")
        assert not world.run_honest_session("newbie", "srv00", delta_t=5).accepted
        world.advance_and_sync(10)
        assert world.run_honest_session("newbie", "srv00", delta_t=5).accepted

    def test_back_to_back_sync_empty_delta(self):
        world = build_world(seed=13)
        world.advance_and_sync(1)
        before = len(world.secure_log)
        world.advance_and_sync(1)
        last = world.secure_log[-1]
        assert last["kind"] == "db_sync" and last["delta"] == 0
        assert len(world.secure_log) == before + 1

    def test_card_update_path(self):
        world = build_world(seed=14)
        world.register_server("srv99", "pw99", "loc99")
        world.update_user_card("user00")
        world.advance_and_sync(1)
        assert world.run_honest_session("user00", "srv99", delta_t=5).accepted


class TestScriptJson:
    def test_outcome_json_dumpable(self):
        world = build_world(seed=15)
        outcome = world.run_honest_session("user00", "srv00", delta_t=5)
        assert '"accepted": true' in outcome.to_json()
