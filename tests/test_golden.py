"""Golden values for one fixed deployment: build_world(seed=7, 3 servers, 4 users).

These pin the behaviour that any refactor or optimisation must keep: the
session keys, the public wire transcripts, the protocol hash count per login
and the card size.  Cards are pinned by size only (128 + 64n), so the order
of entries inside the masked server list is free to change.
"""
import pytest

from maskap.core import HashCounter
from maskap.netsim import ModifyBit, build_world

SEED, N_SERVERS, N_USERS = 7, 3, 4
T0 = 1_700_000_000

SESSION_KEYS = {
    "user00@srv00": "2a82c04e0a3b7982482f6daa53146e8a66f632cf57619837c4f43b37e50a822e",
    "user00@srv01": "34053303d310b21e562b915283e6509680dff751c95e0cc7103047f542c0b9f9",
    "user00@srv02": "6b17008ca48143cd7c2add2cff7d6410ebfc8dc41944f9d8cfa901b59ecdfa13",
    "user01@srv00": "d037ec31f8c755bcda206cde0df4c0902021c880159840c34b7e9f3b3588e40f",
    "user01@srv01": "9981a65e8a7b3fb5d243106e23a7426d90128f15a2d1ae793e03f4df279d36b5",
    "user01@srv02": "e7aef0495d3c971af95007da87b40d4e324a0434d020633569bcdc32b7eb47e5",
    "user02@srv00": "3b4e96dde7e5764098dba0aa686cc1812374e97a3e3488d0e7519400bf485286",
    "user02@srv01": "f79e544387d39eae730d723f081eaaab87b2d8e393766be1a66d06b71be293ea",
    "user02@srv02": "adce74c6668590b8d05edfe376d5a7ccab623aa97f2091b94d06165a611952d0",
    "user03@srv00": "e0ca6fdd6ac7612ba7ff28542341602b7e5f47d14bda7a4611c98639a134acfb",
    "user03@srv01": "a11cea082790ffbeec2b8ee2e80c5dce1f6a677e8e6a0dcbceb65ceba4334c5c",
    "user03@srv02": "3118603a94e45f0d02cbc9f75d0813d2d7bacf4633e19366c9ea0711460e50ce",
}

# user01 -> srv02, the first session of a fresh world.
HONEST_REQUEST = (
    "5ad77c2f3243c337bca3b4e1cfb08181b41812afa38e8d669aeabb64079027ad"
    "ce92d06a4052a51c3dae27d30ca05f146c14ec1ce33357a1c2efac129f5e24b1"
    "6553f100"
)
HONEST_RESPONSE = (
    "171419dc755e1bbbb1fbfd9d559c1c9cf2fd35737e0e5b1bb0af0c81eb0a2e42"
    "91b9f762d5075c985dcf49d05d5e2cada4251eefbff6bfb00b832249878f1264"
    "6553f101"
)
# user02 -> srv01 right after it, with bit 5 of beta's byte 3 flipped in transit.
ATTACK_REQUEST = (
    "f4e8edb9e1614a0dcb25a513ec51c52804c50d8e7df3db32e23c479f999b8786"
    "ecc4f4d92c66faa98144f25b1233ac6485d87e5cd104e4612be64cfe94ee9be2"
    "6553f102"
)
ATTACK_DELIVERED = ATTACK_REQUEST[:70] + "f" + ATTACK_REQUEST[71:]


def _world():
    return build_world(seed=SEED, n_servers=N_SERVERS, n_users=N_USERS)


def _sent(time, direction, frame, actions=()):
    return {"time": time, "channel": "public", "direction": direction, "frame": frame,
            "actions": list(actions)}


def _delivered(time, direction, frame, pristine, result):
    return {"time": time, "channel": "public", "direction": direction, "frame": frame,
            "pristine": pristine, "result": result}


def test_session_keys_and_hash_counts():
    world = _world()
    keys = {}
    for user in sorted(world.users):
        for server in sorted(world.servers):
            counter = HashCounter()
            with counter.phase("login"):
                outcome = world.run_honest_session(user, server, delta_t=5)
            assert outcome.accepted
            user_key, server_key = outcome.session_keys
            assert user_key.sk == server_key.sk
            assert counter.count("login") == 20
            keys[f"{user}@{server}"] = user_key.sk.hex()
    assert keys == SESSION_KEYS


def test_honest_and_attack_transcripts():
    world = _world()
    honest = world.run_honest_session("user01", "srv02", delta_t=5)
    assert honest.transcript == [
        _sent(T0, "user->server", HONEST_REQUEST),
        _delivered(T0 + 1, "deliver->server", HONEST_REQUEST, True, "accepted"),
        _sent(T0 + 1, "server->user", HONEST_RESPONSE),
        _delivered(T0 + 2, "deliver->user", HONEST_RESPONSE, True, "accepted"),
    ]
    attack = world.run_with_adversary(
        "user02", "srv01", {0: [ModifyBit("beta", 3, 5)]}, delta_t=5
    )
    assert not attack.accepted and attack.error == "AuthFail"
    assert attack.transcript == [
        _sent(T0 + 2, "user->server", ATTACK_REQUEST, ["modify_bit(beta,3,5)"]),
        _delivered(T0 + 3, "deliver->server", ATTACK_DELIVERED, False, "AuthFail"),
    ]


@pytest.mark.parametrize("user", [f"user{i:02d}" for i in range(N_USERS)])
def test_card_size(user):
    assert _world().users[user].card.storage_bytes == 128 + 64 * N_SERVERS
