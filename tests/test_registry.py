import json
import os
import random
import stat
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskap import protocol, registry
from maskap.netsim import build_world
from maskap.registry import CorruptRecord


def random_rc(rng: random.Random) -> protocol.RcState:
    rc = protocol.RcState(k_rc=rng.randbytes(32))
    for j in range(rng.randint(0, 3)):
        _, reg = protocol.server_register_begin(f"s{j}", f"p{j}", f"l{j}", rng)
        protocol.rc_register_server(rc, reg, srt_j=rng.randrange(2**31))
    for i in range(rng.randint(0, 3)):
        _, req = protocol.user_register_begin(f"u{i}", f"pw{i}", rng)
        if rc.servers:
            protocol.rc_register_user(rc, req, rng)
    return rc


class TestRcRoundTrip:
    def test_fresh_rc(self, tmp_path):
        rc = protocol.RcState(k_rc=b"\x05" * 32)
        path = str(tmp_path / "db.rcdb.json")
        registry.store_rc(rc, path)
        assert registry.load_rc(path) == rc

    def test_randomized_round_trips(self, tmp_path):
        rng = random.Random(11)
        for i in range(30):
            rc = random_rc(rng)
            path = str(tmp_path / f"rc{i}.rcdb.json")
            registry.store_rc(rc, path)
            assert registry.load_rc(path) == rc

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.rcdb.json"
        rc = random_rc(random.Random(1))
        registry.store_rc(rc, str(path))
        path.write_text(path.read_text()[:40])
        with pytest.raises(CorruptRecord):
            registry.load_rc(str(path))

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v.rcdb.json"
        rc = protocol.RcState(k_rc=b"\x05" * 32)
        registry.store_rc(rc, str(path))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord, match="version"):
            registry.load_rc(str(path))

    def test_duplicate_uid_rejected(self, tmp_path):
        rng = random.Random(2)
        rc = random_rc(rng)
        while not rc.users:
            rc = random_rc(rng)
        path = tmp_path / "dup.rcdb.json"
        registry.store_rc(rc, str(path))
        doc = json.loads(path.read_text())
        doc["users"].append(doc["users"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord, match="duplicate uid .* in users"):
            registry.load_rc(str(path))


class TestCardRoundTrip:
    def card(self, seed=0):
        return build_world(seed=seed, n_servers=2, n_users=1).users["user00"].card

    def test_round_trip(self, tmp_path):
        card = self.card()
        path = str(tmp_path / "u.card.json")
        registry.store_card(card, path)
        assert registry.load_card(path) == card

    def test_bad_z_length(self, tmp_path):
        card = self.card()
        path = tmp_path / "u.card.json"
        registry.store_card(card, str(path))
        doc = json.loads(path.read_text())
        doc["z"] = doc["z"] + "ab"  # 65 bytes
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord):
            registry.load_card(str(path))

    def test_bad_width(self, tmp_path):
        card = self.card()
        path = tmp_path / "u.card.json"
        registry.store_card(card, str(path))
        doc = json.loads(path.read_text())
        doc["w"] = doc["w"][:-2]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord):
            registry.load_card(str(path))


class TestTrmRoundTrip:
    def trm(self, seed=0):
        return build_world(seed=seed, n_servers=1, n_users=2).servers["srv00"].trm

    def test_round_trip(self, tmp_path):
        trm = self.trm()
        path = str(tmp_path / "s.trm.json")
        registry.store_trm(trm, path, server_id="srv00", server_loc="loc00")
        loaded, server_id, server_loc = registry.load_trm_with_meta(path)
        assert loaded == trm
        assert (server_id, server_loc) == ("srv00", "loc00")

    def test_cross_list_invariant(self, tmp_path):
        trm = self.trm()
        path = tmp_path / "s.trm.json"
        registry.store_trm(trm, str(path))
        doc = json.loads(path.read_text())
        doc["list_uid"] = doc["list_uid"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord):
            registry.load_trm(str(path))

    def test_flipped_hex_character_detected_or_rejected_downstream(self, tmp_path):
        # corruption either fails validation here or produces state the
        # protocol verifiers reject; never a silently valid session
        world = build_world(seed=3, n_servers=1, n_users=1)
        trm = world.servers["srv00"].trm
        path = tmp_path / "s.trm.json"
        registry.store_trm(trm, str(path))
        doc = json.loads(path.read_text())
        ssk = doc["ssk"]
        doc["ssk"] = ("0" if ssk[0] != "0" else "1") + ssk[1:]
        path.write_text(json.dumps(doc))
        loaded = registry.load_trm(str(path))
        world.servers["srv00"].trm = loaded
        outcome = world.run_honest_session("user00", "srv00", delta_t=5)
        assert not outcome.accepted


def stored_rc(tmp_path, n_users=6):
    """The RC of a small world and the path it is stored at."""
    world = build_world(seed=4, n_servers=2, n_users=n_users)
    path = tmp_path / "w.rcdb.json"
    registry.store_rc(world.rc, str(path))
    return world, path


def stored_trm(tmp_path, n_users=6):
    trm = build_world(seed=4, n_servers=1, n_users=n_users).servers["srv00"].trm
    path = tmp_path / "w.trm.json"
    registry.store_trm(trm, str(path), server_id="srv00", server_loc="loc00")
    return trm, path


def rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestFileLayout:
    def test_compact_sorted_json(self, tmp_path, monkeypatch):
        # Rows go out in batches; with a batch of 4 the six users take two.
        monkeypatch.setattr(registry, "ROW_BATCH", 4)
        _, rc_path = stored_rc(tmp_path)
        _, trm_path = stored_trm(tmp_path)
        for path in (rc_path, trm_path):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(n_users=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
    @example(n_users=256, seed=1)
    @example(n_users=257, seed=2)
    @example(n_users=512, seed=3)
    def test_stored_bytes_are_compact_sorted_json(self, n_users, seed):
        # Any number of users, across ROW_BATCH edges, gives the bytes the
        # C encoder gives for the whole document, and loads back unchanged.
        rng = random.Random(seed)
        rc = protocol.RcState(k_rc=rng.randbytes(32))
        rc.users = {rng.randbytes(32): rng.randbytes(32) for _ in range(n_users)}
        _, reg = protocol.server_register_begin("s0", "p0", "l0", rng)
        trm = protocol.rc_register_server(rc, reg, srt_j=rng.randrange(2**32))
        with tempfile.TemporaryDirectory() as tmp:
            rc_path = os.path.join(tmp, "p.rcdb.json")
            trm_path = os.path.join(tmp, "p.trm.json")
            registry.store_rc(rc, rc_path)
            registry.store_trm(trm, trm_path, server_id="s0", server_loc="l0")
            for path in (rc_path, trm_path):
                with open(path, "rb") as fh:
                    data = fh.read()
                expected = json.dumps(json.loads(data), sort_keys=True, separators=(",", ":"))
                assert data == (expected + "\n").encode()
            loaded = registry.load_rc(rc_path)
            assert loaded == rc and list(loaded.users) == list(rc.users)  # registration order
            assert registry.load_trm_with_meta(trm_path) == (trm, "s0", "l0")

    @pytest.mark.parametrize("n_users", [0, 1, 256, 257])
    def test_batch_edges_round_trip(self, tmp_path, n_users):
        rc = protocol.RcState(k_rc=b"\x01" * 32)
        rc.users = {bytes([i % 256, i // 256]) * 16: bytes([i % 7]) * 32 for i in range(n_users)}
        path = str(tmp_path / "b.rcdb.json")
        registry.store_rc(rc, path)
        assert registry.load_rc(path) == rc

    def test_indented_files_of_earlier_versions_load(self, tmp_path):
        world, rc_path = stored_rc(tmp_path)
        trm, trm_path = stored_trm(tmp_path)
        card = world.users["user00"].card
        card_path = tmp_path / "w.card.json"
        registry.store_card(card, str(card_path))
        for path in (rc_path, trm_path, card_path):
            doc = json.loads(path.read_text())
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        assert registry.load_rc(str(rc_path)) == world.rc
        assert registry.load_trm_with_meta(str(trm_path)) == (trm, "srv00", "loc00")
        assert registry.load_card(str(card_path)) == card


class TestDurableWrite:
    def test_fsyncs_file_before_rename_and_directory_after(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "d.rcdb.json"
        registry.store_rc(protocol.RcState(k_rc=b"\x05" * 32), str(path))
        assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
        (_, file_is_dir, file_ino), (_, tmp, dst), (_, dir_is_dir, dir_ino) = events
        assert not file_is_dir and file_ino == path.stat().st_ino
        assert os.path.dirname(tmp) == str(tmp_path) and dst == str(path)
        assert dir_is_dir and dir_ino == tmp_path.stat().st_ino

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.rcdb.json"
        registry.store_rc(protocol.RcState(k_rc=b"\x05" * 32), str(path))
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk gone"):
            registry.store_rc(protocol.RcState(k_rc=b"\x06" * 32), str(path))
        assert os.listdir(tmp_path) == ["d.rcdb.json"]
        assert path.read_bytes() == before


# One corrupt value per case: (what, value, message).
BAD_VALUES = [
    ("not a string", 7, "must be a hex string"),
    ("bad hex", "zz" * 32, "is not valid hex"),
    ("wrong width", "ab" * 31, "must be 32 bytes"),
    ("64 characters with spaces", "ab" * 31 + "  ", "must be 32 bytes"),
]


def set_row_field(doc, table, key, value):
    rows = doc[table]
    row = len(rows) // 2
    if key is None:
        rows[row] = value
    else:
        rows[row][key] = value


class TestBulkValidation:
    @pytest.mark.parametrize("what,value,message", BAD_VALUES, ids=[v[0] for v in BAD_VALUES])
    @pytest.mark.parametrize("table,key", [("users", "uid"), ("users", "c")])
    def test_rc_user_field(self, tmp_path, table, key, what, value, message):
        _, path = stored_rc(tmp_path)
        rewrite(path, lambda doc: set_row_field(doc, table, key, value))
        with pytest.raises(CorruptRecord, match=f"field {table}.{key} {message}"):
            registry.load_rc(str(path))

    @pytest.mark.parametrize("what,value,message", BAD_VALUES, ids=[v[0] for v in BAD_VALUES])
    @pytest.mark.parametrize(
        "table,key,field", [("list_c", "uid", "list_c.uid"), ("list_c", "c", "list_c.c"),
                            ("list_uid", None, "list_uid")],
    )
    def test_trm_user_field(self, tmp_path, table, key, field, what, value, message):
        _, path = stored_trm(tmp_path)
        rewrite(path, lambda doc: set_row_field(doc, table, key, value))
        with pytest.raises(CorruptRecord, match=f"field {field} {message}"):
            registry.load_trm(str(path))

    def test_trm_duplicate_uid(self, tmp_path):
        _, path = stored_trm(tmp_path)
        rewrite(path, lambda doc: doc["list_c"].append(doc["list_c"][2]))
        with pytest.raises(CorruptRecord, match="duplicate uid .* in list_c"):
            registry.load_trm(str(path))

    def test_duplicate_by_bytes_not_text(self, tmp_path):
        # The same uid in upper case is the same 32 bytes.
        _, path = stored_rc(tmp_path)
        rewrite(path, lambda doc: doc["users"].append(dict(doc["users"][0],
                                                             uid=doc["users"][0]["uid"].upper())))
        with pytest.raises(CorruptRecord, match="duplicate uid"):
            registry.load_rc(str(path))

    def test_list_uid_differs_from_list_c(self, tmp_path):
        _, path = stored_trm(tmp_path)
        rewrite(path, lambda doc: doc["list_uid"].__setitem__(0, "ab" * 32))
        with pytest.raises(CorruptRecord, match="list_uid and list_c"):
            registry.load_trm(str(path))


WRONG_SHAPES = [
    ("rc", "users", 5), ("rc", "users", ["x"]), ("rc", "users", [[1, 2]]),
    ("rc", "servers", [1]), ("rc", "servers", {}), ("rc", "sync_markers", []),
    ("trm", "list_c", 5), ("trm", "list_c", ["x"]), ("trm", "list_uid", 5),
    ("trm", "list_uid", [1]), ("trm", "list_uid", {}), ("trm", "server_id", 5),
    ("trm", "server_loc", ["loc"]),
]


class TestWrongShapes:
    @pytest.mark.parametrize("kind,key,value", WRONG_SHAPES)
    def test_raises_corrupt_record_naming_the_field(self, tmp_path, kind, key, value):
        _, path = stored_rc(tmp_path) if kind == "rc" else stored_trm(tmp_path)
        rewrite(path, lambda doc: doc.__setitem__(key, value))
        load = registry.load_rc if kind == "rc" else registry.load_trm_with_meta
        with pytest.raises(CorruptRecord, match=key):
            load(str(path))

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{}", b"[" * 100_000, b'{"version": 1'],
        ids=["not utf-8", "nested too deep", "truncated"],
    )
    def test_undecodable_file(self, tmp_path, data):
        path = tmp_path / "x.rcdb.json"
        path.write_bytes(data)
        with pytest.raises(CorruptRecord, match="not valid JSON"):
            registry.load_rc(str(path))


HEX_VALUES = st.one_of(
    st.text(alphabet="0123456789abcdefABCDEF \t\nxz", min_size=60, max_size=68),
    st.binary(min_size=31, max_size=33).map(bytes.hex),
    st.integers(), st.none(),
)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.binary(min_size=32, max_size=32).map(bytes.hex), HEX_VALUES),
                max_size=6))
def test_column_decode_matches_per_value_decode(values):
    """`_unhex_all` agrees with `_unhex` applied value by value, errors included."""
    def outcome(decode):
        try:
            return decode()
        except CorruptRecord as exc:
            return str(exc)

    per_value = outcome(lambda: [registry._unhex("f", "users.uid", v, 32) for v in values])
    assert outcome(lambda: registry._unhex_all("f", "users.uid", values, 32)) == per_value
