import json

import pytest

from maskap import cli, registry
from maskap.cli import build_parser, main
from maskap.netsim import build_world
from maskap.protocol import MAX_SERVERS


@pytest.fixture
def paths(tmp_path):
    return {
        "rc": str(tmp_path / "center.rcdb.json"),
        "trm": str(tmp_path / "hosp.trm.json"),
        "card": str(tmp_path / "alice.card.json"),
    }


def enroll(paths, seed="5"):
    assert main(["--seed", seed, "rc-init", "--rc", paths["rc"]]) == 0
    assert main([
        "--seed", seed, "register-server", "--rc", paths["rc"], "--trm", paths["trm"],
        "--id", "hosp01", "--pw", "srvpass", "--loc", "goa",
    ]) == 0
    assert main([
        "--seed", seed, "register-user", "--rc", paths["rc"], "--card", paths["card"],
        "--id", "alice", "--pw", "hunter2",
    ]) == 0
    assert main([
        "--seed", seed, "sync-server", "--rc", paths["rc"], "--trm", paths["trm"],
        "--pw", "srvpass",
    ]) == 0


class TestEnrollAndAuthenticate:
    def test_full_flow(self, paths, capsys):
        enroll(paths)
        capsys.readouterr()
        code = main([
            "--json", "authenticate", "--card", paths["card"], "--trm", paths["trm"],
            "--id", "alice", "--pw", "hunter2",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert len(doc["sk_fingerprint"]) == 16

    def test_wrong_password_exits_2(self, paths, capsys):
        enroll(paths)
        code = main([
            "authenticate", "--card", paths["card"], "--trm", paths["trm"],
            "--id", "alice", "--pw", "wrong",
        ])
        assert code == 2
        assert "BadCredentials" in capsys.readouterr().err

    def test_unsynced_server_exits_2(self, paths, capsys):
        # same as enroll() but with the sync step omitted
        assert main(["--seed", "5", "rc-init", "--rc", paths["rc"]]) == 0
        assert main([
            "--seed", "5", "register-server", "--rc", paths["rc"], "--trm", paths["trm"],
            "--id", "hosp01", "--pw", "srvpass", "--loc", "goa",
        ]) == 0
        assert main([
            "--seed", "5", "register-user", "--rc", paths["rc"], "--card", paths["card"],
            "--id", "alice", "--pw", "hunter2",
        ]) == 0
        code = main([
            "authenticate", "--card", paths["card"], "--trm", paths["trm"],
            "--id", "alice", "--pw", "hunter2",
        ])
        assert code == 2
        assert "UnknownUser" in capsys.readouterr().err

    def test_missing_rc_file_exits_2(self, paths, capsys):
        code = main(["register-user", "--rc", paths["rc"], "--card", paths["card"],
                     "--id", "alice", "--pw", "pw"])
        assert code == 2

    def test_update_card(self, paths, capsys):
        enroll(paths)
        capsys.readouterr()
        code = main([
            "--json", "update-card", "--rc", paths["rc"], "--card", paths["card"],
            "--id", "alice", "--pw", "hunter2",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["servers"] == 1

    def test_sync_is_incremental(self, paths, capsys):
        enroll(paths)
        assert main([
            "--seed", "6", "register-user", "--rc", paths["rc"],
            "--card", paths["card"] + ".2", "--id", "bob", "--pw", "pw2",
        ]) == 0
        capsys.readouterr()
        code = main([
            "--json", "sync-server", "--rc", paths["rc"], "--trm", paths["trm"],
            "--pw", "srvpass",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["new_users"] == 1


class TestAttackCommand:
    def test_replay_scenario_json(self, capsys):
        code = main(["--json", "--seed", "0", "attack", "replay"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attack_name"] == "replay"
        assert doc["acceptances"] == 0

    def test_unknown_name(self, capsys):
        assert main(["attack", "nonsense"]) == 2
        assert "unknown attack" in capsys.readouterr().err


class TestParserReuse:
    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        assert main(["attack", "nonsense"]) == 2

        def no_second_build():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", no_second_build)
        assert main(["attack", "nonsense"]) == 2
        assert main(["--json", "attack", "nonsense"]) == 2


class TestBadInput:
    """Bad input exits 2 with a one-line typed message, never a traceback."""

    def test_id_too_long(self, paths, capsys):
        enroll(paths)
        capsys.readouterr()
        code = main(["register-user", "--rc", paths["rc"], "--card", paths["card"],
                     "--id", "a" * 23, "--pw", "pw"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: FieldTooLong: ")

    def test_id_not_utf8(self, paths, capsys):
        enroll(paths)
        capsys.readouterr()
        # Python hands a command-line byte 0xff to the program as the lone
        # surrogate U+DCFF, which has no UTF-8 encoding.
        code = main(["--json", "register-user", "--rc", paths["rc"], "--card", paths["card"],
                     "--id", "\udcff", "--pw", "pw"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FieldEncodingError"

    def test_bind_port_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--role", "server", "--trm", "absent.trm.json",
                  "--bind", "127.0.0.1:notaport"])
        assert exc.value.code == 2
        assert "argument --bind: port 'notaport' is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bind,addr", [
        ("127.0.0.1:0", ("127.0.0.1", 0)), (":8080", ("127.0.0.1", 8080)),
        ("localhost", ("localhost", 0)),
    ])
    def test_bind_parsed_at_parse_time(self, bind, addr):
        args = build_parser().parse_args(["serve", "--role", "rc", "--bind", bind])
        assert args.bind == addr

    @pytest.mark.parametrize("role,flag", [("server", "trm"), ("rc", "rc")])
    def test_serve_without_state_file(self, role, flag, capsys):
        assert main(["serve", "--role", role]) == 2
        assert capsys.readouterr().err == f"error: CliError: serve --role {role} needs --{flag}\n"

    @pytest.mark.parametrize("argv", [["rc-init", "--rc", "never-written.rcdb.json"],
                                      ["attack", "replay"]])
    def test_seed_env_not_an_integer(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("MASKAP_SEED", "abc")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: CliError: MASKAP_SEED='abc' is not an integer\n"

    @pytest.mark.parametrize("command", ["bench", "sizes"])
    def test_removed_reporting_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_server_beyond_the_frame_limit(self, paths, capsys):
        world = build_world(seed=5, n_servers=MAX_SERVERS, n_users=0)
        registry.store_rc(world.rc, paths["rc"])
        code = main(["register-server", "--rc", paths["rc"], "--trm", paths["trm"],
                     "--id", "hosp64", "--pw", "srvpass", "--loc", "goa"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: TooManyServers: ")
        assert len(registry.load_rc(paths["rc"]).servers) == MAX_SERVERS

    @pytest.mark.parametrize("key,value", [("users", 5), ("users", ["x"]), ("servers", [1]),
                                           ("sync_markers", [])])
    def test_wrongly_shaped_rc(self, paths, capsys, key, value):
        enroll(paths)
        with open(paths["rc"]) as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(paths["rc"], "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        code = main(["register-user", "--rc", paths["rc"], "--card", paths["card"],
                     "--id", "bob", "--pw", "pw"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptRecord: ") and key in err
