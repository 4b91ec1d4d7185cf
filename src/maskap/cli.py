"""Command-line front end over file-backed state.

A command that writes two files writes the TRM or the card first and the RC
last.  A crash between the two writes then leaves the RC as it was, and the
retry repeats the command and overwrites the other file.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from . import attacks, protocol, registry, service
from .core import FieldEncodingError, FieldTooLong
from .protocol import ProtocolError
from .registry import CorruptRecord


class CliError(Exception):
    pass


def _seed(args: argparse.Namespace, default: int | None = None) -> int | None:
    """`--seed`, else the MASKAP_SEED environment variable, else ``default``."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MASKAP_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise CliError(f"MASKAP_SEED={env!r} is not an integer") from None


def _rng(args: argparse.Namespace) -> random.Random:
    seed = _seed(args)
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


def _now() -> int:
    return int(time.time())


def _emit(args: argparse.Namespace, doc: dict, text: str | None = None) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(text if text is not None else json.dumps(doc, indent=2))


def cmd_rc_init(args: argparse.Namespace) -> int:
    rng = _rng(args)
    rc = protocol.RcState(k_rc=rng.randbytes(32))
    registry.store_rc(rc, args.rc)
    _emit(args, {"rc": args.rc}, f"initialized registration center database at {args.rc}")
    return 0


def cmd_register_server(args: argparse.Namespace) -> int:
    rng = _rng(args)
    rc = registry.load_rc(args.rc)
    secrets, req = protocol.server_register_begin(args.id, args.pw, args.loc, rng)
    trm = protocol.rc_register_server(rc, req, srt_j=_now())
    registry.store_trm(trm, args.trm, server_id=args.id, server_loc=args.loc)
    registry.store_rc(rc, args.rc)
    _emit(
        args,
        {"server_id": args.id, "trm": args.trm},
        f"registered server {args.id}; tamper-resistant memory written to {args.trm}",
    )
    return 0


def cmd_register_user(args: argparse.Namespace) -> int:
    rng = _rng(args)
    rc = registry.load_rc(args.rc)
    pending, req = protocol.user_register_begin(args.id, args.pw, rng)
    prov = protocol.rc_register_user(rc, req, rng)
    card = protocol.user_finalize_card(args.id, args.pw, pending.r1, pending.r2, prov)
    registry.store_card(card, args.card)
    registry.store_rc(rc, args.rc)
    _emit(
        args,
        {"user_id": args.id, "card": args.card, "uid": pending.uid_i.hex()},
        f"registered user {args.id}; smart card written to {args.card}",
    )
    return 0


def cmd_authenticate(args: argparse.Namespace) -> int:
    card = registry.load_card(args.card)
    trm, server_id, server_loc = registry.load_trm_with_meta(args.trm)
    if server_id is None or server_loc is None:
        raise CliError("trm file carries no server identity metadata; re-register the server")
    t1 = _now()
    req, ctx = protocol.user_login_begin(args.id, args.pw, card, server_id, t1)
    app = service.ServerApp(trm, server_id, server_loc, delta_t=args.delta_t, vt_duration=args.vt)
    resp, server_key = app.handle(req, _now())
    user_key = protocol.user_handle_response(ctx, resp, t3=_now(), delta_t=args.delta_t)
    agreed = user_key.sk == server_key.sk
    doc = {
        "accepted": agreed,
        "sk_fingerprint": user_key.sk[:8].hex(),
        "valid_until": user_key.vt.expiry,
    }
    _emit(args, doc, f"session key agreed; fingerprint {doc['sk_fingerprint']}")
    return 0 if agreed else 1


def cmd_update_card(args: argparse.Namespace) -> int:
    card = registry.load_card(args.card)
    rc = registry.load_rc(args.rc)
    req, _ctx = protocol.user_update_begin(args.id, args.pw, card, t4=_now())
    list_bytes = service.RcApp(rc, delta_t=args.delta_t).handle(req, _now())
    new_card = protocol.user_apply_server_list(args.id, args.pw, card, list_bytes)
    registry.store_card(new_card, args.card)
    n = len(list_bytes) // protocol.SERVER_ENTRY_LEN
    _emit(args, {"card": args.card, "servers": n}, f"card updated with {n} server entries")
    return 0


def cmd_sync_server(args: argparse.Namespace) -> int:
    rc = registry.load_rc(args.rc)
    trm, server_id, server_loc = registry.load_trm_with_meta(args.trm)
    if server_id is None:
        raise CliError("trm file carries no server identity metadata; re-register the server")
    idb = protocol.encode_field(server_id)
    rec = rc.servers.get(idb)
    if rec is None:
        raise CliError(f"server {server_id} not present in RC database")
    secrets = protocol.ServerSecrets(
        id_j=idb,
        pw_j=protocol.encode_field(args.pw),
        r_s=b"\x00" * 16,
        p_j=trm.p_j,
        loc_j=rec.loc_j,
    )
    new_users = service.RcApp(rc, delta_t=args.delta_t).sync(secrets, trm, _now())
    registry.store_trm(trm, args.trm, server_id=server_id, server_loc=server_loc)
    registry.store_rc(rc, args.rc)
    _emit(
        args,
        {"server_id": server_id, "new_users": new_users},
        f"synced {new_users} new user(s) into {args.trm}",
    )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    seed = _seed(args, default=0)
    if args.name == "all":
        reports = attacks.run_all(seed=seed)
        failures = sum(r.acceptances for r in reports.values())
        for name, rep in reports.items():
            if args.json:
                print(rep.to_json())
            else:
                print(f"{name}: attempts={rep.attempts} acceptances={rep.acceptances}")
        return 0 if failures == 0 else 1
    fn = attacks.ATTACKS.get(args.name)
    if fn is None:
        raise CliError(f"unknown attack {args.name!r}; choose from {', '.join(attacks.ATTACKS)} or 'all'")
    rep = fn(seed=seed)
    print(rep.to_json() if args.json else
          f"{rep.attack_name}: attempts={rep.attempts} acceptances={rep.acceptances}\n"
          + "\n".join(f"  - {n}" for n in rep.notes))
    return 0 if rep.acceptances == 0 else 1


def _bind_address(text: str) -> tuple[str, int]:
    """`--bind host:port`; an empty host is 127.0.0.1 and an empty port 0."""
    host, _, port = text.partition(":")
    port = port or "0"
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"port {port!r} is not a number from 0 to 65535")
    return host or "127.0.0.1", int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    host, port = args.bind
    path_flag = "trm" if args.role == "server" else "rc"
    if getattr(args, path_flag) is None:
        raise CliError(f"serve --role {args.role} needs --{path_flag}")
    if args.role == "server":
        trm, server_id, server_loc = registry.load_trm_with_meta(args.trm)
        if server_id is None or server_loc is None:
            raise CliError("trm file carries no server identity metadata")
        app: service.ServerApp | service.RcApp = service.ServerApp(
            trm, server_id, server_loc, delta_t=args.delta_t, vt_duration=args.vt
        )
    else:
        rc = registry.load_rc(args.rc)
        app = service.RcApp(rc, rc_path=args.rc, delta_t=args.delta_t)
    srv = service.start_server(app, host, port)
    print(f"{args.role} role listening on {srv.server_address[0]}:{srv.server_address[1]}")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maskap")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=None, help="deterministic RNG seed (or MASKAP_SEED)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> argparse.ArgumentParser:
        if "rc" in flags:
            p.add_argument("--rc", required=True, help="RC database path (.rcdb.json)")
        if "card" in flags:
            p.add_argument("--card", required=True, help="smart card path (.card.json)")
        if "trm" in flags:
            p.add_argument("--trm", required=True, help="tamper-resistant memory path (.trm.json)")
        if "window" in flags:
            p.add_argument("--delta-t", type=int, default=5, help="freshness window, seconds")
            p.add_argument("--vt", type=int, default=900, help="session key validity, seconds")
        return p

    p = common(sub.add_parser("rc-init", help="create a fresh RC database"), "rc")
    p.set_defaults(fn=cmd_rc_init)

    p = common(sub.add_parser("register-server", help="enroll a server"), "rc", "trm")
    p.add_argument("--id", required=True)
    p.add_argument("--pw", required=True)
    p.add_argument("--loc", required=True)
    p.set_defaults(fn=cmd_register_server)

    p = common(sub.add_parser("register-user", help="enroll a user and issue a card"), "rc", "card")
    p.add_argument("--id", required=True)
    p.add_argument("--pw", required=True)
    p.set_defaults(fn=cmd_register_user)

    p = common(sub.add_parser("authenticate", help="run one login exchange"), "card", "trm", "window")
    p.add_argument("--id", required=True)
    p.add_argument("--pw", required=True)
    p.set_defaults(fn=cmd_authenticate)

    p = common(sub.add_parser("update-card", help="refresh the card's server list"), "rc", "card", "window")
    p.add_argument("--id", required=True)
    p.add_argument("--pw", required=True)
    p.set_defaults(fn=cmd_update_card)

    p = common(sub.add_parser("sync-server", help="pull newly registered users"), "rc", "trm", "window")
    p.add_argument("--pw", required=True, help="server password")
    p.set_defaults(fn=cmd_sync_server)

    p = sub.add_parser("attack", help="run a scripted attack scenario")
    p.add_argument("name", help="scenario name or 'all'")
    p.set_defaults(fn=cmd_attack)

    p = common(sub.add_parser("serve", help="speak the wire format on a socket"), "window")
    p.add_argument("--role", choices=("rc", "server"), required=True)
    p.add_argument("--bind", type=_bind_address, default="127.0.0.1:0", help="host:port")
    p.add_argument("--rc", help="RC database path (rc role)")
    p.add_argument("--trm", help="tamper-resistant memory path (server role)")
    p.set_defaults(fn=cmd_serve)

    return parser


_parser = functools.cache(build_parser)  # building the tree costs far more than a parse


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProtocolError as exc:
        msg = {"error": exc.kind, "detail": str(exc)}
        print(json.dumps(msg) if args.json else f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 2
    except (CorruptRecord, CliError, OSError, FieldTooLong, FieldEncodingError) as exc:
        kind = type(exc).__name__
        print(
            json.dumps({"error": kind, "detail": str(exc)})
            if args.json
            else f"error: {kind}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
