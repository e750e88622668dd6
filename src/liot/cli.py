"""Operator entry point: check, run, simulate, and script subcommands.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
A flag of ``run`` or ``script`` is the config key of the same name.
"""

from __future__ import annotations

import argparse
import json
import random
import select
import sys
import time
import urllib.parse
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .clock import VirtualClock
from .config import RunConfig, apply_config_pairs, read_config_file
from .engine import Engine, ExternalInsert, export_firing_log
from .errors import ConfigError, LiotError, SourceError
from .gateway import AsyncDelivery, GatewayServer, OutboundClient
from .parser import parse_program
from .runtime import EngineRuntime
from .values import Value, parse_query_value, value_to_param


def _diag(filename: str, exc: SourceError) -> None:
    print(exc.render(filename), file=sys.stderr)


def cmd_check(path: str) -> int:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    try:
        parse_program(source)
    except SourceError as exc:
        _diag(path, exc)
        return 1
    return 0


# -- run ------------------------------------------------------------------------


def _config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file, if any, then each flag given, as the config key of that name."""
    config = RunConfig()
    if getattr(args, "config", None):
        apply_config_pairs(config, read_config_file(args.config))
    flags = {key: getattr(args, key, None) for key in ("host", "port", "log", "window", "cascade")}
    apply_config_pairs(config, {key: value for key, value in flags.items() if value is not None})
    return config


@contextmanager
def serving(program, config: RunConfig):
    """Serve ``program`` while the block runs; yields (runtime, listener URL).

    Builds delivery, engine, runtime and server in that order, then starts
    the loop (after replaying any log) and the server. Whatever was built
    stops in reverse order, however the block or the start-up ends.
    """
    with ExitStack() as stack:
        outbound = AsyncDelivery(OutboundClient(), config.call_timeout_ms)
        stack.callback(outbound.close)
        runtime = EngineRuntime(Engine(program, config=config, outbound=outbound))
        stack.callback(runtime.shutdown)
        try:
            server = GatewayServer(runtime, host=config.host, port=config.port)
        except OSError as exc:
            raise ConfigError(f"cannot listen on {config.host}:{config.port}: {exc}") from None
        stack.callback(server.stop)
        if config.base_url is None:
            config.base_url = server.base_url
        runtime.start()
        server.start()
        yield runtime, server.base_url


def cmd_run(args: argparse.Namespace) -> int:
    runtime = None
    try:
        config = _config(args)
        program = parse_program(Path(args.file).read_text(encoding="utf-8"))
        with serving(program, config) as (runtime, base_url):
            print(f"listening on {base_url}", file=sys.stderr)
            runtime.stopped.wait()
    except KeyboardInterrupt:
        pass
    except SourceError as exc:
        _diag(args.file, exc)
        return 1
    except (LiotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if runtime is not None and runtime.failure is not None:
        print(f"error: event loop stopped: {runtime.failure}", file=sys.stderr)
        return 1
    return 0


# -- simulate -----------------------------------------------------------------------


@dataclass
class FieldGen:
    field: str
    kind: str  # "constant" | "uniform" | "choice"
    constant: Value = None
    low: float = 0.0
    high: float = 0.0
    options: tuple[Value, ...] = ()

    def draw(self, rng: random.Random) -> Value:
        if self.kind == "constant":
            return self.constant
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high)
        return self.options[rng.randrange(len(self.options))]


def parse_gen_spec(text: str) -> FieldGen:
    """``FIELD=constant:V`` | ``FIELD=uniform:MIN:MAX`` | ``FIELD=choice:a,b,c``."""
    if "=" not in text:
        raise ConfigError(f"--gen needs FIELD=SPEC, got {text!r}")
    field, spec = text.split("=", 1)
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        return FieldGen(field, "constant", constant=parse_query_value(rest))
    if kind == "uniform":
        bounds = rest.split(":")
        if len(bounds) != 2:
            raise ConfigError(f"uniform needs MIN:MAX, got {rest!r}")
        try:
            low, high = float(bounds[0]), float(bounds[1])
        except ValueError:
            raise ConfigError(f"uniform bounds must be numbers, got {rest!r}") from None
        return FieldGen(field, "uniform", low=low, high=high)
    if kind == "choice":
        options = tuple(parse_query_value(part) for part in rest.split(","))
        return FieldGen(field, "choice", options=options)
    raise ConfigError(f"unknown generator {kind!r}")


@dataclass
class SimProfile:
    target: str
    relation: str | None
    endpoint: str | None
    count: int
    period_ms: int
    gens: list[FieldGen]
    seed: int

    def url(self) -> str:
        base = self.target.rstrip("/")
        if self.relation is not None:
            return f"{base}/rel/{self.relation}/insert"
        return f"{base}/endpoint/{self.endpoint}"


def generate_requests(profile: SimProfile) -> list[list[tuple[str, str]]]:
    """The full deterministic parameter sequence for a profile.

    One RNG seeded once; each request draws its fields in --gen order, so the
    value stream is reproducible from the seed alone.
    """
    rng = random.Random(profile.seed)
    requests = []
    for _ in range(profile.count):
        params = [(g.field, value_to_param(g.draw(rng))) for g in profile.gens]
        requests.append(params)
    return requests


def run_simulation(profile: SimProfile, timeout_ms: int = 5000) -> tuple[int, int, int]:
    """Send the profile's requests in order over one keep-alive connection.

    A connection the server has closed, after an error or while idle, is
    replaced before the next request goes out. A request that fails counts
    as an error and is never sent again, since the server may already have
    applied it.
    """
    from http.client import HTTPConnection, HTTPException, HTTPSConnection  # only simulate needs it

    target = urllib.parse.urlsplit(profile.url())
    connect = HTTPSConnection if target.scheme == "https" else HTTPConnection
    connection = connect(target.netloc, timeout=timeout_ms / 1000.0)
    sent = ok = err = 0
    try:
        for params in generate_requests(profile):
            sent += 1
            path = target.path + ("?" + urllib.parse.urlencode(params) if params else "")
            if connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
                connection.close()  # readable while idle: the server closed it
            try:
                connection.request("GET", path)
                with connection.getresponse() as response:
                    response.read()
                if 200 <= response.status < 300:
                    ok += 1
                else:
                    err += 1
            except (OSError, HTTPException):
                connection.close()
                err += 1
            if profile.period_ms > 0 and sent < profile.count:
                time.sleep(profile.period_ms / 1000.0)
    finally:
        connection.close()
    return sent, ok, err


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        gens = [parse_gen_spec(g) for g in args.gen]
        profile = SimProfile(
            target=args.target,
            relation=args.relation,
            endpoint=args.endpoint,
            count=args.count,
            period_ms=args.period,
            gens=gens,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sent, ok, err = run_simulation(profile)
    print(f"sent={sent} ok={ok} err={err}")
    return 0 if err == 0 else 1


# -- script ----------------------------------------------------------------------


class ScriptAction(NamedTuple):
    at: int
    insert: tuple[str, tuple[Value, ...]] | None = None
    advance: int | None = None


# ScriptAction((at, insert, advance)) without the Python-level __new__
_action = partial(tuple.__new__, ScriptAction)


def load_script(path: str | Path) -> list[ScriptAction]:
    """JSON Lines of ``{"at": MS, "insert": {"rel": R, "v": [...]}}`` or
    ``{"at": MS, "advance": MS}``; ``at`` must be non-decreasing and must not
    fall inside a preceding advance, which moves the clock to ``at + MS``.

    Each line is decoded once; ``json.loads`` runs only on a line that is not
    one JSON value alone, to word the error."""
    decode = json.JSONDecoder().raw_decode  # unlike json.loads, tells where the value ends
    actions: list[ScriptAction] = []
    last_at = 0  # where the previous action left the clock
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            entry, end = decode(line)
        except ValueError:  # JSONDecodeError, or an integer past the digit limit
            end = None
        if end != len(line):  # not one JSON value alone: json.loads names the fault
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_number}: invalid JSON: {exc}") from None
        if type(entry) is not dict or "at" not in entry:
            raise ConfigError(f"{path}:{line_number}: action needs an \"at\" time")
        at = entry["at"]
        if type(at) is not int or at < last_at:  # JSON true/false are not times
            raise ConfigError(
                f"{path}:{line_number}: \"at\" must be an integer no earlier than {last_at}, "
                "where the previous action left the clock"
            )
        last_at = at
        if "insert" in entry:
            spec = entry["insert"]
            if (type(spec) is not dict or type(spec.get("rel")) is not str
                    or type(spec.get("v")) is not list):
                raise ConfigError(f"{path}:{line_number}: insert needs a string \"rel\" "
                                  "and an array \"v\" of values")
            actions.append(_action((at, (spec["rel"], tuple(spec["v"])), None)))
        elif "advance" in entry:
            delta = entry["advance"]
            if type(delta) is not int or delta < 0:
                raise ConfigError(f"{path}:{line_number}: advance must be a non-negative integer")
            actions.append(_action((at, None, delta)))
            last_at = at + delta
        else:
            raise ConfigError(f"{path}:{line_number}: action needs \"insert\" or \"advance\"")
    return actions


def run_script(program, actions: list[ScriptAction], config: RunConfig) -> Engine:
    """Deterministic run under the virtual clock; returns the finished engine
    once every queued ACALL and webhook has been sent."""
    outbound = AsyncDelivery(OutboundClient(), config.call_timeout_ms)
    engine = Engine(program, config=config, clock=VirtualClock(0), outbound=outbound)
    try:
        engine.load()
        for at, insert, advance in actions:
            engine.advance_to(at)
            if insert is not None:
                engine.process_event(ExternalInsert(*insert))
            elif advance is not None:
                engine.advance_to(at + advance)
        engine.close()
    finally:
        outbound.close()
    return engine


def cmd_script(args: argparse.Namespace) -> int:
    try:
        source = Path(args.file).read_text(encoding="utf-8")
        program = parse_program(source)
        actions = load_script(args.script)
        config = _config(args)
    except SourceError as exc:
        _diag(args.file, exc)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        engine = run_script(program, actions, config)
    except LiotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(export_firing_log(engine.firing_log))
    return 0


# -- argparse ----------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liot", description="liot language runtime")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a program")
    p_check.add_argument("file")

    p_run = sub.add_parser("run", help="serve a program over HTTP")
    p_run.add_argument("file")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--host")
    p_run.add_argument("--port", help="0 picks a free port")
    p_run.add_argument("--log", help="persistence log path (JSON Lines)")
    p_run.add_argument("--window", help="default window size")
    p_run.add_argument("--cascade", help="max insert cascade depth")

    p_sim = sub.add_parser("simulate", help="send synthetic sensor readings")
    p_sim.add_argument("--target", required=True, help="base URL of a running engine")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--relation", help="insert into this relation")
    group.add_argument("--endpoint", help="call this endpoint")
    p_sim.add_argument("--count", type=int, required=True)
    p_sim.add_argument("--period", type=int, default=0, help="milliseconds between requests")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--gen", action="append", default=[],
                       help="FIELD=constant:V | FIELD=uniform:MIN:MAX | FIELD=choice:a,b,c")

    p_script = sub.add_parser("script", help="run a timed script under the virtual clock")
    p_script.add_argument("file")
    p_script.add_argument("script")
    p_script.add_argument("--log", help="persistence log path")
    p_script.add_argument("--window")
    p_script.add_argument("--cascade")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.file)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "script":
        return cmd_script(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
