"""Operator entry point: check, run, simulate, and script subcommands.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
A flag of ``run`` or ``script`` is the config key of the same name.

``simulate`` turns each ``--gen`` into a field and its ``draw(rng)`` closure.
``script`` decodes its JSON Lines with ``values.load_json_line``, the decoder
log replay uses too, and streams the engine's firing log to stdout as the run
goes: a ``FiringStream`` writes each full chunk of firings, and the last,
partial chunk goes out through ``export_firing_log`` once the run ends.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import urllib.parse
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .clock import VirtualClock
from .config import DEFAULT_CALL_TIMEOUT_MS, RunConfig, apply_config_pairs, read_config_file
from .engine import Engine, ExternalInsert, FiringStream, export_firing_log
from .errors import ConfigError, LiotError, SourceError
from .parser import parse_program
from .values import Value, load_json_line, parse_query_value, value_to_param


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
    from .gateway import AsyncDelivery, GatewayServer, OutboundClient  # only a server needs them
    from .runtime import EngineRuntime

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


@contextmanager
def collector_policy():
    """The cyclic collector's settings while ``run`` or ``script`` runs;
    yields the freeze to call once the program and its inputs are loaded.

    Collections follow the objects that survive, and a loaded command keeps
    most of what it makes: a gen-0 threshold of 10,000 makes them rarer, and
    the freeze keeps full collections off what was loaded (README,
    "Execution model"). The old threshold and freeze count come back after.
    """
    threshold = gc.get_threshold()
    frozen = gc.get_freeze_count()  # a host's own freeze is left as it is
    gc.set_threshold(10000, 10, 10)
    try:
        yield gc.freeze if not frozen else lambda: None
    finally:
        if not frozen:
            gc.unfreeze()
        gc.set_threshold(*threshold)


def cmd_run(args: argparse.Namespace, loaded: Callable[[], None]) -> int:
    runtime = None
    try:
        config = _config(args)
        program = parse_program(Path(args.file).read_text(encoding="utf-8"))
        with serving(program, config) as (runtime, base_url):
            loaded()
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


def parse_gen_spec(text: str) -> tuple[str, Callable[[random.Random], Value]]:
    """``FIELD=constant:V`` | ``FIELD=uniform:MIN:MAX`` | ``FIELD=choice:a,b,c``;
    returns the field and its ``draw(rng)``."""
    if "=" not in text:
        raise ConfigError(f"--gen needs FIELD=SPEC, got {text!r}")
    field, spec = text.split("=", 1)
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        value = parse_query_value(rest)
        return field, lambda rng: value  # draws nothing from the RNG
    if kind == "uniform":
        bounds = rest.split(":")
        if len(bounds) != 2:
            raise ConfigError(f"uniform needs MIN:MAX, got {rest!r}")
        try:
            low, high = float(bounds[0]), float(bounds[1])
        except ValueError:
            raise ConfigError(f"uniform bounds must be numbers, got {rest!r}") from None
        return field, lambda rng: rng.uniform(low, high)
    if kind == "choice":
        options = tuple(parse_query_value(part) for part in rest.split(","))
        return field, lambda rng: options[rng.randrange(len(options))]
    raise ConfigError(f"unknown generator {kind!r}")


def generate_requests(gens: list[tuple[str, Callable[[random.Random], Value]]], count: int,
                      seed: int) -> list[list[tuple[str, str]]]:
    """The full deterministic parameter sequence of ``count`` requests.

    One RNG seeded once; each request draws its fields in --gen order, so the
    value stream is reproducible from the seed alone.
    """
    import random  # only simulate draws values

    rng = random.Random(seed)
    return [[(field, value_to_param(draw(rng))) for field, draw in gens] for _ in range(count)]


def run_simulation(url: str, requests: list[list[tuple[str, str]]],
                   period_ms: int) -> tuple[int, int, int]:
    """Send each request's parameters to ``url`` in order over one keep-alive
    connection, ``period_ms`` apart.

    A connection the server has closed, after an error or while idle, is
    replaced before the next request goes out. A request that fails counts
    as an error and is never sent again, since the server may already have
    applied it.
    """
    import select  # only simulate needs these
    from http.client import HTTPConnection, HTTPException, HTTPSConnection

    target = urllib.parse.urlsplit(url)
    connect = HTTPSConnection if target.scheme == "https" else HTTPConnection
    connection = connect(target.netloc, timeout=DEFAULT_CALL_TIMEOUT_MS / 1000.0)
    sent = ok = err = 0
    try:
        for params in requests:
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
            if period_ms > 0 and sent < len(requests):
                time.sleep(period_ms / 1000.0)
    finally:
        connection.close()
    return sent, ok, err


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        gens = [parse_gen_spec(g) for g in args.gen]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = args.target.rstrip("/")
    if args.relation is not None:
        url = f"{base}/rel/{args.relation}/insert"
    else:
        url = f"{base}/endpoint/{args.endpoint}"
    sent, ok, err = run_simulation(url, generate_requests(gens, args.count, args.seed),
                                   args.period)
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
    fall inside a preceding advance, which moves the clock to ``at + MS``."""
    actions: list[ScriptAction] = []
    last_at = 0  # where the previous action left the clock
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            entry = load_json_line(line)
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
            # one string per relation name, not one decoded copy per insert
            actions.append(_action((at, (sys.intern(spec["rel"]), tuple(spec["v"])), None)))
        elif "advance" in entry:
            delta = entry["advance"]
            if type(delta) is not int or delta < 0:
                raise ConfigError(f"{path}:{line_number}: advance must be a non-negative integer")
            actions.append(_action((at, None, delta)))
            last_at = at + delta
        else:
            raise ConfigError(f"{path}:{line_number}: action needs \"insert\" or \"advance\"")
    return actions


def run_script(program, actions: list[ScriptAction], config: RunConfig,
               loaded: Callable[[], None] = lambda: None,
               firing_log: FiringStream | None = None) -> Engine:
    """Deterministic run under the virtual clock; returns the finished engine
    once every queued ACALL and webhook has been sent. ``loaded`` is called
    once the engine has loaded, before the first action. ``firing_log``, if
    given, takes the firings in place of the engine's list. Only a MODULE, a
    MAP RELATION or a webhook sends HTTP: without one, no gateway is built."""
    outbound = None
    if program.modules or program.mappings or config.webhooks:
        from .gateway import AsyncDelivery, OutboundClient

        outbound = AsyncDelivery(OutboundClient(), config.call_timeout_ms)
    engine = Engine(program, config=config, clock=VirtualClock(0), outbound=outbound)
    if firing_log is not None:
        engine.firing_log = firing_log
    try:
        engine.load()
        loaded()
        for at, insert, advance in actions:
            engine.advance_to(at)
            if insert is not None:
                engine.process_event(ExternalInsert(*insert))
            elif advance is not None:
                engine.advance_to(at + advance)
        engine.close()
    finally:
        if outbound is not None:
            outbound.close()
    return engine


def cmd_script(args: argparse.Namespace, loaded: Callable[[], None]) -> int:
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
    # A config or a log that fails to load does so before the first firing,
    # so nothing reaches stdout.
    firings = FiringStream(sys.stdout.write)
    try:
        run_script(program, actions, config, loaded, firings)
    except (LiotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(export_firing_log(firings.pending))
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
        with collector_policy() as loaded:
            return cmd_run(args, loaded)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "script":
        with collector_policy() as loaded:
            return cmd_script(args, loaded)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
