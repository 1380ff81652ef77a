"""Command-line front end.

    rydpacket list
    rydpacket describe fig2_dark_packet
    rydpacket run fig2_dark_packet --trace fig2.csv
    rydpacket run config.yaml another.yaml --jobs 2
    rydpacket compile unitary.json -o schedule.json
    rydpacket verify schedule.json unitary.json

Exit codes: 0 when every check passed, 1 when a check or fidelity bound
failed (or a simulation blew up), 2 when the config or command line is
invalid.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import yaml

from .gates import compile_unitary, process_fidelity, schedule_from_json, schedule_to_json
from .manifold import SPECTRUM_MODES, ManifoldSpec
from .pulse import check_input_fwhm
from .scenarios import (
    REGISTRY,
    ConfigError,
    ScenarioError,
    ScenarioResult,
    describe,
    list_scenarios,
    load_unitary_file,
    parse_quantity,
    read_text,
    run_scenario,
)


class _UniqueKeys:
    """Constructor mixin of the config loader: a key appears once per mapping.

    YAML requires unique keys, but PyYAML keeps the last value of a
    repeated one, which would silently run a config other than the one
    the file seems to show.
    Merge keys (<<) may still be overridden by explicit ones.
    """

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                try:
                    repeated = key in seen
                except TypeError:       # unhashable: the base constructor rejects it
                    continue
                if repeated:
                    raise ConfigError(f"duplicate key {key!r} on line "
                                      f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


# libyaml's scanner and parser, PyYAML's own where it was built without
# libyaml; the constructor is PyYAML's SafeConstructor either way
class _ConfigLoader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Nothing changes it after it is built; each parse_args call returns a
    fresh namespace.
    """
    p = argparse.ArgumentParser(
        prog="rydpacket",
        description="orbital wave-packet qudit simulations and pulse compilation",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run scenarios by name or YAML config path")
    run.add_argument("sources", nargs="+", metavar="NAME|CONFIG.yaml")
    run.add_argument("--trace", metavar="PATH",
                     help="write the trace CSV (single source only)")
    run.add_argument("--artifacts", metavar="DIR",
                     help="write produced artifacts (schedules, tables) here")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run independent sources in N parallel processes")

    sub.add_parser("list", help="list registered scenarios")

    desc = sub.add_parser("describe", help="show a scenario's defaults")
    desc.add_argument("name")

    comp = sub.add_parser("compile", help="compile a unitary (JSON matrix) to pulses")
    comp.add_argument("unitary_file")
    comp.add_argument("-o", "--output", metavar="PATH",
                      help="write the schedule JSON here instead of stdout")
    comp.add_argument("--nbar", type=int, default=180)
    comp.add_argument("--fwhm", metavar="QUANTITY",
                      help="pulse FWHM, e.g. '9 fs' or a number in au")

    ver = sub.add_parser("verify", help="simulate a schedule against a unitary")
    ver.add_argument("schedule_file")
    ver.add_argument("unitary_file")
    ver.add_argument("--spectrum", choices=SPECTRUM_MODES, default="exact")
    ver.add_argument("--pulses", choices=("full", "ideal"), default="full")
    ver.add_argument("--min-fidelity", type=float, default=0.9)
    return p


def _resolve_source(source: str):
    if source in REGISTRY:
        return source
    if os.path.exists(source):
        text = read_text(source)
        try:
            cfg = yaml.load(text, Loader=_ConfigLoader)
        except yaml.YAMLError as e:
            raise ConfigError(f"{source}: not valid YAML ({e})") from None
        except ConfigError as e:
            raise ConfigError(f"{source}: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"{source}: config must be a mapping")
        return cfg
    raise ConfigError(
        f"{source!r} is neither a registered scenario nor a config file; "
        f"scenarios: {', '.join(REGISTRY)}"
    )


def _run_source(source: str) -> ScenarioResult:
    return run_scenario(_resolve_source(source))


def _cmd_run(args) -> int:
    if args.trace and len(args.sources) > 1:
        raise ConfigError("--trace works with a single source")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if args.jobs > 1 and len(args.sources) > 1:
        import concurrent.futures   # only here: a plain run need not load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_source, args.sources))
    else:
        results = [_run_source(s) for s in args.sources]
    for res in results:
        sys.stdout.write(res.report())
    if args.trace:
        res = results[0]
        if res.trace is None:
            raise ConfigError(f"{res.name} produced no trace")
        res.trace.to_csv(args.trace)
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for res in results:
            for fname, text in res.artifacts.items():
                with open(os.path.join(args.artifacts, fname), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
    return 0 if all(r.passed for r in results) else 1


def _cmd_compile(args) -> int:
    U = load_unitary_file(args.unitary_file)
    try:
        spec = ManifoldSpec(nbar=args.nbar, d=U.shape[0])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    fwhm = None
    if args.fwhm is not None:
        fwhm = parse_quantity(args.fwhm, "--fwhm", spec)
        try:
            check_input_fwhm(spec, fwhm)
        except ValueError as e:
            raise ConfigError(f"--fwhm: {e}") from None
    try:
        schedule = compile_unitary(U, spec, pulse_fwhm=fwhm)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    text = schedule_to_json(schedule)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"schedule: {schedule.manifold_pulse_count()} pulses, "
              f"duration {schedule.duration()!r} au -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 <= args.min_fidelity <= 1.0:
        raise ConfigError(f"--min-fidelity must be in [0, 1], got {args.min_fidelity!r}")
    text = read_text(args.schedule_file)
    try:
        schedule = schedule_from_json(text)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{args.schedule_file}: {e}") from None
    U = load_unitary_file(args.unitary_file)
    try:
        fid = process_fidelity(schedule, U, mode=args.spectrum, pulses=args.pulses)
    except ValueError as e:
        raise ConfigError(f"{args.unitary_file}: {e}") from None
    print(f"process_fidelity = {fid!r}")
    print(f"threshold = {args.min_fidelity!r}")
    ok = fid >= args.min_fidelity
    print(f"{'PASS' if ok else 'FAIL'} verify ({args.pulses} pulses, "
          f"{args.spectrum} spectrum)")
    return 0 if ok else 1


def _dispatch(args) -> int:
    if args.verb == "run":
        return _cmd_run(args)
    if args.verb == "list":
        for name in list_scenarios():
            print(name)
        return 0
    if args.verb == "describe":
        sys.stdout.write(describe(args.name))
        return 0
    if args.verb == "compile":
        return _cmd_compile(args)
    return _cmd_verify(args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ScenarioError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
