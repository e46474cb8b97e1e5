"""Command-line entry: `python -m spinlab <subcommand> [flags]` or
`python -m spinlab run config.json [--set key=value ...]`.

Exit codes: 0 success, 2 usage, 3 resource, 4 numeric, 5 acceptance failure.
"""

import argparse
import json
import sys
from functools import partial

from .errors import ArgumentError, ConstraintError, DomainError, NumericError, ResourceError
from .runner import DEFAULTS, parse_mixture, run


def _refuse_constant(where, name):
    """json's parse_constant, bound to where: NaN passes every `minimum` and
    `maximum` of FIELDS, and no config field takes a non-finite number."""
    raise ArgumentError(f"{where}: non-finite number {name} is not allowed")


def _set_path(config, dotted, value):
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        if not isinstance(node, dict):
            break
        node = node.setdefault(k, {})
    if not isinstance(node, dict):
        raise ArgumentError(f"--set {dotted}: {'.'.join(keys[:-1]) or 'the config'} is not an object")
    try:
        node[keys[-1]] = json.loads(value, parse_constant=partial(_refuse_constant, f"--set {dotted}"))
    except json.JSONDecodeError:
        node[keys[-1]] = value


# (config key, flag, options): a subcommand offers the flag when its row of
# DEFAULTS has the key
_FLAGS = (
    ("mixture", "mixture", {"help": "e.g. p4 or 0.5*p2+p4"}),
    ("mixture", "h", {"type": float, "help": "external field strength"}),
    ("n", "n", {"type": int}),
    ("seed", "seed", {"type": int}),
    ("seeds", "seeds", {"type": int, "help": "number of replica seeds (0..k-1)"}),
)


def build_parser():
    parser = argparse.ArgumentParser(prog="spinlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a JSON config file")
    runp.add_argument("config", help="path to the config JSON")
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="override a config field (dotted path; value parsed as JSON)")
    runp.add_argument("--out", default=None)

    for name, row in DEFAULTS.items():
        p = sub.add_parser(name, help=f"direct {name} invocation")
        p.set_defaults(**{flag: None for _, flag, _ in _FLAGS})
        for key, flag, options in _FLAGS:
            if key in row:
                p.add_argument(f"--{flag}", default=None, **options)
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        if name == "optimize":
            p.add_argument("--alg", default="subag")
            p.add_argument("--delta", type=float, default=None)
        if name == "thresholds":
            p.add_argument("--ising", action="store_true")
        if name == "selftest":
            p.add_argument("--criteria", nargs="*", default=None)
    return parser


def config_from_args(args) -> dict:
    if args.command == "run":
        try:
            with open(args.config) as f:
                config = json.load(f, parse_constant=partial(_refuse_constant, f"config {args.config}"))
        except IsADirectoryError:
            raise ArgumentError(f"config {args.config} is a directory, not a JSON file") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArgumentError(f"config {args.config} is not valid JSON: {exc}") from None
    else:
        config = {"subcommand": args.command}
        if args.mixture is not None:
            gammas = parse_mixture(args.mixture).gammas
            config["mixture"] = {"gammas": {str(p): g for p, g in gammas.items()},
                                 "h": args.h if args.h is not None else 0.0}
        elif args.h is not None:
            raise ArgumentError("--h sets the field of a --mixture; give --mixture too")
        if args.n is not None:
            config["n"] = args.n
        if args.seed is not None:
            config["seed"] = args.seed
        if args.seeds is not None:
            # --seeds below 1 gives an empty list, which the schema rejects
            config["seeds"] = list(range(args.seeds))
        if getattr(args, "ising", False):
            config["ising"] = True
        if getattr(args, "criteria", None):
            config["criteria"] = args.criteria
        if args.command == "optimize":
            alg = {"name": args.alg}
            if args.delta is not None:
                alg["delta"] = args.delta
            config["alg"] = alg
    for override in args.set:
        key, _, value = override.partition("=")
        _set_path(config, key, value)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        result = run(config, out_dir=args.out)
    except (ArgumentError, DomainError, ConstraintError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (
        FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError, PermissionError
    ) as exc:  # a path given for the config, --out or a tree file that cannot be used
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    for path in result.artifacts:
        print(f"wrote {path}")
    return result.status


if __name__ == "__main__":
    sys.exit(main())
