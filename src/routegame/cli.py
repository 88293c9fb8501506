"""Command-line front end.

Commands: validate, equilibrate, enumerate, poa, braess {classic|priced|pair},
price-curves. Exit codes: 0 success, 1 domain-level failure (invariant
violations, cap exceeded, non-convergence, bound violation), 2 usage/parse/I/O
error. Every scenario file is checked by `validate_instance`, and a command
exits 1 with its first violation. Each command accepts only the flags it reads,
all checked before anything is written to stdout. A call whose argv names a
command (and under `braess` a variant) parses with that one parser alone; any
other call, or one that leaves words over, parses with the whole tree of
parsers. The cyclic garbage collector is paused for the whole call (see
`main`). All output is deterministic for fixed flags and seed. A command
imports the modules it runs when it runs, so that `validate` loads only this
module, `model` and `pricing`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import math
import random
import shutil
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .model import (
    DEFAULT_EPS_IMPROVE,
    DEFAULT_MAX_MOVES,
    DEFAULT_PROFILE_CAP,
    GameInstance,
    InvalidInstanceError,
    json_text,
    NoEquilibriumError,
    NotConvergedError,
    PathEnumerationError,
    ProfileCapError,
    parse_scenario,
    prepare,
    serialize_scenario,
    validate_instance,
)
from .pricing import PRICE_FAMILIES, PriceSpec, eval_F, eval_u

if TYPE_CHECKING:
    from . import engine, oracle

FORMATS = ("table", "json", "csv")


def _fmt_float(v: float) -> str:
    return format(v, ".9g")


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    """(key, value) per leaf, a key being the dict keys on its way joined by "."."""
    items: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            items.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        items.append((prefix[:-1], " ".join(str(x) for x in obj)))
    else:
        items.append((prefix[:-1], obj))
    return items


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json_text(report) + "\n")
        return
    rows = _flatten(report)
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([
            [k for k, _ in rows],
            [_fmt_float(v) if isinstance(v, float) else str(v) for _, v in rows],
        ])
        return
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        sys.stdout.write(f"{k.ljust(width)}  {v}\n")


def _read_scenario(path: str) -> GameInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _prepared(path: str) -> GameInstance:
    """A scenario file's instance with its strategy sets; raises
    InvalidInstanceError with the first violation `validate` would list."""
    instance = _read_scenario(path)
    violations = validate_instance(instance).violations
    if violations:
        raise InvalidInstanceError(violations[0])
    return prepare(instance)


def _profile_report(instance: GameInstance, profile: engine.StrategyProfile) -> dict:
    """Each commodity's chosen path as its edge ids, the one place the package
    spells a path out in ids: once per path object, so that players on one
    path share one tuple, which `json_text` writes once."""
    ids = [e.id for e in instance.edges]
    named: dict[int, tuple[str, ...]] = {}  # by id() of a path its set holds
    report = {}
    for c, plist, j in zip(instance.commodities, instance.paths, profile.choice):
        path = plist[j]
        report[c.id] = named.get(id(path)) or named.setdefault(
            id(path), tuple(map(ids.__getitem__, path))
        )
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args: argparse.Namespace) -> int:
    instance = _read_scenario(args.scenario)
    report = validate_instance(instance)
    _emit(
        {
            "scenario": args.scenario,
            "valid": report.ok,
            "violations": list(report.violations),
        },
        args.format,
    )
    return 0 if report.ok else 1


def cmd_equilibrate(args: argparse.Namespace) -> int:
    from . import engine

    instance = _prepared(args.scenario)
    if args.seed is not None:
        rng = random.Random(args.seed)
        choice = tuple(map(rng.randrange, map(len, instance.paths)))
    else:
        choice = (0,) * len(instance.commodities)
    result = engine.run_best_response_dynamics(
        instance,
        engine.StrategyProfile(choice),
        engine.DynamicsConfig(max_moves=args.max_moves, eps_improve=args.epsilon),
    )
    _emit(
        {
            "converged": result.converged,
            "moves": len(result.moves),
            "final_profile": _profile_report(instance, result.final),
            "player_unit_costs": {
                c.id: cost
                for c, cost in zip(instance.commodities, result.costs.unit_costs)
            },
            "social_cost": result.costs.social_cost,
            "potential": result.potential,
        },
        args.format,
    )
    return 0 if result.converged else 1


def _poa_summary(report: oracle.PoAReport) -> dict:
    return {
        "equilibrium_count": report.equilibrium_count,
        "optimal_social_cost": report.optimal_cost,
        "worst_equilibrium_social_cost": report.worst_equilibrium_cost,
        "poa": report.poa,
        "bound": report.bound,
        "within_bound": report.within_bound,
    }


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import oracle

    instance = _prepared(args.scenario)
    equilibria, report = oracle.equilibria_and_poa(
        instance, cap=args.cap, eps_improve=args.epsilon
    )
    _emit(
        {
            "equilibria": [list(p.choice) for p, _ in equilibria],
            "equilibrium_social_costs": [cost for _, cost in equilibria],
            **_poa_summary(report),
        },
        args.format,
    )
    return 0 if report.within_bound else 1


def cmd_poa(args: argparse.Namespace) -> int:
    from . import oracle

    instance = _prepared(args.scenario)
    report = oracle.price_of_anarchy(instance, cap=args.cap, eps_improve=args.epsilon)
    _emit(_poa_summary(report), args.format)
    return 0 if report.within_bound else 1


def _price_spec(fn: str, beta: float) -> PriceSpec:
    """The catalog spec of a family named on the command line; raises
    ValueError on an unknown family or a bad --beta."""
    if fn != "saturating":
        return PriceSpec(fn)
    try:
        return PriceSpec(fn, {"beta": beta})
    except ValueError as exc:
        raise ValueError(f"--beta {beta}: {exc}") from None


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def cmd_braess(args: argparse.Namespace) -> int:
    from . import braess

    # an oracle run refuses a diamond over the cap before building it, unless
    # its scenarios are to be written first; dynamics scan nothing
    emit = getattr(args, "emit_scenario", None)
    cap = args.cap if args.method == "oracle" and not emit else None
    if args.variant == "classic":
        before, after = braess.build_classic_braess(args.n, cap=cap)
    elif args.variant == "priced":
        spec = _price_spec(args.price, args.beta)
        before, after = braess.build_priced_braess(
            args.n, spec, args.c1, args.c2, cap=cap
        )
    else:  # pair
        before = _prepared(args.before)
        after = _prepared(args.after)

    if emit:
        for role, instance in (("before", before), ("after", after)):
            with open(f"{args.emit_scenario}-{role}.json", "w", encoding="utf-8") as fh:
                fh.write(serialize_scenario(instance))

    report = braess.edge_addition_experiment(
        before,
        after,
        method=args.method,
        cap=args.cap,
        eps_improve=args.epsilon,
        max_moves=args.max_moves,
    )
    out = {
        "n_players": report.n_players,
        "before_cost": report.before_cost,
        "after_cost": report.after_cost,
        "rho": report.rho,
    }
    # the closed form of the worst equilibrium of the diamond built here: 4/3
    # unpriced, rho(u(1/n)) priced; the dynamics need not reach that
    # equilibrium, so only the oracle's report prints it
    oracle = args.method == "oracle"
    if args.variant == "classic" and oracle:
        out["formula_rho"] = braess.rho_formula(0.0, 1.0, 0.0)
    elif args.variant == "priced":
        if oracle:
            u = eval_u(spec, 1.0 / args.n)
            out["formula_rho"] = braess.rho_formula(u, args.c1, args.c2)
        out["price_family"] = spec.fn
    _emit(out, args.format)
    return 0


def cmd_price_curves(args: argparse.Namespace) -> int:
    families = [f.strip() for f in args.functions.split(",") if f.strip()]
    for fam in families:
        if fam not in PRICE_FAMILIES:
            return _usage_error(f"unknown price family {fam!r}")
    if args.samples < 2:
        return _usage_error("--samples must be at least 2")
    specs = {fam: _price_spec(fam, args.beta) for fam in families}
    top = args.x_max * args.samples / args.samples  # the last and largest sample
    if not (args.x_max > 0 and math.isfinite(top)):
        return _usage_error("--x-max must be positive and --x-max * --samples finite")
    for fam, spec in specs.items():
        if top > spec.x_max:
            return _usage_error(
                f"--x-max {args.x_max}: sample {top} is outside the domain of"
                f" {fam!r} (at most {spec.x_max})"
            )
    header = ["x"]
    for fam in families:
        header += [f"{fam}_F", f"{fam}_u"]
    header.append("y_eq_x")
    sys.stdout.write(",".join(header) + "\n")
    for i in range(args.samples):
        x = args.x_max * (i + 1) / args.samples
        row = [_fmt_float(x)]
        for fam in families:
            row += [_fmt_float(eval_F(specs[fam], x)), _fmt_float(eval_u(specs[fam], x))]
        row.append(_fmt_float(x))
        sys.stdout.write(",".join(row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


_FLAGS = {
    "--format": dict(choices=FORMATS, default="table"),
    "--epsilon": dict(type=float, default=DEFAULT_EPS_IMPROVE),
    "--max-moves": dict(type=int, default=DEFAULT_MAX_MOVES),
    "--cap": dict(type=int, default=DEFAULT_PROFILE_CAP),
}


def _flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _fill_scenario(*flags: str, func, seed: bool = False):
    """Fill for a command that reads one scenario file."""

    def fill(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        if seed:
            p.add_argument(
                "--seed", type=int, default=None, help="random initial profile"
            )
        _flags(p, "--format", *flags)
        p.set_defaults(func=func)

    return fill


def _fill_diamond(priced: bool):
    """Fill for `braess classic` or `braess priced`, which build the diamond."""

    def fill(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="even number of players")
        if priced:
            p.add_argument("--price", choices=PRICE_FAMILIES, required=True)
            p.add_argument("--beta", type=float, default=1.0)
            p.add_argument("--c1", type=float, default=0.5)
            p.add_argument("--c2", type=float, default=0.5)
        p.add_argument("--method", choices=("oracle", "dynamics"), default="oracle")
        p.add_argument("--emit-scenario", metavar="PREFIX")
        _flags(p, "--format", "--epsilon", "--max-moves", "--cap")
        p.set_defaults(func=cmd_braess)

    return fill


def _fill_pair(p: argparse.ArgumentParser) -> None:
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--method", choices=("oracle", "dynamics"), default="oracle")
    _flags(p, "--format", "--epsilon", "--max-moves", "--cap")
    p.set_defaults(func=cmd_braess)


def _fill_price_curves(p: argparse.ArgumentParser) -> None:
    p.add_argument("--functions", default=",".join(PRICE_FAMILIES))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=cmd_price_curves)


def _fill_braess(p: argparse.ArgumentParser) -> None:
    _subcommands(p, "variant", _VARIANTS)


# name -> (help line or None, fill(parser))
_VARIANTS = {
    "classic": (None, _fill_diamond(priced=False)),
    "priced": (None, _fill_diamond(priced=True)),
    "pair": (None, _fill_pair),
}
_COMMANDS = {
    "validate": (
        "check a scenario file against all invariants",
        _fill_scenario(func=cmd_validate),
    ),
    "equilibrate": (
        "run best-response dynamics",
        _fill_scenario("--epsilon", "--max-moves", func=cmd_equilibrate, seed=True),
    ),
    "enumerate": (
        "list all pure equilibria exhaustively",
        _fill_scenario("--epsilon", "--cap", func=cmd_enumerate),
    ),
    "poa": (
        "exhaustive Price of Anarchy report",
        _fill_scenario("--epsilon", "--cap", func=cmd_poa),
    ),
    "braess": ("edge-addition experiments", _fill_braess),
    "price-curves": ("emit CSV samples of the price catalog", _fill_price_curves),
}


def _subcommands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
    """Add to `parser` a filled subparser for every name in `table`."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_line, fill) in table.items():
        kwargs = {} if help_line is None else {"help": help_line}
        fill(sub.add_parser(name, formatter_class=parser.formatter_class, **kwargs))


def _formatter():
    """The stock help formatter at the width it would read. The stock one
    reads the terminal width each time it is made, and argparse makes one per
    argument."""
    return functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser, every command's and, under
    `braess`, every variant's, 10 parsers in all."""
    parser = argparse.ArgumentParser(
        prog="routegame",
        description="Atomic selfish routing with bulk-discount edge pricing.",
        formatter_class=_formatter(),
    )
    _subcommands(parser, "command", _COMMANDS)
    return parser


def _parse_leaf(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """argv parsed by the one parser its leading words name, a command other
    than `braess` or `braess` and a variant, or None when they name none or
    that parser leaves words over. The whole tree would hand the same words
    to the same parser, whose prog is the words that name it, and keep its
    namespace with the names set."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return None
    names = [command]
    fill = _COMMANDS[command][1]
    if fill is _fill_braess:
        variant = argv[1] if len(argv) > 1 else None
        if variant not in _VARIANTS:
            return None
        names.append(variant)
        fill = _VARIANTS[variant][1]
    parser = argparse.ArgumentParser(
        prog=" ".join(["routegame", *names]), formatter_class=_formatter()
    )
    fill(parser)
    args, extras = parser.parse_known_args(argv[len(names):])
    if extras:
        return None
    args.command = command
    if len(names) > 1:
        args.variant = names[1]
    return args


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv with the parser its leading words name alone, or else with
    the whole tree, so that the top-level usage and its "unrecognized
    arguments" error are argparse's own."""
    args = _parse_leaf(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command argv names, with the cyclic collector paused.

    A command makes no reference cycles of its own; argparse does (every
    action points at its group, every formatter at its root section), some
    tens of objects per parser. A collection inside a call would only walk
    live objects: a young one promotes the instance being solved, and once
    enough is promoted a full collection walks the caller's whole heap, some
    5 ms in a process that runs many calls. Paused, nothing is promoted, the
    parsers are still young when they die, and the caller's next young
    collection frees them. The collector's prior state is restored on every
    exit."""
    argv = sys.argv[1:] if argv is None else argv
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(_parse_args(argv))
    finally:
        if collecting:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    if getattr(args, "max_moves", 0) < 0:
        return _usage_error("--max-moves must be nonnegative")
    if not math.isfinite(getattr(args, "epsilon", 0.0)):
        return _usage_error("--epsilon must be finite")
    if getattr(args, "cap", 1) < 1:
        return _usage_error("--cap must be at least 1")
    try:
        return args.func(args)
    except (
        PathEnumerationError,
        InvalidInstanceError,
        ProfileCapError,
        NoEquilibriumError,
        NotConvergedError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
