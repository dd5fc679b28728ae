"""Command-line front end.

Subcommands::

    bound       one bound (level1 / level2 / moment) at one or more ranks
    moment      a centered moment for explicit test functions
    table       recompute a published table and report deviations
    optimize    generator-space search for a better moment bound
    rmt-verify  Monte Carlo check of the moment predictions

Results are emitted as structured records (JSON lines, sorted keys); with
``--format csv`` or when writing records to a file, a CSV mirror is
produced.  Outputs carry no timestamps: identical configuration and seed
give byte-identical output.  A config file of ``key = value`` lines
(keys matching the long flag names) supplies defaults; flags override.
A config file that cannot be read, a line without ``=``, a key that
names no option of any subcommand, a value its option's type cannot
convert and a value outside its option's choices are ``invalid-input``
errors.

``main`` parses each command line once, with one parser that every
in-process caller shares, built on the first call and never mutated.
Only when that parse finds ``--config`` does it build a parser for that
run alone, apply the file's defaults to it and parse again, so a file's
defaults never reach a later call, and a command line that argparse
rejects (or ``--help``) exits before the file is read.  ``build_parser``
builds a fresh parser each time it is called.  They also share the exact
quantities, each computed once per process and kept: one test function
per ``--testfn`` spec string (every slot that repeats a spec holds that
one function), sigma2 and the pair term per spec pair, and R per slot
set.  Each is a function of spec strings alone, so no record depends on
what ran before it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import reference
from .bounds import (
    ParityError,
    UncertifiedBoundError,
    bound_level1,
    bound_level2,
    bound_moment,
    reproduce_table,
)
from .kernels import SymmetryGroup
from .moments import REGIMES, MomentRequest, SupportRegimeError, centered_moment
from .optimize import GeneratorBasis, NoFeasiblePointError, OptimizationProblem, search
from .rmt import EnsembleSpec, verify_moments
from .testfunc import (
    GENERATOR_NAMES,
    GeneratorSpec,
    TestFunction,
    from_spec_string,
    make_from_generator,
    parse_rational,
)

ERROR_CODES = {
    ParityError: "parity-mismatch",
    SupportRegimeError: "support-regime",
    UncertifiedBoundError: "uncertified-bound",
    NoFeasiblePointError: "no-feasible-point",
    ValueError: "invalid-input",
}


class _Repeatable(argparse.Action):
    """A repeatable flag collected into a list.  Unlike argparse's "append",
    the first use on the command line starts a new list in place of the
    default (a config file's value, never mutated), so flags override the
    file; later uses append to that list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest, None)
        if items is self.default:
            setattr(namespace, self.dest, [values])
        else:
            items.append(values)


def _emit(records: list[dict], args) -> None:
    fmt = getattr(args, "format", "records")
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        if fmt == "csv":
            path.write_text(_to_csv(records))
        else:
            path.write_text(_to_jsonl(records))
            path.with_suffix(path.suffix + ".csv").write_text(_to_csv(records))
    else:
        sys.stdout.write(_to_csv(records) if fmt == "csv" else _to_jsonl(records))


def _to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _to_csv(records: list[dict]) -> str:
    if not records:
        return ""
    fields: list[str] = []
    for r in records:
        for k in r:
            if k not in fields:
                fields.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow({k: _csv_value(v) for k, v in r.items()})
    return buf.getvalue()


def _csv_value(v):
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return v


def _ranks(args) -> list[int]:
    if args.ranks:
        return [int(r) for r in args.ranks.split(",")]
    if args.rank is None:
        raise ValueError("need --rank or --ranks")
    return [args.rank]


def _require(args, *names: str) -> None:
    """Presence check deferred past argparse so config files can supply values."""
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


METHODS = "level1 | level2 | moment4 | moment2m:<m>"


def _slot_count(method: str) -> int:
    """Test functions a method takes: 1 for level1, 2 for level2 and moment4, m for moment2m:<m>."""
    if method == "level1":
        return 1
    if method in ("level2", "moment4"):
        return 2
    name, _, m = method.partition(":")
    if name == "moment2m" and m.isdecimal() and int(m) >= 1:
        return int(m)
    raise ValueError(f"unknown --method {method!r} (expected {METHODS})")


def _test_functions(specs: list[str] | None) -> list[TestFunction]:
    """One test function per ``--testfn`` slot."""
    return [from_spec_string(spec) for spec in specs or []]


def _cmd_bound(args) -> int:
    _require(args, "family")
    slots = _slot_count(args.method)
    family = SymmetryGroup.from_string(args.family)
    tfs = _test_functions(args.testfn)
    ranks = _ranks(args)
    if len(tfs) == 1:
        tfs *= slots  # one spec fills every slot
    level = args.method.startswith("level")
    # with no --testfn, a level method bounds the tables' reference column
    if len(tfs) != slots and (tfs or not level):
        raise ValueError(f"{args.method} needs {slots} slot test functions, got {len(tfs)}")
    if args.method == "level1":
        results = bound_level1(tfs[0] if tfs else None, family, ranks)
    elif level:
        results = bound_level2(*(tfs or (None, None)), family, ranks)
    else:
        results = bound_moment(tfs, family, ranks, weight_k=args.weight_k, regime=args.regime)
    _emit([result.record() for result in results], args)
    return 0


def _cmd_moment(args) -> int:
    _require(args, "family", "testfn")
    family = SymmetryGroup.from_string(args.family)
    tfs = _test_functions(args.testfn)
    request = MomentRequest(tuple(tfs), family, weight_k=args.weight_k, regime=args.regime)
    result = centered_moment(request)
    _emit(
        [
            {
                "family": family.value,
                "n": len(tfs),
                "test_functions": [tf.spec_string for tf in tfs],
                "regime": result.regime,
                "value": result.value,
                "matching_sum": result.matching_sum,
                "r_term": result.r_term,
                "sign_applied": result.sign_applied,
            }
        ],
        args,
    )
    return 0


def _cmd_table(args) -> int:
    cells = reproduce_table(args.table)
    _emit([cell.record() for cell in cells], args)
    return 0 if all(cell.within_tolerance for cell in cells) else 1


def _parse_basis(spec: str, budget: float) -> GeneratorBasis | TestFunction:
    """Basis grammar: sinx2:half=<r> | cos:dim=<d>:half=<r> |
    poly:dim=<d>:half=<r> | fixed:<testfn spec>

    A fixed slot is its test function.  ``sinx2`` has no parameters: it
    is the fixed slot ``gen:sinx2:half=<r>``.  A field other than ``dim``
    and ``half``, ``dim`` on ``sinx2``, or a field given twice, is
    refused, not ignored.
    """
    if spec.startswith("fixed:"):
        return from_spec_string(spec[6:])
    parts = spec.split(":")
    fields = {}
    for p in parts[1:]:
        key, _, value = p.partition("=")
        if key in fields:
            raise ValueError(f"basis field {key!r} is repeated in {spec!r}")
        fields[key] = value
    unknown = sorted(set(fields) - {"dim", "half"})
    if unknown:
        raise ValueError(f"unknown basis field {unknown[0]!r} in {spec!r} (expected dim, half)")
    half = parse_rational(fields.get("half", str(budget / 2)))
    kind = {name: kind for kind, name in GENERATOR_NAMES.items()}.get(parts[0])
    if kind == "sin-of-square":
        if "dim" in fields:
            raise ValueError(
                f"basis field 'dim' does not apply to sinx2 in {spec!r} (expected half)"
            )
        return make_from_generator(GeneratorSpec(kind, (), half))
    if kind is None or "dim" not in fields:
        raise ValueError(
            f"cannot parse basis {spec!r} (expected sinx2:half=<r> | "
            "cos:dim=<d>:half=<r> | poly:dim=<d>:half=<r> | fixed:<testfn>)"
        )
    return GeneratorBasis(kind, dimension=int(fields["dim"]), half_support=half)


def _cmd_optimize(args) -> int:
    _require(args, "family", "rank", "basis", "support")
    family = SymmetryGroup.from_string(args.family)
    budget = parse_rational(args.support)
    bases = tuple(_parse_basis(s, budget) for s in args.basis)
    problem = OptimizationProblem(
        family=family,
        rank=args.rank,
        bases=bases,
        support_budget=budget,
        weight_k=args.weight_k,
        regime=args.regime,
    )
    result = search(problem, restarts=args.restarts, seed=args.seed, max_evals=args.max_evals)
    records: list[dict] = [
        {
            "kind": "restart",
            "restart": t.restart,
            "start_value": t.start_value,
            "final_value": t.final_value,
            "evaluations": t.evaluations,
            "converged": t.converged,
        }
        for t in result.trace
    ]
    records.append(
        {
            "kind": "result",
            "family": family.value,
            "rank": args.rank,
            "bound": result.bound,
            "coefficients": [list(c) for c in result.coefficients],
        }
    )
    _emit(records, args)
    return 0


def _cmd_rmt_verify(args) -> int:
    _require(args, "group", "N", "samples", "testfn")
    group = SymmetryGroup.from_string(args.group)
    if len(args.testfn) != 1:
        raise ValueError(f"rmt-verify takes one --testfn, got {len(args.testfn)}")
    tf = from_spec_string(args.testfn[0])
    orders = tuple(int(o) for o in args.orders.split(","))
    spec = EnsembleSpec(group=group, half_dim=args.N, samples=args.samples, seed=args.seed)
    comparisons = verify_moments(spec, tf, orders, workers=args.workers)
    records = []
    failed = False
    for comp in comparisons:
        rec = {
            "group": group.value,
            "N": args.N,
            "samples": args.samples,
            "testfn": tf.spec_string,
        }
        rec.update(comp.record())
        records.append(rec)
        failed = failed or not comp.passed
    _emit(records, args)
    return 1 if failed else 0


def _read_config(path: str) -> dict[str, str]:
    """Flat key = value file mirroring the long flag names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line without '=': {line!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of every subcommand with that option."""
    config = _read_config(path)
    unknown = set(config)
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for sub_parser in action.choices.values():
            defaults = {}
            for sub_action in sub_parser._actions:  # noqa: SLF001
                if sub_action.dest in config:
                    unknown.discard(sub_action.dest)
                    value = config[sub_action.dest]
                    where = f"config file {path!r}: {sub_action.dest.replace('_', '-')} = {value!r}"
                    if sub_action.type is not None:
                        try:
                            value = sub_action.type(value)
                        except ValueError:
                            raise ValueError(
                                f"{where} is not a valid {sub_action.type.__name__}"
                            ) from None
                    elif isinstance(sub_action, _Repeatable):
                        value = [value]
                    if sub_action.choices is not None and value not in sub_action.choices:
                        raise ValueError(f"{where} is not one of {', '.join(sub_action.choices)}")
                    defaults[sub_action.dest] = value
            sub_parser.set_defaults(**defaults)
    if unknown:
        names = ", ".join(sorted(k.replace("_", "-") for k in unknown))
        raise ValueError(f"config file {path!r}: no subcommand has an option {names}")


def build_parser() -> argparse.ArgumentParser:
    """Build a new parser of every subcommand.  ``main`` parses with one
    shared per process, and builds another only for a ``--config`` run."""
    parser = argparse.ArgumentParser(
        prog="momentbounds",
        description="Vanishing-order bounds from density expectations and centered moments",
    )
    parser.add_argument("--config", help="key=value defaults file; flags override")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "records"), default="records")

    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common], help="compute an upper bound")
    p_bound.add_argument("--family")
    p_bound.add_argument("--rank", type=int)
    p_bound.add_argument("--ranks", help="comma-separated ranks")
    p_bound.add_argument(
        "--method",
        default="moment4",
        help=METHODS,
    )
    p_bound.add_argument("--testfn", action=_Repeatable, help="test function spec (repeatable)")
    p_bound.add_argument("--weight-k", type=int, default=2)
    p_bound.add_argument("--regime", default="auto", choices=REGIMES)
    p_bound.set_defaults(func=_cmd_bound)

    p_moment = sub.add_parser("moment", parents=[common], help="compute a centered moment")
    p_moment.add_argument("--family")
    p_moment.add_argument("--testfn", action=_Repeatable)
    p_moment.add_argument("--weight-k", type=int, default=2)
    p_moment.add_argument("--regime", default="auto", choices=REGIMES)
    p_moment.set_defaults(func=_cmd_moment)

    p_table = sub.add_parser("table", parents=[common], help="reproduce a published table")
    p_table.add_argument("table", choices=reference.TABLE_NAMES)
    p_table.set_defaults(func=_cmd_table)

    p_opt = sub.add_parser("optimize", parents=[common], help="search generator space")
    p_opt.add_argument("--family")
    p_opt.add_argument("--rank", type=int)
    p_opt.add_argument(
        "--basis",
        action=_Repeatable,
        help="per-slot basis: sinx2:half=<r> | cos:dim=<d>:half=<r> | "
        "poly:dim=<d>:half=<r> | fixed:<testfn>",
    )
    p_opt.add_argument("--support", help="support budget for every slot")
    p_opt.add_argument("--weight-k", type=int, default=2)
    p_opt.add_argument("--regime", default="auto", choices=REGIMES)
    p_opt.add_argument("--restarts", type=int, default=16)
    p_opt.add_argument("--max-evals", type=int, default=2000)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=_cmd_optimize)

    p_rmt = sub.add_parser("rmt-verify", parents=[common], help="Monte Carlo verification")
    p_rmt.add_argument("--group")
    p_rmt.add_argument("--N", type=int, help="half-dimension")
    p_rmt.add_argument("--samples", type=int)
    p_rmt.add_argument("--testfn", action=_Repeatable)
    p_rmt.add_argument("--orders", default="2,4")
    p_rmt.add_argument("--seed", type=int, default=0)
    p_rmt.add_argument("--workers", type=int, default=1)
    p_rmt.set_defaults(func=_cmd_rmt_verify)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process and shared by every ``main``
    call.  Parsing does not change a parser and nothing else may: a config
    run parses again with a parser of its own."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            parser = build_parser()  # set_defaults must not reach later calls
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to machine-readable error records
        code = "internal-error"
        for exc_type, name in ERROR_CODES.items():
            if isinstance(exc, exc_type):
                code = name
                break
        sys.stderr.write(json.dumps({"error": code, "message": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
