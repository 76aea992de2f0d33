"""Command-line front end: ring inspection, unit classification, code
construction, duals, distance tables, self-dual inventories, and
verification sweeps.

All output is deterministic: JSON is emitted with sorted keys and no
timestamps, CSV rows follow the documented column orders.  Exit codes:
0 success, 1 validation or usage error, 2 budget exceeded, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, astuple

from .ambient_ring import AmbientParams
from .constacodes import ConstaCode, dual_code, enumerate_codewords, self_dual_codes, sort_words
from .distances import DistanceRow, distance_table
from .errors import BudgetExceededError, GalringError
from .galois_ring import GrElement, RingContext, RingParams, build_ring
from .unit_types import classify_unit, is_chain_ambient
from .verification import SweepConfig, run_default_verification, run_sweep

ENV_BUDGET = "GALRING_BUDGET"
CODE_COLUMNS = ("p", "a", "m", "s", "gamma", "alpha", "i", "cardinality")


def _parse_element(ctx: RingContext, text: str) -> GrElement:
    """Integers in [0, q) for m = 1; comma-separated coefficients c0,c1,...,
    each in [0, q), for m >= 2.  Out-of-range values are rejected, never
    reduced."""
    m, q = ctx.params.m, ctx.q
    if m == 1:
        if "," in text:
            raise ValueError(f"m=1 elements are plain integers, got {text!r}")
        return ctx.from_int(int(text))
    parts = text.split(",")
    if len(parts) != m:
        raise ValueError(f"expected {m} comma-separated coefficients, got {text!r}")
    coeffs = [int(v) for v in parts]
    if not all(0 <= c < q for c in coeffs):
        raise ValueError(f"coefficients must lie in [0, {q}), got {text!r}")
    return ctx.element(coeffs)


def _budget(args) -> int | None:
    """The --budget flag, else GALRING_BUDGET, else None (each oracle's
    default).  Either source must be a positive integer; the flag is
    parsed here, not by argparse, so that both are checked alike."""
    text, source = getattr(args, "budget", None), "--budget"
    if text is None:
        text, source = os.environ.get(ENV_BUDGET), ENV_BUDGET
        if text is None:
            return None
    value = int(text)
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {text}")
    return value


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _write_csv(fh, rows, header=None) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])


def _ring(args) -> RingContext:
    return build_ring(RingParams(args.p, args.a, args.m))


def _ambient(args) -> AmbientParams:
    ctx = _ring(args)
    gamma = _parse_element(ctx, args.gamma)
    return AmbientParams(ctx, args.s, gamma)


def cmd_ring_info(args) -> int:
    ctx = _ring(args)
    params = ctx.params
    out = {
        "p": params.p,
        "a": params.a,
        "m": params.m,
        "h": list(ctx.h),
        "zeta": list(ctx.zeta.coeffs),
        "size": ctx.size,
        "units": ctx.size - ctx.size // params.residue_size,
    }
    if params.residue_size <= 64:
        out["teichmuller"] = [list(t.coeffs) for t in ctx.teich_table]
    _print_json(out)
    return 0


def cmd_classify(args) -> int:
    ctx = _ring(args)
    x = _parse_element(ctx, args.element)
    cls = classify_unit(x)
    out = cls.to_json_dict()
    out["chain"] = is_chain_ambient(x, args.s) if x.is_unit else None
    _print_json(out)
    return 0


def _code_from_args(args) -> ConstaCode:
    return ConstaCode(_ambient(args), args.i)


def _code_row(code: ConstaCode) -> list:
    """The CODE_COLUMNS of one code, with gamma and alpha as integers."""
    d = dict(code.to_json_dict(), gamma=code.gamma.to_int(), alpha=code.alpha.to_int())
    return [d[c] for c in CODE_COLUMNS]


def _emit_code(code: ConstaCode, args) -> int:
    budget = _budget(args)
    words = None
    if args.words:
        ctx = code.ambient.ctx
        found = sort_words(enumerate_codewords(code, budget=budget))
        words = [[GrElement(ctx, c).to_int() for c in w] for w in found]
    if args.format == "csv":
        if words is not None:
            _write_csv(sys.stdout, words)
        else:
            _write_csv(sys.stdout, [_code_row(code)], header=CODE_COLUMNS)
        return 0
    out = code.to_json_dict()
    if words is not None:
        out["words"] = words
    _print_json(out)
    return 0


def cmd_code(args) -> int:
    return _emit_code(_code_from_args(args), args)


def cmd_dual(args) -> int:
    return _emit_code(dual_code(_code_from_args(args)), args)


def cmd_distances(args) -> int:
    budget = _budget(args)
    rows = distance_table(_ambient(args), with_oracle=args.oracle, budget=budget)
    if args.format == "csv":
        _write_csv(sys.stdout, [r.to_row() for r in rows], header=DistanceRow.COLUMNS)
    else:
        _print_json({"rows": [r.to_json_dict() for r in rows]})
    return 0


def cmd_selfdual(args) -> int:
    codes = sorted(self_dual_codes(_ambient(args)), key=lambda c: c.i)
    if args.format == "csv":
        _write_csv(sys.stdout, [_code_row(c) for c in codes], header=CODE_COLUMNS)
    else:
        _print_json({"codes": [c.to_json_dict() for c in codes]})
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.config is None and args.budget is not None:
        raise ValueError("--budget needs --config: the default suite runs at the default caps")
    if args.config is not None:
        with open(args.config) as fh:
            config = SweepConfig.from_json_dict(json.load(fh))
        # the flag beats the config file, which beats the environment
        if args.budget is not None or config.budget is None:
            config.budget = budget
        results = run_sweep(config)
        output, fmt = config.output, config.format
    else:
        results = run_default_verification()
        output, fmt = None, "json"
    if not results:
        raise ValueError("the sweep selects no (ring, gamma) pair")
    for r in results:
        print(r.line())
    if output is not None:
        with open(output, "w") as fh:
            if fmt == "csv":
                _write_csv(fh, map(astuple, results), header=("name", "passed", "detail"))
            else:
                json.dump([asdict(r) for r in results], fh, sort_keys=True, indent=2)
                fh.write("\n")
    return 0 if all(r.passed for r in results) else 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with 1, the validation
    error code; argparse's own 2 is the budget-exceeded code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="galring",
        description="Constacyclic codes of length p^s over Galois rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_flags(sp):
        sp.add_argument("-p", type=int, required=True, help="prime")
        sp.add_argument("-a", type=int, required=True, help="characteristic exponent")
        sp.add_argument("-m", type=int, required=True, help="extension degree")

    def ambient_flags(sp):
        ring_flags(sp)
        sp.add_argument("-s", type=int, required=True, help="length exponent")
        sp.add_argument("--gamma", required=True, help="constacyclic constant")

    def format_flag(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    def budget_flag(sp):
        sp.add_argument("--budget", default=None, help="cap on the elements an oracle scans")

    sp = sub.add_parser("ring-info", help="print ring construction data")
    ring_flags(sp)
    sp.set_defaults(func=cmd_ring_info)

    sp = sub.add_parser("classify", help="classify an element's unit type")
    ring_flags(sp)
    sp.add_argument("-s", type=int, default=1, help="length exponent for the chain verdict")
    sp.add_argument("element", help="ring element")
    sp.set_defaults(func=cmd_classify)

    for name, help_text, func in (
        ("code", "build the code <(x - alpha)^i>", cmd_code),
        ("dual", "build the dual code", cmd_dual),
    ):
        sp = sub.add_parser(name, help=help_text)
        ambient_flags(sp)
        sp.add_argument("-i", type=int, required=True, help="generator exponent")
        sp.add_argument("--words", action="store_true", help="enumerate codewords")
        format_flag(sp)
        budget_flag(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("distances", help="distance table for one constant")
    ambient_flags(sp)
    sp.add_argument("--oracle", action="store_true", help="run the brute-force minimum")
    format_flag(sp)
    budget_flag(sp)
    sp.set_defaults(func=cmd_distances)

    sp = sub.add_parser("selfdual", help="list self-dual codes")
    ambient_flags(sp)
    format_flag(sp)
    sp.set_defaults(func=cmd_selfdual)

    sp = sub.add_parser("verify", help="run formula-vs-oracle verification")
    sp.add_argument("--config", default=None, help="JSON sweep configuration")
    budget_flag(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GalringError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
