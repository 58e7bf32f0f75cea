"""Command-line front end.

Every subcommand prints a JSON document embedding its own run
configuration and the tool version; re-running an embedded configuration
reproduces the output byte for byte except for the isolated volatile keys
``timestamp`` and ``elapsed_s``.  All numbers are exact rational strings
"p/q" (counts are plain integer strings).

Exit codes: 0 success (or counterexample found when that was the goal),
1 unexpected violation / counterexample not found, 2 a ``UsageError`` or
an unreadable file, 3 a ``PreconditionError`` (see ``errors``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import HomdomError, MalformedInput, PreconditionError, UsageError
from .graphs import parse_graph, parse_graph_spec, subset_label
from .homs import average_degree, walk_count
from .polytope import build_polytope, dump_polytope
from .hde import certify_upper, compute_hde, psi_form
from .checks import (
    Scope,
    _decimal,
    _rat,
    chain_exponents,
    check_blakley_roy,
    check_hde_definition,
    find_counterexample,
    path_form,
    prove_path_identity,
    sweep,
)

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"not a rational number: {text!r}") from exc


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(config: dict, result: dict, started: float) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(time.perf_counter() - started, 6),
        "version": __version__,
        "config": config,
        "result": result,
    }


def _witness_p(point) -> dict:
    return {
        subset_label(mask): _rat(point[mask]) for mask in range(1 << point.ground_size)
    }


# -- subcommands ----------------------------------------------------------


def cmd_hde(args) -> int:
    started = time.perf_counter()
    f1 = parse_graph_spec(args.f1)
    f2 = parse_graph_spec(args.f2)
    result_obj = compute_hde(f1, f2)
    config = {"subcommand": "hde", "f1": args.f1, "f2": args.f2}
    result = {
        "f1": args.f1,
        "f2": args.f2,
        "hde": _rat(result_obj.value),
        "lp": {
            "vars": result_obj.lp_vars,
            "constraints": result_obj.lp_constraints,
            "pivots": result_obj.lp_pivots,
        },
        "witness_p": _witness_p(result_obj.point),
        "active_homs": [
            {
                "component_vertices": comp.n,
                "multiplicity": mult,
                "maps": [list(h.map) for h in homs],
            }
            for comp, mult, homs in result_obj.active
        ],
    }
    _emit(_document(config, result, started), args.out)
    return 0


def cmd_walks(args) -> int:
    started = time.perf_counter()
    try:
        with open(args.graph, "r", encoding="utf-8", newline="") as fh:
            G = parse_graph(fh.read())
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{args.graph} is not UTF-8 text: {exc.reason}") from None
    config = {"subcommand": "walks", "graph": args.graph, "k": args.k}
    d = average_degree(G)  # refuses n = 0 before the division below
    walks = walk_count(G, args.k)
    result = {
        "n": G.n,
        "e": G.edge_count,
        "d": _rat(d),
        "walks": _decimal(walks),
        "w_k": _rat(Fraction(walks, G.n)),
    }
    _emit(_document(config, result, started), args.out)
    return 0


def _verify_scope(args) -> Scope:
    if args.exhaustive_n is not None:
        return Scope.exhaustive_upto(args.exhaustive_n)
    if args.samples is not None:
        if args.n is None:
            raise MalformedInput("--samples needs --n")
        return Scope.random(
            args.samples, args.n, _parse_fraction(args.edge_prob), args.seed
        )
    raise MalformedInput("give either --exhaustive-n or --samples/--n")


# the options each verify mode reads, in the order --mode lists the modes;
# "scope" stands for the options of the branch that ``_verify_scope`` takes
VERIFY_OPTIONS = {
    "blakley-roy": ("k", "scope"),
    "walk-inequality": ("t", "k", "scope"),
    "density-form": ("t", "k", "scope"),
    "counterexample": ("t", "k", "scope"),
    "lemma-identity": ("t",),
    "chain": ("t", "k"),
    "hde-definition": ("f1", "f2", "c", "scope"),
}


def cmd_verify(args) -> int:
    started = time.perf_counter()
    mode = args.mode
    config = {"subcommand": "verify", "mode": mode}
    if args.exhaustive_n is not None:
        scope = ("exhaustive_n",)
    else:
        scope = ("samples", "n", "edge_prob", "seed")
    for key in VERIFY_OPTIONS[mode]:
        for name in scope if key == "scope" else (key,):
            if getattr(args, name) is not None:
                config[name.replace("_", "-")] = getattr(args, name)

    if mode == "chain":
        if args.t is None or args.k is None:
            raise MalformedInput("chain mode needs --t and --k")
        product = chain_exponents(args.t, args.k)
        result = {"product": _rat(product), "verdict": "holds"}
        _emit(_document(config, result, started), args.out)
        return 0

    if mode == "lemma-identity":
        if args.t is None:
            raise MalformedInput("lemma-identity mode needs --t")
        # p(V) - sum(edges) + sum(inner) is 0 on every polytope member
        proved = prove_path_identity(args.t)
        result = {
            "residual": "0/1" if proved else None,
            "verdict": "holds" if proved else "violated",
        }
        _emit(_document(config, result, started), args.out)
        return 0 if proved else 1

    if mode == "hde-definition":
        if args.f1 is None or args.f2 is None or args.c is None:
            raise MalformedInput("hde-definition mode needs --f1, --f2, --c")
        report = check_hde_definition(
            parse_graph_spec(args.f1),
            parse_graph_spec(args.f2),
            _parse_fraction(args.c),
            _verify_scope(args),
        )
        _emit(_document(config, report.to_json(), started), args.out)
        return 0 if report.verdict == "holds" else 1

    if mode == "counterexample":
        if args.t is None or args.k is None:
            raise MalformedInput("counterexample mode needs --t and --k")
        report = find_counterexample(args.t, args.k, _verify_scope(args))
        _emit(_document(config, report.to_json(), started), args.out)
        return 0 if report.verdict == "counterexample-found" else 1

    if mode == "blakley-roy":
        if args.k is None:
            raise MalformedInput("blakley-roy mode needs --k")
        # w_1 = d, so Blakley-Roy is the walk inequality at t = 1; the
        # sweep's witness is its first graph with the smallest w_k - d^k
        report = sweep(1, args.k, _verify_scope(args))
        violations = report.params["violations"]
        result = {
            "checked": report.params["checked"],
            "violations": violations,
            "verdict": report.verdict,
        }
        if violations:
            worst = parse_graph(report.witnesses[0]["graph"])
            result["witness"] = check_blakley_roy(worst, args.k).to_json()
        _emit(_document(config, result, started), args.out)
        return 0 if violations == 0 else 1

    # t(P_j;G) = w_j / n^j, so the density form is the walk inequality
    # divided through by n^(tk) and prints the same sweeps
    if mode in ("walk-inequality", "density-form"):
        if args.t is None or args.k is None:
            raise MalformedInput(f"{mode} mode needs --t and --k")
        # every scope is built, and so refused if too large, before any sweep
        if args.exhaustive_n is not None:
            scopes = [Scope.exhaustive(n) for n in range(1, args.exhaustive_n + 1)]
        else:
            scopes = [_verify_scope(args)]
        reports = [sweep(args.t, args.k, scope) for scope in scopes]
        bad = [r for r in reports if r.verdict != "holds"]
        result = {
            "sweeps": [r.to_json() for r in reports],
            "verdict": "holds" if not bad else "violated",
        }
        _emit(_document(config, result, started), args.out)
        return 0 if not bad else 1


def cmd_certificate(args) -> int:
    started = time.perf_counter()
    config = {"subcommand": "certificate", "t": args.t}
    upper = certify_upper(args.t)  # refuses an even t
    # psi's objective is (t+2) * path_form(t), which is (t+2) * p(V) = t+2
    # on every polytope member
    scaled = tuple((mask, (args.t + 2) * c) for mask, c in path_form(args.t))
    proved = psi_form(args.t) == scaled and prove_path_identity(args.t)
    lower = Fraction(args.t + 2) if proved else None
    all_ok = upper == lower == args.t + 2
    result = {
        "t": args.t,
        "expected": _rat(Fraction(args.t + 2)),
        "upper": _rat(upper),
        "lower": None if lower is None else _rat(lower),
        "verdict": "holds" if all_ok else "violated",
    }
    _emit(_document(config, result, started), args.out)
    return 0 if all_ok else 1


def cmd_dump_polytope(args) -> int:
    F2 = parse_graph_spec(args.f2)
    text = dump_polytope(build_polytope(F2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for counts that must not be empty: a verdict over zero
    graphs would be vacuous."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep that code
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homdom", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_hde = sub.add_parser("hde", help="compute a homomorphism domination exponent")
    p_hde.add_argument("--f1", required=True, help="graph spec, e.g. union:2*path:0+1*path:3")
    p_hde.add_argument("--f2", required=True, help="graph spec, e.g. path:1")
    p_hde.add_argument("--out")
    p_hde.set_defaults(func=cmd_hde)

    p_walks = sub.add_parser("walks", help="exact walk counts of a graph file")
    p_walks.add_argument("--graph", required=True, help="edge-list file")
    p_walks.add_argument("--k", type=int, required=True)
    p_walks.add_argument("--out")
    p_walks.set_defaults(func=cmd_walks)

    p_verify = sub.add_parser("verify", help="run a conjecture-lab check")
    p_verify.add_argument("--mode", required=True, choices=list(VERIFY_OPTIONS))
    p_verify.add_argument("--t", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--exhaustive-n", type=_positive_int)
    p_verify.add_argument("--samples", type=_positive_int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--edge-prob", default="1/2")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--f1")
    p_verify.add_argument("--f2")
    p_verify.add_argument("--c")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_cert = sub.add_parser(
        "certificate", help="certify the flagship exponent from both sides"
    )
    p_cert.add_argument("--t", type=int, required=True)
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certificate)

    p_dump = sub.add_parser("dump-polytope", help="print the constraint system")
    p_dump.add_argument("--f2", required=True)
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=cmd_dump_polytope)

    return parser


def _join_rationals(argv: list[str]) -> list[str]:
    """``--edge-prob VALUE`` and ``--c VALUE`` joined into
    ``--edge-prob=VALUE`` and ``--c=VALUE``, so that a negative rational
    reaches the range check instead of reading as an option."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("--edge-prob", "--c") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_rationals(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PreconditionError as exc:
        sys.stderr.write(f"homdom: precondition failed: {exc}\n")
        return PRECONDITION_ERROR
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"homdom: {exc}\n")
        return USAGE_ERROR
    except HomdomError as exc:
        sys.stderr.write(f"homdom: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
