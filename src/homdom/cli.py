"""Command-line front end.

Every subcommand prints a JSON document embedding its own run
configuration and the tool version; re-running an embedded configuration
reproduces the output byte for byte except for the isolated volatile keys
``timestamp`` and ``elapsed_s``.  All numbers are exact rational strings
"p/q" (counts are plain integer strings).

Exit codes: 0 success (or counterexample found when that was the goal),
1 unexpected violation / counterexample not found, 2 usage or input
error, 3 theorem precondition failure (non-chordal F1, non-series-
parallel F2, or a component without homomorphisms).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import (
    BadParity,
    EmptyScope,
    GroundTooLarge,
    HomdomError,
    MalformedInput,
    NoHomomorphism,
    NotChordal,
    NotSeriesParallel,
    ScopeTooLarge,
)
from .graphs import parse_graph, parse_graph_spec, path, subset_label
from .homs import average_degree, normalized_walks, walk_count
from .polytope import build_polytope, dump_polytope, random_vertex_point
from .hde import certify_lower, certify_upper, compute_hde
from .checks import (
    Scope,
    chain_exponents,
    check_blakley_roy,
    check_hde_definition,
    check_lemma_identity,
    find_counterexample,
    sweep,
)

USAGE_ERROR = 2
PRECONDITION_ERROR = 3
LEMMA_SAMPLES = 25  # random polytope vertices per lemma-identity run

_PRECONDITION_ERRORS = (NotChordal, NotSeriesParallel, NoHomomorphism, GroundTooLarge)


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


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
    with open(args.graph, "r", encoding="utf-8", newline="") as fh:
        G = parse_graph(fh.read())
    config = {"subcommand": "walks", "graph": args.graph, "k": args.k}
    result = {
        "n": G.n,
        "e": G.edge_count,
        "d": _rat(average_degree(G)),
        "walks": str(walk_count(G, args.k)),
        "w_k": _rat(normalized_walks(G, args.k)),
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


def cmd_verify(args) -> int:
    started = time.perf_counter()
    mode = args.mode
    config = {"subcommand": "verify", "mode": mode}
    for key in ("t", "k", "exhaustive_n", "samples", "n", "edge_prob", "seed",
                "f1", "f2", "c"):
        val = getattr(args, key, None)
        if val is not None:
            config[key.replace("_", "-")] = val

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
        reports = []
        from .polytope import indicator_point, p_star

        F2 = path(args.t)
        points = [indicator_point(F2, i) for i in range(args.t + 1)]
        points.append(p_star(args.t))
        samples = LEMMA_SAMPLES if args.samples is None else args.samples
        points.extend(random_vertex_point(F2, args.seed + i) for i in range(samples))
        for p in points:
            reports.append(check_lemma_identity(args.t, p))
        bad = [r for r in reports if r.verdict != "holds"]
        result = {
            "checked_points": len(reports),
            "verdict": "holds" if not bad else "violated",
        }
        _emit(_document(config, result, started), args.out)
        return 0 if not bad else 1

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
        worst = None  # (lhs - rhs, report) of the largest violation
        checked = 0
        violations = 0
        for G in _verify_scope(args):
            rep = check_blakley_roy(G, args.k)
            checked += 1
            if rep.verdict == "violated":
                violations += 1
                w = rep.witnesses[0]
                margin = Fraction(w["lhs"]) - Fraction(w["rhs"])
                if worst is None or margin < worst[0]:
                    worst = (margin, rep)
        result = {
            "checked": checked,
            "violations": violations,
            "verdict": "holds" if violations == 0 else "violated",
        }
        if worst:
            result["witness"] = worst[1].to_json()
        _emit(_document(config, result, started), args.out)
        return 0 if violations == 0 else 1

    if mode in ("walk-inequality", "density-form"):
        if args.t is None or args.k is None:
            raise MalformedInput(f"{mode} mode needs --t and --k")
        if args.exhaustive_n is not None:
            reports = [
                sweep(args.t, args.k, Scope.exhaustive(n))
                for n in range(1, args.exhaustive_n + 1)
            ]
        else:
            reports = [sweep(args.t, args.k, _verify_scope(args))]
        if mode == "density-form":
            # confirm verdict agreement on the same scope
            from .checks import check_density_form

            for G in _verify_scope(args):
                check_density_form(G, args.t, args.k)
        bad = [r for r in reports if r.verdict != "holds"]
        result = {
            "sweeps": [r.to_json() for r in reports],
            "verdict": "holds" if not bad else "violated",
        }
        _emit(_document(config, result, started), args.out)
        return 0 if not bad else 1

    raise MalformedInput(f"unknown verify mode {mode!r}")


def cmd_certificate(args) -> int:
    started = time.perf_counter()
    if args.t % 2 == 0:
        raise BadParity(f"certificate needs odd t, got {args.t}")
    config = {
        "subcommand": "certificate",
        "t": args.t,
        "batch": args.batch,
        "seed": args.seed,
    }
    upper = certify_upper(args.t)
    F2 = path(args.t)
    lowers = []
    for i in range(args.batch):
        p = random_vertex_point(F2, args.seed + i)
        lowers.append(certify_lower(args.t, p))
    expected = Fraction(args.t + 2)
    all_ok = upper == expected and all(v == expected for v in lowers)
    result = {
        "t": args.t,
        "expected": _rat(expected),
        "upper": _rat(upper),
        "lower_values": [_rat(v) for v in lowers],
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
    graphs or certificates would be vacuous."""
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
    p_verify.add_argument(
        "--mode",
        required=True,
        choices=[
            "blakley-roy",
            "walk-inequality",
            "density-form",
            "counterexample",
            "lemma-identity",
            "chain",
            "hde-definition",
        ],
    )
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
    p_cert.add_argument("--batch", type=_positive_int, default=25)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certificate)

    p_dump = sub.add_parser("dump-polytope", help="print the constraint system")
    p_dump.add_argument("--f2", required=True)
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=cmd_dump_polytope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        sys.stderr.write(f"homdom: precondition failed: {exc}\n")
        return PRECONDITION_ERROR
    except (MalformedInput, BadParity, EmptyScope, ScopeTooLarge, FileNotFoundError) as exc:
        sys.stderr.write(f"homdom: {exc}\n")
        return USAGE_ERROR
    except HomdomError as exc:
        sys.stderr.write(f"homdom: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
