"""Command-line front end.

Every subcommand but ``dump-polytope``, which prints plain text, prints a
JSON document embedding its own run configuration and the tool version;
re-running an embedded configuration reproduces the output byte for byte
except for the isolated volatile keys ``timestamp`` and ``elapsed_s``.
All numbers are exact rational strings "p/q" (counts are plain integer
strings).  ``verify`` refuses every option that its mode does not read.

Each command returns its result and whether it succeeded, and ``main``
alone sets the exit code: 0 success (or counterexample found when that
was the goal), 1 unexpected violation / counterexample not found, 2 a
``UsageError`` or an unreadable file, 3 a ``PreconditionError``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import BadIndex, BadParity, HomdomError, MalformedInput, PreconditionError, UsageError
from .graphs import MAX_DIGITS, parse_graph, parse_graph_spec, subset_label
from .homs import average_degree, walk_count
from .polytope import build_polytope, dump_polytope
from .hde import certify_upper, compute_hde, walk_form
from .checks import (
    Scope,
    _check_indices,
    _decimal,
    _rat,
    check_blakley_roy,
    check_hde_definition,
    find_counterexample,
    prove_path_identity,
    sweep,
)

USAGE_ERROR = 2
PRECONDITION_ERROR = 3

# a signed p/q of MAX_DIGITS digits each; the exponent of a decimal is held
# to MAX_DIGITS too, since Fraction("1e99999999") builds 10**99999999
MAX_RATIONAL_CHARS = 2 * MAX_DIGITS + 2


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, once the text is refused if too long or if its
    decimal exponent is past ``MAX_DIGITS``."""
    if len(text) > MAX_RATIONAL_CHARS:
        raise MalformedInput(f"rational number has {len(text)} characters, "
                             f"more than {MAX_RATIONAL_CHARS}")
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise MalformedInput(f"exponent of {text!r} is past {MAX_DIGITS}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"not a rational number: {text!r}") from exc


# -- subcommands ----------------------------------------------------------


def cmd_hde(args) -> tuple[dict, bool]:
    f1 = parse_graph_spec(args.f1)
    f2 = parse_graph_spec(args.f2)
    result_obj = compute_hde(f1, f2)
    point = result_obj.point
    return {
        "f1": args.f1,
        "f2": args.f2,
        "hde": _rat(result_obj.value),
        "lp": {
            "vars": result_obj.lp_vars,
            "constraints": result_obj.lp_constraints,
            "pivots": result_obj.lp_pivots,
        },
        "witness_p": {
            subset_label(mask): _rat(point[mask]) for mask in range(1 << point.ground_size)
        },
        "active_homs": [
            {
                "component_vertices": comp.n,
                "multiplicity": mult,
                "maps": [list(h.map) for h in homs],
            }
            for comp, mult, homs in result_obj.active
        ],
    }, True


def cmd_walks(args) -> tuple[dict, bool]:
    try:
        with open(args.graph, "r", encoding="utf-8", newline="") as fh:
            G = parse_graph(fh.read())
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{args.graph} is not UTF-8 text: {exc.reason}") from None
    d = average_degree(G)  # refuses n = 0 before the division below
    walks = walk_count(G, args.k)
    return {
        "n": G.n,
        "e": G.edge_count,
        "d": _rat(d),
        "walks": _decimal(walks),
        "w_k": _rat(Fraction(walks, G.n)),
    }, True


def _verify_scope(args) -> Scope:
    if args.exhaustive_n is not None:
        return Scope.exhaustive_upto(args.exhaustive_n)
    return Scope.random(args.samples, args.n, _parse_fraction(args.edge_prob), args.seed)


def _blakley_roy(args) -> tuple[dict, bool]:
    # w_1 = d, so Blakley-Roy is the walk inequality at t = 1; the
    # sweep's witness is its first graph with the smallest w_k - d^k
    if args.k < 1:  # the sweep's own refusal would name a t never given
        raise BadIndex(f"need --k >= 1, got {args.k}")
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
    return result, violations == 0


def _walk_sweeps(args) -> tuple[dict, bool]:
    # t(P_j;G) = w_j / n^j, so the density form is the walk inequality
    # divided through by n^(tk) and prints the same sweeps.  Every scope
    # is built, and so refused if too large, before any sweep
    if args.exhaustive_n is not None:
        scopes = [Scope.exhaustive(n) for n in range(1, args.exhaustive_n + 1)]
    else:
        scopes = [_verify_scope(args)]
    reports = [sweep(args.t, args.k, scope) for scope in scopes]
    holds = all(r.verdict == "holds" for r in reports)
    return {
        "sweeps": [r.to_json() for r in reports],
        "verdict": "holds" if holds else "violated",
    }, holds


def _counterexample(args) -> tuple[dict, bool]:
    report = find_counterexample(args.t, args.k, _verify_scope(args))
    return report.to_json(), report.verdict == "counterexample-found"


def _lemma_identity(args) -> tuple[dict, bool]:
    # p(V) - sum(edges) + sum(inner) is 0 on every polytope member
    proved = prove_path_identity(args.t)
    return {
        "residual": "0/1" if proved else None,
        "verdict": "holds" if proved else "violated",
    }, proved


def _chain(args) -> tuple[dict, bool]:
    # the walks prove HDE(P0^{k-t} P_k^t; P_t) >= k, which gives
    # n^{k-t} W_k^t >= W_t^k, that is w_k^t >= w_t^k, by Kopparty and
    # Rossman's entropy lemma; the walks' path(k) refuses a k past the cap
    t, k = args.t, args.k
    if t % 2 == 0 or k % 2 == 0 or t > k:
        raise BadParity(f"need odd t <= odd k, got t={t}, k={k}")
    _check_indices(t, k)
    holds = prove_path_identity(t, walk_form(t, k), k)
    return {"product": _rat(Fraction(k, t)), "verdict": "holds" if holds else "violated"}, holds


def _hde_definition(args) -> tuple[dict, bool]:
    f1 = parse_graph_spec(args.f1)
    f2 = parse_graph_spec(args.f2)
    report = check_hde_definition(f1, f2, _parse_fraction(args.c), _verify_scope(args))
    return report.to_json(), report.verdict == "holds"


# each verify mode, in the order --mode lists them: the options it reads,
# every one of them required, and the function that returns its result
# and whether it succeeded.  "scope" stands for the options of the branch
# that ``_verify_scope`` takes
VERIFY_MODES = {
    "blakley-roy": (("k", "scope"), _blakley_roy),
    "walk-inequality": (("t", "k", "scope"), _walk_sweeps),
    "density-form": (("t", "k", "scope"), _walk_sweeps),
    "counterexample": (("t", "k", "scope"), _counterexample),
    "lemma-identity": (("t",), _lemma_identity),
    "chain": (("t", "k"), _chain),
    "hde-definition": (("f1", "f2", "c", "scope"), _hde_definition),
}

# the random scope's options, with the defaults of the two that have one;
# --samples or --n selects it, and the exhaustive scope reads --exhaustive-n
RANDOM_SCOPE = {"samples": None, "n": None, "edge_prob": "1/2", "seed": 0}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_verify(args) -> tuple[dict, bool]:
    """Runs ``args.mode`` once every option it does not read is refused
    and the random scope's defaults fill in the ones that it reads."""
    options, run = VERIFY_MODES[args.mode]
    reads = [name for name in options if name != "scope"]
    if "scope" in options:
        reads += list(RANDOM_SCOPE) if (args.samples, args.n) != (None, None) else ["exhaustive_n"]
    for name, value in vars(args).items():
        if value is not None and name not in (*reads, "subcommand", "mode", "func", "out"):
            raise MalformedInput(f"{args.mode} mode reads {', '.join(map(_flag, reads))}, "
                                 f"not {_flag(name)}")
    for name in reads:
        if getattr(args, name) is None:
            if RANDOM_SCOPE.get(name) is None:
                raise MalformedInput(f"{args.mode} mode needs {_flag(name)}")
            setattr(args, name, RANDOM_SCOPE[name])
    return run(args)


def cmd_certificate(args) -> tuple[dict, bool]:
    upper = certify_upper(args.t)  # refuses an even t
    # psi's objective is (t+2) * p(V) = t+2 on every polytope member
    proved = prove_path_identity(args.t, walk_form(args.t, args.t + 2), args.t + 2)
    lower = Fraction(args.t + 2) if proved else None
    all_ok = upper == lower == args.t + 2
    return {
        "t": args.t,
        "expected": _rat(Fraction(args.t + 2)),
        "upper": _rat(upper),
        "lower": None if lower is None else _rat(lower),
        "verdict": "holds" if all_ok else "violated",
    }, all_ok


def cmd_dump_polytope(args) -> tuple[str, bool]:
    F2 = parse_graph_spec(args.f2)
    return dump_polytope(build_polytope(F2)), True


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

    # no verify option has a default here, so that an option is given
    # exactly when it is typed; RANDOM_SCOPE holds the scope's defaults
    p_verify = sub.add_parser("verify", help="run a conjecture-lab check")
    p_verify.add_argument("--mode", required=True, choices=list(VERIFY_MODES))
    p_verify.add_argument("--t", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--exhaustive-n", type=_positive_int)
    p_verify.add_argument("--samples", type=_positive_int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--edge-prob")
    p_verify.add_argument("--seed", type=int)
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
        started = time.perf_counter()
        result, ok = args.func(args)
        if not isinstance(result, str):  # dump-polytope prints plain text
            document = {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "elapsed_s": round(time.perf_counter() - started, 6),
                "version": __version__,
                # every option still set is one that the command read
                "config": {
                    name.replace("_", "-"): value for name, value in vars(args).items()
                    if value is not None and name not in ("func", "out")
                },
                "result": result,
            }
            result = json.dumps(document, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(result)
        else:
            sys.stdout.write(result)
        return 0 if ok else 1
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
