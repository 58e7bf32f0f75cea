"""The benchmark's workloads: their inputs, their operations and the checks
on each operation's output.

A workload is built once per process (its set-up: the input graphs and
points) and then yields rounds.  A round is a fixed list of operations;
every round of a workload has the same operations, so the share of failed
operations does not depend on how many rounds a run completes.  Each
operation carries a check that compares its output with the independent
references in ``oracles`` and runs outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O
from homdom import checks, graphs, hde, polytope
from homdom.errors import GraphTooLarge


class KnownFault(Exception):
    """The operation hit a fault of the program that the benchmark names
    and counts as a failed operation."""


class Mismatch(Exception):
    """The operation's output contradicts a reference: the run is not
    correct."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises KnownFault or Mismatch
    work: int = 0  # units of the workload's work done when ``run`` returns
    fault: tuple[type, str] | None = None  # (exception type, cause) counted as failed
    kind: str = ""  # operations of one kind share inputs up to the seed; defaults to name

    def __post_init__(self):
        self.kind = self.kind or self.name


def _expect(cond, message):
    if not cond:
        raise Mismatch(message)


def _flagship(t):
    """P0^2 P_{t+2}^t as {path length: multiplicity} and as a homdom graph."""
    comps = {0: 2, t + 2: t}
    return comps, graphs.disjoint_union([(graphs.path(0), 2), (graphs.path(t + 2), t)])


def _check_exponent(comps, t, result, members, profile_cache, table):
    """Checks every exponent computation must pass: the witness point is in
    the polytope by definition and attains the value under the path
    objective.  Returns the first target on at most five vertices that
    refutes the value by the definition of domination, or None."""
    point = result.point.values
    bad = members.violation(point)
    _expect(bad is None, f"witness point not in the polytope: {bad}")
    attained = O.path_source_value(comps, t, point, profile_cache)
    _expect(attained == result.value, f"value {result.value} but witness attains {attained}")
    return O.first_definition_violation(comps, t, result.value, table)


def _graph_label(n, edges):
    return f"{n} vertices, edges {edges}"


class Certificates:
    """Flagship exponents, both one-sided certificates, and exact polytope
    vertices; the LP and the polytope builder do most of the work."""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.hde_ts = (1, 3) if tiny else (1, 3, 5)
        self.upper_ts = (1, 3) if tiny else (1, 3, 5, 7)
        # (path length, vertices per round); P_3 and P_5 vertices get a
        # certify_lower sandwich, P_6 vertices the path-polytope identity
        self.vertex_plan = ((3, 1), (2, 1)) if tiny else ((3, 3), (5, 3), (6, 2))
        # One P_6 vertex LP takes 1.9 s to 6.6 s depending on its seed, and a
        # run has room for only a few; P_6 uses these seeds in every run so
        # that one slow seed does not set a run's figures.  P_3 and P_5
        # vertices follow --seed.
        self.fixed_seeds = {6: (0, 1)}
        self.t7_points = 1 if tiny else 9
        self.paths = {t: graphs.path(t) for t in range(1, 8)}
        self.flagship = {t: _flagship(t) for t in self.hde_ts}
        self.t7_inputs = [polytope.p_star(7)] + [
            polytope.indicator_point(self.paths[7], i) for i in range(8)
        ]
        self.t7_inputs = self.t7_inputs[: self.t7_points]

    def prepare(self):
        self.members = {t: O.PathPolytope(t) for t in set(self.hde_ts) | {t for t, _ in self.vertex_plan}}
        self.table = O.walk_table(5, [m for t in self.hde_ts for m in (t, t + 2)])
        self.profiles = {}
        self.p_star = {t: O.averaged_indicator(t) for t, _ in self.vertex_plan}
        self.indicators = {
            t: [O.indicator(t, i) for i in range(t + 1)] for t, _ in self.vertex_plan
        }

    def round(self, r):
        ops = []
        for t in self.hde_ts:
            ops.append(Op(f"compute_hde t={t}", self._hde_run(t), self._hde_check(t)))
        for t in self.upper_ts:
            ops.append(Op(f"certify_upper t={t}", self._upper_run(t), self._equals(t + 2)))
        rng = random.Random(f"certificates:{self.seed}:{r}")
        for t, count in self.vertex_plan:
            seeds = self.fixed_seeds.get(t) or [rng.randrange(1 << 30) for _ in range(count)]
            for s in seeds:
                ops.append(Op(f"vertex P_{t} seed={s}", self._vertex_run(t, s),
                              self._vertex_check(t, s), work=1, kind=f"vertex P_{t}"))
        for i, p in enumerate(self.t7_inputs):
            label = "p*" if i == 0 else f"indicator {i - 1}"
            ops.append(Op(f"certify_lower t=7 at {label}", self._lower7_run(p), self._equals(9),
                          fault=(GraphTooLarge, "psi(7) builds a 72-vertex source; graphs cap at 63")))
        return ops

    def _hde_run(self, t):
        F1 = self.flagship[t][1]
        F2 = self.paths[t]
        return lambda: hde.compute_hde(F1, F2)

    def _hde_check(self, t):
        comps = self.flagship[t][0]

        def check(result):
            _expect(result.value == t + 2, f"HDE {result.value} != t+2 = {t + 2}")
            refuted = _check_exponent(comps, t, result, self.members[t], self.profiles, self.table)
            _expect(refuted is None, f"exponent refuted on {refuted}")
        return check

    def _upper_run(self, t):
        return lambda: hde.certify_upper(t)

    @staticmethod
    def _equals(expected):
        def check(value):
            _expect(value == expected, f"got {value}, expected {expected}")
        return check

    def _vertex_run(self, t, s):
        F2 = self.paths[t]
        if t % 2:
            def run():
                p = polytope.random_vertex_point(F2, s)
                return p, hde.certify_lower(t, p)
        else:
            def run():
                p = polytope.random_vertex_point(F2, s)
                return p, checks.check_lemma_identity(t, p)
        return run

    def _vertex_check(self, t, s):
        def check(out):
            p, cert = out
            values = p.values
            bad = self.members[t].violation(values)
            _expect(bad is None, f"vertex not in the polytope: {bad}")
            lhs, rhs = O.lemma_sides(t, values)
            _expect(lhs == rhs, f"p(V) = {lhs} but edges minus inner vertices = {rhs}")
            objective = polytope._random_objective(1 << (t + 1), s)
            here = O.linear_value(objective, values)
            for other in [self.p_star[t]] + self.indicators[t]:
                _expect(here <= O.linear_value(objective, other),
                        "vertex does not minimize its objective")
            if t % 2:
                _expect(cert == t + 2, f"certify_lower gave {cert}, expected {t + 2}")
            else:
                _expect(cert.verdict == "holds", f"lemma identity verdict {cert.verdict}")
                w = cert.witnesses[0]
                _expect(Fraction(w["lhs"]) == lhs and Fraction(w["rhs"]) == rhs,
                        "lemma identity sides differ from the reference")
        return check

    @staticmethod
    def _lower7_run(p):
        return lambda: hde.certify_lower(7, p)


class HomProfiles:
    """Homomorphism enumeration and objective building with little LP:
    upper certificates for long paths and one hom-heavy exponent."""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.upper_ts = (5, 7) if tiny else (7, 9, 11)
        # F1 = P0^2 P16 into P3; the tiny run uses P4 into P2, which shows
        # the same separation fault (3/2, refuted by K2)
        self.hde_source = {4: 1} if tiny else {0: 2, 16: 1}
        self.hde_t = 2 if tiny else 3
        self.F1 = graphs.disjoint_union([(graphs.path(m), c) for m, c in self.hde_source.items()])
        self.F2 = graphs.path(self.hde_t)

    def prepare(self):
        self.members = O.PathPolytope(self.hde_t)
        self.table = O.walk_table(5, list(self.hde_source) + [self.hde_t])
        self.profiles = {}
        path_walks = {t: O.walk_counts(t + 1, [(i, i + 1) for i in range(t)], (0, t + 2))
                      for t in self.upper_ts}
        self.upper_homs = {t: path_walks[t][0] + path_walks[t][t + 2] for t in self.upper_ts}
        target = O.walk_counts(self.hde_t + 1, [(i, i + 1) for i in range(self.hde_t)],
                               list(self.hde_source))
        self.hde_homs = sum(target[m] for m in self.hde_source)

    def round(self, r):
        ops = [Op(f"certify_upper t={t}", self._upper_run(t), self._upper_check(t),
                  work=self.upper_homs[t]) for t in self.upper_ts]
        ops.append(Op("compute_hde hom-heavy", self._hde_run, self._hde_check, work=self.hde_homs))
        random.Random(f"hom-profiles:{self.seed}:{r}").shuffle(ops)
        return ops

    @staticmethod
    def _upper_run(t):
        return lambda: hde.certify_upper(t)

    @staticmethod
    def _upper_check(t):
        def check(value):
            _expect(value == t + 2, f"certify_upper({t}) = {value}, expected {t + 2}")
        return check

    def _hde_run(self):
        return hde.compute_hde(self.F1, self.F2)

    def _hde_check(self, result):
        refuted = _check_exponent(self.hde_source, self.hde_t, result, self.members,
                                  self.profiles, self.table)
        if refuted is not None:
            raise KnownFault(
                f"polytope.separates: value {result.value} refuted on {_graph_label(*refuted)}")


class WalkSweep:
    """Exhaustive and seeded desk sweeps of the walk inequality; graph
    generation and walk counting do the work, with no LP."""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n_max = 4 if tiny else 6
        self.pairs = ((1, 3), (3, 5))
        rng = random.Random(f"walk-sweep:{seed}")
        self.random_n = 8
        count = 20 if tiny else 1000
        self.random_edges = [
            [(u, v) for v in range(self.random_n) for u in range(v) if rng.random() < 0.5]
            for _ in range(count)
        ]
        self.random_scope = checks.Scope.graphs(
            [graphs.from_edges(self.random_n, e) for e in self.random_edges])
        self.exhaustive = checks.Scope.exhaustive_upto(self.n_max)
        self.P1 = graphs.path(1)
        self.hde_source = {0: 2, 3: 1}
        self.F1 = graphs.disjoint_union([(graphs.path(0), 2), (graphs.path(3), 1)])

    def prepare(self):
        lengths = (1, 2, 3, 5)
        self.exhaustive_count = O.labeled_graph_count_upto(self.n_max)
        sweeps = {pair: O.SweepReference(*pair) for pair in self.pairs}
        self.counterexample = None
        self.definition_violation = None
        for index, (n, edges) in enumerate(O.labeled_graphs_upto(self.n_max), 1):
            walks = O.walk_counts(n, edges, (0,) + lengths)
            for ref in sweeps.values():
                ref.add(n, edges, walks)
            if self.counterexample is None and O.margin(walks, n, 2, 3) < 0:
                self.counterexample = (index, (n, edges))
            if (self.definition_violation is None
                    and O.path_union_homs(self.hde_source, walks) < walks[1] ** 3):
                self.definition_violation = (n, edges)
        if self.counterexample is None:
            raise RuntimeError("the reference found no (2, 3) counterexample")
        self.sweeps = sweeps
        self.random_sweep = O.SweepReference(3, 5)
        for edges in self.random_edges:
            self.random_sweep.add(self.random_n, edges, O.walk_counts(self.random_n, edges, (3, 5)))

    def round(self, r):
        ops = [
            Op(f"sweep t={t} k={k} exhaustive n<={self.n_max}",
               self._sweep_run(t, k, self.exhaustive), _check_sweep(self.sweeps[(t, k)]),
               work=self.exhaustive_count)
            for t, k in self.pairs
        ]
        ops.append(Op(f"sweep t=3 k=5 seeded n={self.random_n}",
                      self._sweep_run(3, 5, self.random_scope), _check_sweep(self.random_sweep),
                      work=len(self.random_edges)))
        ops.append(Op("find_counterexample t=2 k=3", self._counterexample_run,
                      self._counterexample_check,
                      work=self.counterexample[0]))
        ops.append(Op("check_hde_definition P0^2 P3 vs P1, c=3", self._definition_run,
                      self._definition_check, work=self.exhaustive_count))
        return ops

    @staticmethod
    def _sweep_run(t, k, scope):
        return lambda: checks.sweep(t, k, scope)

    def _counterexample_run(self):
        return checks.find_counterexample(2, 3, self.exhaustive)

    def _counterexample_check(self, report):
        index, graph = self.counterexample
        _expect(report.verdict == "counterexample-found", f"verdict {report.verdict}")
        _expect(report.params["checked"] == index,
                f"stopped after {report.params['checked']} graphs, reference after {index}")
        _expect(O.parse_edge_list(report.witnesses[0]["graph"]) == (graph[0], sorted(graph[1])),
                "counterexample differs from the reference")

    def _definition_run(self):
        return checks.check_hde_definition(self.F1, self.P1, Fraction(3), self.exhaustive)

    def _definition_check(self, report):
        expected = "holds" if self.definition_violation is None else "violated"
        _expect(report.verdict == expected, f"verdict {report.verdict}, reference {expected}")
        if expected == "holds":
            _expect(report.params["checked"] == self.exhaustive_count,
                    f"checked {report.params['checked']} of {self.exhaustive_count} graphs")


def _check_sweep(ref):
    def check(report):
        params = report.params
        expected = "holds" if ref.violations == 0 else "violated"
        _expect(report.verdict == expected, f"verdict {report.verdict}, reference {expected}")
        _expect(params["checked"] == ref.checked,
                f"checked {params['checked']} graphs, reference {ref.checked}")
        _expect(params["violations"] == ref.violations, "violation count differs")
        _expect(Fraction(params["worst_margin"]) == ref.worst,
                f"worst margin {params['worst_margin']}, reference {ref.worst}")
        _expect(O.parse_edge_list(report.witnesses[0]["graph"]) == ref.worst_graph,
                "worst-margin witness differs from the reference")
    return check


WORKLOADS = {
    "certificates": Certificates,
    "hom-profiles": HomProfiles,
    "walk-sweep": WalkSweep,
}
