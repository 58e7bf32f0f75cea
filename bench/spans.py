"""Per-layer spans recorded from outside the program.

``Recorder.install`` rebinds homdom's public functions, in the modules
that call them, to wrappers that record a span per call: its name, start,
end and parent span.  ``uninstall`` puts the original functions back.
Nothing under ``src/`` changes; untraced rounds run with no wrapper.

A generator is timed only while it is being drained, so its span covers
the time spent inside ``next`` and not the consumer's work between items.
Nested ``lp.solve`` calls (the dual side re-enters ``solve``) become child
spans of the outer call.  ``build_polytope`` hits and misses are told
apart through its ``cache_info()``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from homdom import checks, graphs, hde, homs, lp, polytope

_clock = time.perf_counter

# (module, attribute, span name): every name a traced call can go through
_PLAIN = (
    (hde, "is_chordal", "graphs.recognition"),
    (hde, "is_series_parallel", "graphs.recognition"),
    (graphs, "is_chordal", "graphs.recognition"),
    (hde, "clique_tree", "graphs.clique_tree"),
    (hde, "maximal_cliques", "graphs.maximal_cliques"),
    (graphs, "maximal_cliques", "graphs.maximal_cliques"),
    (checks, "from_edges", "graphs.generate"),
    (checks, "normalized_walks", "homs.normalized_walks"),
    (homs, "walk_count", "homs.walk_count"),
    (checks, "count_homs", "homs.count_homs"),
    (hde, "compute_hde", "hde.compute_hde"),
    (hde, "certify_upper", "hde.certify_upper"),
    (hde, "certify_lower", "hde.certify_lower"),
    (polytope, "is_member", "polytope.member"),
    (hde, "is_member", "polytope.member"),
    (checks, "is_member", "polytope.member"),
    (polytope, "random_vertex_point", "polytope.vertex"),
    (lp, "verify", "lp.verify"),
    (checks, "sweep", "checks.check"),
    (checks, "find_counterexample", "checks.check"),
    (checks, "check_hde_definition", "checks.check"),
    (checks, "check_lemma_identity", "checks.lemma"),
)


def _max_bits(values):
    return max((max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                for q in values), default=0)


class Recorder:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        # [name, start, end, parent index or -1, busy seconds, items]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, _clock(), None, parent, 0.0, 0])
        return index

    def _close(self, index):
        span = self.spans[index]
        span[2] = _clock()
        span[4] = span[2] - span[1]
        self._stack.pop()
        return span

    def _parent_name(self, index):
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else None

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(parent name, args, result)``
        runs once the span is closed, to update counters."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(index)
            if after is not None:
                after(rec._parent_name(index), args, result)
            return result
        return traced

    def wrap_generator(self, name, fn):
        """A generator function wrapped in one span per generator, busy only
        while the consumer waits in ``next``; its items are counted."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            index = None
            try:
                while True:
                    if index is None:
                        index = rec._open(name)
                    else:
                        rec._stack.append(index)
                    start = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.spans[index][4] += _clock() - start
                        rec._stack.pop()
                    rec.spans[index][5] += 1
                    yield item
            finally:
                if index is not None:
                    rec.spans[index][2] = _clock()
        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        for module, attr, name in _PLAIN:
            self._rebind(module, attr, self.wrap(name, getattr(module, attr), self._after(attr)))
        self._rebind(hde, "enumerate_homs", self.wrap_generator("homs.enumerate", hde.enumerate_homs))
        built = self._build_polytope(polytope.build_polytope)
        self._rebind(polytope, "build_polytope", built)
        self._rebind(hde, "build_polytope", built)
        self._rebind(lp, "solve", self.wrap("lp.solve", lp.solve, self._after_solve))
        self._rebind(lp, "make_lp", self.wrap("lp.make_lp", lp.make_lp, self._after_make_lp))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _rebind(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    # -- counters -------------------------------------------------------------

    def _after(self, attr):
        if attr in ("sweep", "find_counterexample", "check_hde_definition"):
            def count_checked(parent, args, report):
                self.counts["checks.graphs_checked"] += report.params["checked"]
            return count_checked
        return None

    def _after_solve(self, parent, args, outcome):
        if parent == "lp.solve":
            return  # the dual side's inner solve; the outer call reports
        program = args[0]
        self.counts["lp.solves"] += 1
        self.counts["lp.pivots"] += outcome.pivots
        self.counts["lp.dual_side"] += bool(outcome.via_dual)
        self.counts["lp.rows"] += len(program.rows)
        self.counts["lp.vars"] += program.n_vars
        if outcome.status == "optimal":
            bits = max(_max_bits(outcome.point), _max_bits(outcome.duals))
            self.counts["lp.max_bits"] = max(self.counts["lp.max_bits"], bits)

    def _after_make_lp(self, parent, args, program):
        if parent == "hde.compute_hde":
            self.counts["hde.profiles_distinct"] += sum(row.rel == ">=" for row in program.rows)

    def _build_polytope(self, cached):
        rec = self

        @functools.wraps(cached)
        def traced(F2):
            misses = cached.cache_info().misses
            index = rec._open("polytope.build")
            try:
                system = cached(F2)
            finally:
                span = rec._close(index)
                built = cached.cache_info().misses > misses
                if not built:
                    span[0] = "polytope.build_hit"
            if built:
                rec.counts["polytope.builds"] += 1
                rec.counts["polytope.rows"] += len(system.constraints)
            else:
                rec.counts["polytope.build_hits"] += 1
            return system
        return traced

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Per span name: calls, items, inclusive seconds (a span nested in
        one of the same name is not counted twice) and self seconds; plus
        seconds per (parent name, child name) edge."""
        child_busy = defaultdict(float)
        for name, start, end, parent, busy, items in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        per_name = defaultdict(lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        edges = defaultdict(float)
        for index, (name, start, end, parent, busy, items) in enumerate(self.spans):
            entry = per_name[name]
            entry["calls"] += 1
            entry["items"] += items
            entry["self_s"] += busy - child_busy[index]
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                entry["total_s"] += busy
            parent_name = self.spans[parent][0] if parent >= 0 else None
            edges[(parent_name, name)] += busy
        return dict(per_name), dict(edges)

    def items_under(self, name, ancestor_name):
        """Items yielded by ``name`` spans whose parent is ``ancestor_name``."""
        return sum(items for n, _, _, parent, _, items in self.spans
                   if n == name and parent >= 0 and self.spans[parent][0] == ancestor_name)
