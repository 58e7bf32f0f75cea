"""The benchmark's tracer rebinds homdom names from outside the package.

``bench/spans.py`` looks each traced name up in the module that calls it;
a refactor that drops or renames one would otherwise only surface in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

from homdom import hde, polytope
from homdom.graphs import disjoint_union, path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    rec = _load_spans().Recorder()
    rec.install()
    try:
        rebound = list(rec._saved)
        assert rebound
        for module, attr, original in rebound:
            assert getattr(module, attr) is not original
    finally:
        rec.uninstall()
    for module, attr, original in rebound:
        assert getattr(module, attr) is original


def test_tracer_counts_every_solve_on_the_dual():
    # the t = 1 flagship exponent and one P_3 vertex, traced end to end
    polytope.random_vertex_point.cache_clear()
    rec = _load_spans().Recorder()
    rec.install()
    try:
        flagship = disjoint_union([(path(0), 2), (path(3), 1)])
        assert hde.compute_hde(flagship, path(1)).value == 3
        polytope.random_vertex_point(path(3), 0)
    finally:
        rec.uninstall()
    assert rec.counts["lp.solves"] >= 2
    assert rec.counts["lp.dual_side"] == rec.counts["lp.solves"]


def test_tracer_sees_every_map_compute_hde_enumerates():
    # P16 has 8,362 maps into P3 and each isolated vertex 4; they collapse
    # to 204 + 4 distinct profile rows
    rec = _load_spans().Recorder()
    rec.install()
    try:
        hde.compute_hde(disjoint_union([(path(0), 2), (path(16), 1)]), path(3))
    finally:
        rec.uninstall()
    per_name, _ = rec.summary()
    assert per_name["homs.enumerate"]["items"] == 8366
    assert rec.items_under("homs.enumerate", "hde.compute_hde") == 8366
    assert rec.counts["hde.profiles_distinct"] == 208
