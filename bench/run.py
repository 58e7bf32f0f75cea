#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certificates --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; homdom is imported from ``src/``.
The run repeats whole rounds of the workload's operations until the timed
operations add up to ``--seconds``, checks every output against the
references in ``oracles.py`` outside the timed regions, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
round twice, first untraced and then with the per-layer recorder of
``spans.py`` installed, and reports the per-layer metrics of the traced
rounds plus the tracing overhead.  Failed operations, with their causes,
are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("certificates", "hom-profiles", "walk-sweep")
SETUP_PROBES = 9
# The speed of a shared machine drifts by half or more over minutes.  Every
# reported time is scaled by REFERENCE_LOOP_S over the median time of a
# fixed loop timed in the same stretch of the run, so that figures from
# different runs read as seconds at one reference speed.
REFERENCE_LOOP_S = 0.001
SAMPLE_PERIOD_S = 0.05
MIN_OWN_LOOPS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed operations to run, in seconds (whole rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the harness smoke check")
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print the monotonic clock and the speed-loop "
                         "time, and exit")
    return ap.parse_args(argv)


def load(args):
    """Import homdom from the checkout and build the workload's inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import homdom

    if Path(homdom.__file__).resolve().parent != (ROOT / "src" / "homdom").resolve():
        raise ImportError(f"homdom was found at {homdom.__file__}, outside this checkout")
    import workloads

    return workloads, workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)


def measure_setup(args):
    """Median, over fresh interpreters, of the time from process start until
    the workload's inputs are built (interpreter, ``import homdom``, input
    graphs)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
        ready, loop_s = map(float, probe.stdout.split()[-2:])
        samples.append((ready - started) * REFERENCE_LOOP_S / loop_s)
    return statistics.median(samples)


def speed_loop():
    """A fixed slice of rational, integer and dict work that uses no homdom
    code (about a millisecond)."""
    acc = Fraction(0)
    table = {}
    x = 1
    for i in range(1, 160):
        acc += Fraction(i % 97, i)
        table[i & 63] = table.get(i & 63, 0) + i * i
        x = (x * 1103515245 + 12345) & ((1 << 61) - 1)
    return acc, x


def time_loops(seconds):
    """Durations of speed loops run back to back for about ``seconds``."""
    durations = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        speed_loop()
        now = time.perf_counter()
        durations.append(now - start)
        if now >= end:
            return durations


def speed_scale(durations):
    return REFERENCE_LOOP_S / statistics.median(durations)


class SpeedSampler:
    """Times one speed loop every SAMPLE_PERIOD_S of a round, from a SIGALRM
    handler, so that samples are spread evenly over the round's time; the
    handler's own time is kept in ``busy`` and left out of the operations'
    timings."""

    def __init__(self):
        self.durations = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        speed_loop()
        end = time.perf_counter()
        self.durations.append(end - start)
        self.busy += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Round:
    """Timings and outcomes of one round of operations."""

    def __init__(self):
        self.wall = 0.0
        self.times = []  # (kind, seconds, units of work done, speed loops timed during it)
        self.attempted = 0
        self.failed = []  # (operation, cause)
        self.wrong = []  # (operation, what differs)
        self.loops = []  # speed-loop durations sampled during the round

    @property
    def scale(self):
        return speed_scale(self.loops)


def run_round(workloads, ops, clear_caches, sampler):
    clear_caches()
    out = Round()
    for op in ops:
        error = result = None
        busy = sampler.busy if sampler else 0.0
        first_loop = len(sampler.durations) if sampler else 0
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # every operation is attempted and accounted for
            error = exc
        elapsed = time.perf_counter() - start - ((sampler.busy - busy) if sampler else 0.0)
        out.wall += elapsed
        out.attempted += 1
        loops = sampler.durations[first_loop:] if sampler else []
        out.times.append((op.kind, elapsed, op.work if error is None else 0, loops))
        if error is not None:
            if op.fault and isinstance(error, op.fault[0]):
                out.failed.append((op.name, f"{type(error).__name__}: {op.fault[1]}"))
            else:
                out.wrong.append((op.name, "".join(traceback.format_exception(error)).strip()))
            continue
        try:
            op.check(result)
        except workloads.KnownFault as fault:
            out.failed.append((op.name, str(fault)))
        except workloads.Mismatch as mismatch:
            out.wrong.append((op.name, str(mismatch)))
    return out


def typical_round(rounds):
    """(seconds, units of work, seconds of the operations that do work) of
    one round with each kind of operation at its median time over the run,
    in seconds at reference speed.  Vertex operations differ in their seeds
    from round to round, and medians keep one slow seed from setting the
    figure."""
    samples = defaultdict(list)
    work = {}
    for rd in rounds:
        for kind, seconds, units, loops in rd.times:
            # an operation long enough to be sampled is scaled by its own speed
            scale = speed_scale(loops) if len(loops) >= MIN_OWN_LOOPS else rd.scale
            samples[kind].append(seconds * scale)
            work[kind] = units
    per_round = Counter(kind for kind, *_ in rounds[0].times)
    median = {kind: statistics.median(times) for kind, times in samples.items()}
    seconds = sum(n * median[kind] for kind, n in per_round.items())
    units = sum(n * work[kind] for kind, n in per_round.items())
    busy = sum(n * median[kind] for kind, n in per_round.items() if work[kind])
    return seconds, units, busy


def layer_metrics(recorder):
    per_name, _ = recorder.summary()
    counts = recorder.counts

    def total(name):
        return per_name.get(name, {}).get("total_s", 0.0)

    def own(name):
        return per_name.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    enumerated_in_hde = recorder.items_under("homs.enumerate", "hde.compute_hde")
    return {
        "graphs.recognition_s": total("graphs.recognition"),
        "graphs.clique_tree_s": total("graphs.clique_tree"),
        "graphs.clique_tree_calls": calls("graphs.clique_tree"),
        "graphs.maximal_cliques_s": total("graphs.maximal_cliques"),
        "graphs.maximal_cliques_calls": calls("graphs.maximal_cliques"),
        "graphs.generate_s": total("graphs.generate"),
        "homs.enumerate_s": total("homs.enumerate"),
        "homs.homs_enumerated": per_name.get("homs.enumerate", {}).get("items", 0),
        "homs.walk_count_s": own("homs.walk_count") + own("homs.normalized_walks"),
        "homs.walk_count_calls": calls("homs.walk_count"),
        "homs.count_homs_s": total("homs.count_homs"),
        "hde.compute_hde_s": total("hde.compute_hde"),
        "hde.self_s": own("hde.compute_hde"),
        "hde.profiles_distinct": counts["hde.profiles_distinct"],
        "hde.profile_yield": (counts["hde.profiles_distinct"] / enumerated_in_hde
                              if enumerated_in_hde else 0.0),
        "hde.certify_upper_s": total("hde.certify_upper"),
        "hde.certify_lower_s": total("hde.certify_lower"),
        "polytope.build_s": total("polytope.build"),
        "polytope.builds": counts["polytope.builds"],
        "polytope.build_hits": counts["polytope.build_hits"],
        "polytope.rows": counts["polytope.rows"],
        "polytope.member_s": total("polytope.member"),
        "polytope.member_calls": calls("polytope.member"),
        "polytope.vertex_s": own("polytope.vertex"),
        "lp.solve_s": total("lp.solve"),
        "lp.solves": counts["lp.solves"],
        "lp.dual_side": counts["lp.dual_side"],
        "lp.pivots": counts["lp.pivots"],
        "lp.rows": counts["lp.rows"],
        "lp.vars": counts["lp.vars"],
        "lp.max_bits": counts["lp.max_bits"],
        "lp.verify_s": total("lp.verify"),
        "lp.make_lp_s": total("lp.make_lp"),
        "checks.self_s": own("checks.check"),
        "checks.graphs_checked": counts["checks.graphs_checked"],
        "checks.lemma_s": total("checks.lemma"),
    }


UNITS = {"lp.max_bits": "bits", "hde.profile_yield": "ratio"}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        workloads, workload = load(args)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        ready = time.monotonic()
        # the probe's own speed, timed once its inputs are ready
        print(repr(ready), repr(statistics.median(time_loops(0.03))))
        return 0

    from homdom import polytope

    caches = (polytope.build_polytope, polytope.random_vertex_point)

    def clear_caches():
        # every round starts cold, as a fresh process would
        for cached in caches:
            cached.cache_clear()

    setup_s = None if args.trace else measure_setup(args)
    workload.prepare()

    rounds, traced_rounds, layer_rows, trace_out = [], [], [], []
    timed = 0.0
    r = 0
    while r == 0 or timed < args.seconds:
        ops = workload.round(r)
        if args.trace:
            rounds.append(run_round(workloads, ops, clear_caches, None))
        else:
            with SpeedSampler() as sampler:
                rounds.append(run_round(workloads, ops, clear_caches, sampler))
            # a round shorter than the sampling period is timed right after
            rounds[-1].loops = sampler.durations or time_loops(0.01)
            print(f"round {r}: {rounds[-1].wall:.3f} s at {rounds[-1].scale:.3f} of reference "
                  f"speed, {len(ops)} operations", file=sys.stderr)
        timed += rounds[-1].wall
        if args.trace:
            import spans

            recorder = spans.Recorder()
            recorder.install()
            try:
                traced_rounds.append(run_round(workloads, workload.round(r), clear_caches, None))
            finally:
                recorder.uninstall()
            timed += traced_rounds[-1].wall
            layer_rows.append(layer_metrics(recorder))
            per_name, edges = recorder.summary()
            trace_out.append({"round": r, "spans": per_name,
                              "edges": [[p, c, s] for (p, c), s in edges.items()]})
        r += 1

    all_rounds = rounds + traced_rounds
    failed = [f for rd in all_rounds for f in rd.failed]
    wrong = [w for rd in all_rounds for w in rd.wrong]
    attempted = sum(rd.attempted for rd in all_rounds)
    for name, cause in sorted(set(failed)):
        print(f"failed: {name}: {cause}", file=sys.stderr)
    for name, what in wrong:
        print(f"WRONG: {name}: {what}", file=sys.stderr)

    if args.trace:
        metrics = {name: statistics.fmean(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        walls = [t.wall for t in traced_rounds]
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for t, u in zip(traced_rounds, rounds))
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": trace_out}, fh,
                      indent=1)
        report = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        wall, work, work_time = typical_round(rounds)
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "work_per_s": {"value": work / work_time if work_time else 0.0, "unit": "1/s"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed) + len(wrong), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
