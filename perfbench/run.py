#!/usr/bin/env python3
"""Repository benchmark: four named workloads over the public ``repro`` API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_packet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` repeats rounds of set-up plus one timed repetition until
``--seconds`` have passed and at least :data:`MIN_REPS` rounds ran, and
reports the medians (``setup_s``, ``run_s``).  ``--trace 1`` sets
up once and reports the per-layer metrics: spans around the worldbuild,
snapshot and sweep entry points, plus per-layer self time and exact call
counts from :mod:`cProfile` over the timed phase.  ``--workload all`` runs
each workload in a fresh child process (``peak_rss_mb`` is per process)
and prints one table.

Every run checks the simulated output (see ``gate.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(flows) and ``metrics``.  A repetition that raises, or a run that fails
its check, counts every attempted flow as failed.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, SweepWarm  # noqa: E402

#: Fewest set-up + repetition rounds of an untraced run, however long
#: they take.
MIN_REPS = 3
#: Fewest profiled repetitions of a traced run (their call counts must agree).
MIN_PROFILED_REPS = 2

#: End-to-end metrics (``--trace 0``): name -> unit.  ``failed_ratio`` is
#: printed too, but travels in the result's ``attempted``/``failed``.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.self_s": "s", "sim.events": "count", "sim.events_per_s": "1/s",
    "sim.processes_started": "count",
    "net.self_s": "s", "net.link_sends": "count", "net.tx_packets": "count",
    "net.drops": "count", "net.max_queue": "count",
    "net.fib_lookups": "count", "net.fib_lookup_us": "us",
    "net.size_bytes_calls": "count", "net.fluid_posts": "count",
    "net.post_fluid_us": "us", "net.fluid_bytes": "bytes",
    "lisp.self_s": "s", "lisp.encapsulated": "count",
    "lisp.decapsulated": "count", "lisp.map_cache_hit_ratio": "fraction",
    "lisp.resolutions_started": "count", "lisp.resolutions_failed": "count",
    "lisp.first_packet_drops": "count",
    "lisp.control.self_s": "s", "lisp.control.messages": "count",
    "lisp.control.bytes": "bytes", "lisp.control.us_per_message": "us",
    "core.self_s": "s", "core.push_messages": "count",
    "core.push_bytes": "bytes", "core.mappings_pushed": "count",
    "dns.self_s": "s", "dns.recursive_queries": "count",
    "dns.upstream_queries": "count", "dns.answer_cache_hit_ratio": "fraction",
    "traffic.self_s": "s", "traffic.flows": "count",
    "traffic.syn_retransmissions": "count", "traffic.fluid_chunks": "count",
    "traffic.events_per_flow": "count", "traffic.rss_kb_per_flow": "KB",
    "worldbuild.self_s": "s", "worldbuild.topology_s": "s",
    "worldbuild.routing_s": "s", "worldbuild.dns_s": "s",
    "worldbuild.control_s": "s", "worldbuild.settle_s": "s",
    "worldbuild.capture_s": "s", "worldbuild.worlds_built": "count",
    "worldbuild.serialize_s": "s", "worldbuild.blob_mb": "MB",
    "worldbuild.hydrate_s": "s", "worldbuild.restore_s": "s",
    "worldbuild.restores": "count",
    "sweep.self_s": "s", "sweep.cells": "count",
    "sweep.cell_workload_s": "s", "sweep.extract_s": "s",
    "sweep.fold_s": "s", "sweep.artifact_s": "s",
    "sweep.cold_run_s": "s", "sweep.cold_cell_workload_s": "s",
    "trace.setup_s": "s", "trace.plain_run_s": "s", "trace.run_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "fraction",
}


def peak_rss_mb():
    """Peak resident memory of this process so far (Linux: KiB -> MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


def _seconds(values):
    return " ".join(f"{value:.3f}" for value in values)


def measure(workload, seed, seconds, workdir):
    """Untraced run: ``(metrics, outcomes, failures)``.

    Each round sets the workload up from nothing and runs one timed
    repetition on the fresh worlds, so set-up and run samples both spread
    over the whole run instead of meeting one phase of the host's load.
    Every phase is rescaled to the reference host speed by the
    :class:`speed.SpeedProbe` sampling during the run; the wall times are
    printed beside the scaled ones.  A repetition that raises ends the run
    and becomes an outcome whose flows all failed.
    """
    setup_spans = []
    run_spans = []
    outcomes = []
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        while (len(run_spans) < MIN_REPS
               or time.perf_counter() - started < seconds):
            state = None  # the previous round's worlds go before the next build
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_spans.append((start, time.perf_counter()))
            workload.prepare(state)
            gc.collect()
            try:
                start = time.perf_counter()
                raw = workload.execute(state)
                end = time.perf_counter()
                outcomes.append(workload.outcome(state, raw))
            except Exception:
                traceback.print_exc()
                outcomes.append(gate.Outcome(
                    digest="", attempted=workload.flows, failed=workload.flows,
                    conserved=True, problems=["raised (traceback above)"]))
                break
            run_spans.append((start, end))
    setup_times = [probe.scaled(*span) for span in setup_spans]
    run_times = [probe.scaled(*span) for span in run_spans]
    for label, spans, times in (("set-up", setup_spans, setup_times),
                                ("repetition", run_spans, run_times)):
        print(f"{workload.name}: {label} wall times "
              f"{_seconds(end - start for start, end in spans)}")
        print(f"{workload.name}: {label} times at reference speed "
              f"{_seconds(times)}")
    print(f"{workload.name}: probe {len(probe.costs)} samples, "
          f"median {1e6 * statistics.median(probe.costs):.2f} us, "
          f"5th percentile {1e6 * probe.floor():.2f} us, "
          f"reference {1e6 * speed.REFERENCE:.2f} us")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(run_times) if run_times else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, outcomes, []


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #

class CallCounters:
    """Work counts of every ``run_workload`` call in a recorded phase."""

    def __init__(self):
        self.totals = {}
        self.records = []
        self.max_queue = 0

    def observe(self, args):
        scenario = args[0]
        before = gate.world_counters(scenario)

        def finish(records):
            after = gate.world_counters(scenario)
            for key, value in after.items():
                self.totals[key] = self.totals.get(key, 0) + value - before[key]
            self.records.extend(records)
            self.max_queue = max(self.max_queue, gate.max_queue(scenario))

        return finish

    def take(self):
        """The counts gathered so far (and start afresh)."""
        taken = (self.totals, self.records, self.max_queue)
        self.totals, self.records, self.max_queue = {}, [], 0
        return taken


def install_program_spans(recorder, observe_run_workload):
    """Wrap the program's worldbuild, snapshot and sweep entry points."""
    import repro.experiments.scenario as scenario
    import repro.experiments.sweep as sweep
    import repro.experiments.workload as workload
    import repro.experiments.worldbuild as worldbuild
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator

    recorder.install(worldbuild, "build_world", "build_world")
    recorder.install(worldbuild, "build_scenario", "build_scenario")
    recorder.install(worldbuild, "capture_world", "capture")
    recorder.install(worldbuild, "restore_world", "restore")
    recorder.install(worldbuild, "serialize_world", "serialize")
    recorder.install(worldbuild.SnapshotStore, "ensure", "hydrate")
    recorder.install(scenario, "build_from_spec", "topology")
    recorder.install(Topology, "install_global_routes", "routing")
    recorder.install(scenario, "install_dns", "dns")
    for name in ("deploy_pce_control_plane", "deploy_lisp",
                 "AltMappingSystem", "ConsMappingSystem", "NerdMappingSystem"):
        recorder.install(scenario, name, "control")
    recorder.install(Simulator, "run", "sim.run")
    recorder.install(sweep, "run_sweep", "run_sweep")
    recorder.install(sweep, "prebuild_worlds", "prebuild")
    recorder.install(sweep, "run_cell", "run_cell")
    for module in (sweep, workload):
        recorder.install(module, "run_workload", "run_workload",
                         observe_run_workload)
    recorder.install(sweep.AggregateFold, "add", "fold")
    recorder.install(sweep.AggregateFold, "finish", "fold")
    recorder.install(sweep.CsvStreamWriter, "add", "artifact")
    recorder.install(sweep.CsvStreamWriter, "close", "artifact")
    recorder.install(sweep, "write_json", "artifact")


def span_metrics(setup_spans, run_spans, cold_spans):
    """Worldbuild phases from set-up; snapshot and sweep from the timed phase."""
    def total(spans, name, self_only=False, inside=None):
        own = layers.self_times(spans)
        return sum(own[span] if self_only else span.duration
                   for span in spans if span.name == name
                   and (inside is None or layers.within(span, inside)))

    def count(spans, name):
        return sum(1 for span in spans if span.name == name)

    return {
        "worldbuild.topology_s": (total(setup_spans, "topology", True)
                                  + total(setup_spans, "build_scenario", True)),
        "worldbuild.routing_s": total(setup_spans, "routing"),
        "worldbuild.dns_s": total(setup_spans, "dns", True),
        "worldbuild.control_s": total(setup_spans, "control", True),
        "worldbuild.settle_s": total(setup_spans, "sim.run",
                                     inside="build_world"),
        "worldbuild.capture_s": total(setup_spans, "capture"),
        "worldbuild.worlds_built": count(setup_spans, "build_world"),
        "worldbuild.serialize_s": total(setup_spans, "serialize"),
        "worldbuild.hydrate_s": total(run_spans, "hydrate", True),
        "worldbuild.restore_s": total(run_spans, "restore"),
        "worldbuild.restores": count(run_spans, "restore"),
        "sweep.cells": count(run_spans, "run_cell"),
        "sweep.cell_workload_s": total(run_spans, "run_workload",
                                       inside="run_cell"),
        "sweep.extract_s": total(run_spans, "run_cell", True),
        "sweep.fold_s": total(run_spans, "fold"),
        "sweep.artifact_s": (total(run_spans, "run_sweep", True)
                             + total(run_spans, "artifact")),
        "sweep.cold_run_s": total(cold_spans, "run_sweep"),
        "sweep.cold_cell_workload_s": total(cold_spans, "run_workload",
                                            inside="run_cell"),
    }


def trace(workload, seed, seconds, workdir):
    """Traced run: ``(metrics, outcomes, failures)``.

    Set-up and one timed repetition run with spans on (and no profiler),
    giving the phase times and work counts; then at least
    :data:`MIN_PROFILED_REPS` repetitions run under :mod:`cProfile`.
    """
    recorder = layers.SpanRecorder()
    counters = CallCounters()
    outcomes = []
    failures = []
    cold_spans = []
    install_program_spans(recorder, counters.observe)
    try:
        recorder.active = True
        state, setup_s = timed(workload.setup, seed, workdir)
        setup_spans = recorder.take()
        recorder.active = False
        workload.prepare(state)
        gc.collect()
        rss_before = peak_rss_mb()
        recorder.active = True
        raw, plain_run_s = timed(workload.execute, state)
        recorder.active = False
        rss_growth_mb = peak_rss_mb() - rss_before
        run_spans = recorder.take()
        totals, records, max_queue = counters.take()
        outcomes.append(workload.outcome(state, raw))
        blob_mb = 0.0
        if isinstance(workload, SweepWarm):
            blob_mb = workload.blob_bytes(state) / 1e6
            # The same grid built from scratch, for the warm-vs-cold gap;
            # its output must match the warm run's byte for byte.
            recorder.active = True
            cold = workload.execute(state, snapshot_dir=False)
            recorder.active = False
            cold_spans = recorder.take()
            cold_digest = workload.outcome(state, cold).digest
            if cold_digest != outcomes[0].digest:
                failures.append(
                    f"cold sweep digest {cold_digest[:16]} differs from the "
                    f"warm one {outcomes[0].digest[:16]}")
    finally:
        recorder.active = False
        recorder.uninstall()

    profiled = []
    started = time.perf_counter()
    while (len(profiled) < MIN_PROFILED_REPS
           or time.perf_counter() - started < seconds):
        workload.prepare(state)
        gc.collect()
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        raw = workload.execute(state)
        profile.disable()
        elapsed = time.perf_counter() - start
        outcomes.append(workload.outcome(state, raw))
        self_seconds, calls, cumulative = layers.layer_profile(
            pstats.Stats(profile).stats)
        profiled.append((elapsed, self_seconds, calls, cumulative))
    if any(entry[2] != profiled[0][2] for entry in profiled):
        failures.append("profiled call counts differ between repetitions: "
                        + "; ".join(str(entry[2]) for entry in profiled))

    traced_run_s = statistics.median(entry[0] for entry in profiled)
    self_s = {layer: statistics.median(entry[1].get(layer, 0.0)
                                       for entry in profiled)
              for layer in layers.LAYERS}
    calls = profiled[0][2]
    cumulative = profiled[0][3]
    flows = len(records)
    events = totals["sim.events"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {f"{layer}.self_s": seconds_ for layer, seconds_ in self_s.items()}
    metrics.update({
        "sim.events": events,
        "sim.events_per_s": ratio(events, plain_run_s),
        "sim.processes_started": calls["sim.processes_started"],
        "net.link_sends": calls["net.link_sends"],
        "net.tx_packets": totals["net.tx_packets"],
        "net.drops": totals["net.drops"],
        "net.max_queue": max_queue,
        "net.fib_lookups": calls["net.fib_lookups"],
        "net.fib_lookup_us": 1e6 * ratio(cumulative["net.fib_lookups"],
                                         calls["net.fib_lookups"]),
        "net.size_bytes_calls": calls["net.size_bytes_calls"],
        "net.fluid_posts": calls["net.fluid_posts"],
        "net.post_fluid_us": 1e6 * ratio(cumulative["net.fluid_posts"],
                                         calls["net.fluid_posts"]),
        "net.fluid_bytes": totals["net.fluid_bytes"],
        "lisp.encapsulated": totals["lisp.encapsulated"],
        "lisp.decapsulated": totals["lisp.decapsulated"],
        "lisp.map_cache_hit_ratio": ratio(
            totals["lisp.map_cache_hits"],
            totals["lisp.map_cache_hits"] + totals["lisp.map_cache_misses"]),
        "lisp.resolutions_started": totals["lisp.resolutions_started"],
        "lisp.resolutions_failed": totals["lisp.resolutions_failed"],
        "lisp.first_packet_drops": totals["lisp.first_packet_drops"],
        "lisp.control.messages": totals["lisp.control.messages"],
        "lisp.control.bytes": totals["lisp.control.bytes"],
        "lisp.control.us_per_message": 1e6 * ratio(
            self_s["lisp.control"], totals["lisp.control.messages"]),
        "core.push_messages": totals["core.push_messages"],
        "core.push_bytes": totals["core.push_bytes"],
        "core.mappings_pushed": totals["core.mappings_pushed"],
        "dns.recursive_queries": totals["dns.recursive_queries"],
        "dns.upstream_queries": totals["dns.upstream_queries"],
        "dns.answer_cache_hit_ratio": ratio(
            totals["dns.answer_cache_hits"],
            totals["dns.answer_cache_hits"] + totals["dns.answer_cache_misses"]),
        "traffic.flows": flows,
        "traffic.syn_retransmissions": sum(record.syn_retransmissions
                                           for record in records),
        "traffic.fluid_chunks": sum(record.chunks_sent for record in records),
        "traffic.events_per_flow": ratio(events, flows),
        "traffic.rss_kb_per_flow": ratio(1024.0 * rss_growth_mb, flows),
        "worldbuild.blob_mb": blob_mb,
        "trace.setup_s": setup_s,
        "trace.plain_run_s": plain_run_s,
        "trace.run_s": traced_run_s,
        "trace.overhead": ratio(traced_run_s, plain_run_s),
        "trace.coverage": ratio(sum(self_s.values()), traced_run_s),
    })
    metrics.update(span_metrics(setup_spans, run_spans, cold_spans))
    return metrics, outcomes, failures


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #

def run_one(name, seed, seconds, traced):
    workload = WORKLOADS[name]()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        metrics, outcomes, failures = (trace if traced else measure)(
            workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    references = gate.load_references()
    failures = gate.verify(name, seed, outcomes, references) + failures
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = attempted if failures else sum(outcome.failed
                                            for outcome in outcomes)
    if str(seed) not in references.get(name, {}):
        print(f"{name}: no stored reference for seed {seed}; "
              "invariant checks only")
    for failure in failures:
        print(f"{name}: CHECK FAILED: {failure}")
    units = PER_LAYER if traced else END_TO_END
    for metric, unit in units.items():
        print(f"{name:12s} {metric:32s} {metrics[metric]:>16.6g} {unit}")
    if not traced:
        print(f"{name:12s} {'failed_ratio':32s} "
              f"{failed / max(attempted, 1):>16.6g} fraction "
              f"({failed}/{attempted} flows)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def run_all(seed, seconds, trace_flag):
    """Each workload in a fresh child process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace_flag)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    combined["attempted"] = max(combined["attempted"], 1)
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum timed seconds per run (default: 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory and children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
