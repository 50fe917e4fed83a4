"""Tests of the benchmark's own machinery: the correctness gate, exact
work counts, and the metric tables ``BENCHMARK.json`` declares.

They run on a tiny world, so they are cheap enough for the tier-1 suite.
"""

import cProfile
import json
import os
import pstats

import gate
import layers
import run
import workloads
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_workload():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    return workloads.WorldWorkload(
        "tiny", [config],
        lambda seed: WorkloadConfig(num_flows=6, packets_per_flow=4,
                                    rng_name=workloads.traffic_stream(seed)),
        flows=6)


def one_repetition(workload, state):
    workload.prepare(state)
    raw = workload.execute(state)
    return raw, workload.outcome(state, raw)


def test_gate_rejects_perturbed_output(tmp_path):
    workload = tiny_workload()
    state = workload.setup(1, str(tmp_path))
    raw, outcome = one_repetition(workload, state)
    references = {"tiny": {"1": outcome.digest}}
    assert gate.verify("tiny", 1, [outcome], references) == []

    # One byte more in one flow record: the digest no longer matches.
    raw[0][0].bytes_sent += 1
    perturbed = workload.outcome(state, raw)
    assert perturbed.digest != outcome.digest
    assert gate.verify("tiny", 1, [perturbed], references)
    # ... and repetitions disagreeing is caught without any reference.
    assert gate.verify("tiny", 1, [outcome, perturbed], {})

    # A link that delivered a byte it was never offered breaks conservation.
    link = next(link for link in state["worlds"][0].iter_links()
                if link.stats.bytes_delivered)
    link.stats.bytes_delivered += 1
    broken = workload.outcome(state, raw)
    assert not broken.conserved
    assert gate.verify("tiny", 1, [broken], {})


def test_counts_repeat_exactly_traced_or_not(tmp_path):
    workload = tiny_workload()
    state = workload.setup(2, str(tmp_path))
    _, first = one_repetition(workload, state)
    _, second = one_repetition(workload, state)
    profiled = []
    for _ in range(2):
        workload.prepare(state)
        profile = cProfile.Profile()
        profile.enable()
        raw = workload.execute(state)
        profile.disable()
        profiled.append((workload.outcome(state, raw),
                         layers.layer_profile(pstats.Stats(profile).stats)))
    digests = {first.digest, second.digest,
               *(outcome.digest for outcome, _ in profiled)}
    assert len(digests) == 1
    (_, (self_s, calls, _)), (_, (_, calls_again, _)) = profiled
    assert calls == calls_again
    assert calls["net.link_sends"] > 0 and calls["net.fib_lookups"] > 0
    assert self_s.get("sim", 0.0) > 0 and self_s.get("net", 0.0) > 0


def test_layer_of_names_layers_after_modules():
    assert layers.layer_of("/x/src/repro/lisp/control/alt.py") == "lisp.control"
    assert layers.layer_of("/x/src/repro/lisp/xtr.py") == "lisp"
    assert layers.layer_of("/x/src/repro/experiments/sweep.py") == "sweep"
    assert layers.layer_of("/x/src/repro/experiments/workload.py") == "traffic"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") is None
    assert layers.layer_of("~") is None


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
