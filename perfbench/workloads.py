"""The benchmark's four workloads, written against the public API only.

Each workload is a fixed input run to completion in this process, with no
worker pool.  Flows arrive as an open Poisson loop in *simulated* time
(``WorkloadConfig.arrival_rate``); nothing is scheduled on the host clock.
The worlds are part of a workload's definition and do not depend on the
seed; the benchmark seed picks the traffic — it names the RNG stream the
flow arrivals, endpoints and sizes are drawn from — so a seed with no
stored reference is a held-out input over the same worlds.

A workload has three phases, timed separately by ``run.py``:

- ``setup(seed, workdir)``: from nothing to worlds ready for the timed
  phase (``setup_s``); the worlds do not depend on ``state["seed"]``, so
  ``record_references.py`` sets up once and swaps seeds;
- ``prepare(state)``: untimed reset to the post-setup checkpoint;
- ``execute(state)``: the timed phase (``run_s``), whose raw result
  ``outcome(state, raw)`` reduces to a :class:`gate.Outcome`.

Why each workload exists, and which layer it should move, is recorded in
``README.md`` beside this file.
"""

import os
import shutil

import repro.experiments.sweep as sweep
import repro.experiments.workload as workload_module
import repro.experiments.worldbuild as worldbuild
from gate import Outcome, combine, world_counters, world_digest
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig


def traffic_stream(seed):
    """Name of the RNG stream the benchmark seed selects."""
    return f"perfbench-{seed}"


class WorldWorkload:
    """Worlds built once, each running one ``run_workload`` per repetition."""

    def __init__(self, name, configs, traffic, flows, check=None):
        self.name = name
        self.configs = configs
        self.traffic = traffic
        #: Flows one repetition attempts (failure accounting of a crash).
        self.flows = flows
        self._check = check

    def setup(self, seed, workdir):
        worlds = [worldbuild.build_world(config) for config in self.configs]
        return {"worlds": worlds, "seed": seed}

    def prepare(self, state):
        for world in state["worlds"]:
            worldbuild.restore_world(world)
        state["before"] = [world_counters(world) for world in state["worlds"]]

    def execute(self, state):
        traffic = self.traffic(state["seed"])
        return [workload_module.run_workload(world, traffic)
                for world in state["worlds"]]

    def outcome(self, state, raw):
        digests = []
        attempted = failed = 0
        conserved = True
        problems = []
        for world, before, records in zip(state["worlds"], state["before"],
                                          raw, strict=True):
            digests.append(world_digest(world, records))
            attempted += len(records)
            failed += sum(1 for record in records if record.failed)
            conserved = conserved and world.byte_accounting()["conserved"]
            if self._check is not None:
                after = world_counters(world)
                delta = {key: after[key] - before[key] for key in after}
                problems.extend(self._check(world, records, delta))
        return Outcome(digest=combine(digests), attempted=attempted,
                       failed=failed, conserved=conserved, problems=problems)


def _paper_claim(world, records, delta):
    """The paper's E3 claim, as shares of the world's flows: PCE and NERD
    map before the SYN leaves the site, so first-packet drops and SYN
    retransmissions stay rare (a mapping can still expire together with
    its 2 s DNS record); ALT and CoNS drop most first packets and pay a
    SYN retransmission for each."""
    name = world.config.control_plane
    flows = len(records)
    drops = delta["lisp.first_packet_drops"]
    retransmissions = sum(record.syn_retransmissions for record in records)
    summary = (f"{name}: {drops} first-packet drops and {retransmissions} "
               f"SYN retransmissions in {flows} flows")
    if name in ("pce", "nerd") and max(drops, retransmissions) > 0.02 * flows:
        return [summary + " (expected at most 2%)"]
    if name in ("alt", "cons") and min(drops, retransmissions) < 0.5 * flows:
        return [summary + " (expected at least half)"]
    return []


def _fluid_budgets(world, records, delta):
    """Every fluid flow finished and spent exactly its byte budget."""
    short = [record.flow_id for record in records
             if record.finished_at is None
             or record.bytes_sent != record.bytes_budget]
    if short:
        return [f"{len(short)} fluid flows did not spend their byte budget"]
    return []


def bulk_packet():
    config = ScenarioConfig(control_plane="pce", num_sites=60,
                            num_providers=8, seed=1, tracing=False,
                            access_rate_bps=10_000_000.0)
    return WorldWorkload(
        "bulk_packet", [config],
        lambda seed: WorkloadConfig(
            num_flows=40, arrival_rate=60.0, zipf_s=1.2,
            size_dist="constant", packets_per_flow=200, payload_bytes=1200,
            pacing="shaped", pace_rate_bps=2_000_000.0,
            elephant_threshold=10.0, fluid_threshold=10.0,
            grace_period=10.0, rng_name=traffic_stream(seed)),
        flows=40)


def flow_setup():
    configs = [ScenarioConfig(control_plane=name, topology="caida",
                              num_sites=200, seed=1, tracing=False,
                              mapping_ttl=2.0, dns_host_ttl=2.0)
               for name in ("pce", "alt", "cons", "nerd")]
    return WorldWorkload(
        "flow_setup", configs,
        lambda seed: WorkloadConfig(
            num_flows=100, arrival_rate=20.0, zipf_s=0.8, mode="tcp",
            tcp_data_burst=True, packets_per_flow=1, grace_period=8.0,
            rng_name=traffic_stream(seed)),
        flows=400, check=_paper_claim)


def fluid_crowd():
    config = ScenarioConfig(control_plane="pce", num_sites=4, seed=41,
                            tracing=False)
    return WorldWorkload(
        "fluid_crowd", [config],
        lambda seed: WorkloadConfig(
            num_flows=2000, arrival_rate=1000.0, zipf_s=1.0,
            size_dist="constant", pacing="fluid", packets_per_flow=2000,
            payload_bytes=1200, pace_rate_bps=2_000_000.0,
            fluid_threshold=1.0, fluid_chunk_interval=1.0,
            grace_period=15.0, rng_name=traffic_stream(seed)),
        flows=2000, check=_fluid_budgets)


class SweepWarm:
    """A 24-cell grid re-run over a warm snapshot directory.

    Set-up fills a fresh directory through ``prebuild_worlds`` (build and
    serialize every world); the timed phase is
    ``run_sweep(grid, workers=1, snapshot_dir=...)``, which hydrates the
    blobs, restores the worlds, runs the cells, folds and writes the
    JSONL/CSV/JSON artifacts.
    """

    name = "sweep_warm"
    flows = 24 * 20

    def grid(self, seed):
        return sweep.SweepGrid(
            name="sweep_warm", control_planes=("pce", "alt", "cons", "nerd"),
            topologies=("flat", "tiered"), site_counts=(40,),
            seeds=(1, 2, 3), num_flows=20, arrival_rate=20.0,
            packets_per_flow=3,
            workload_overrides={"rng_name": traffic_stream(seed)})

    def setup(self, seed, workdir):
        grid = self.grid(seed)
        snapshots = os.path.join(workdir, "snapshots")
        shutil.rmtree(snapshots, ignore_errors=True)
        sweep.prebuild_worlds(worldbuild.SnapshotStore(snapshots),
                             sweep.expand_grid(grid))
        return {"seed": seed, "snapshots": snapshots,
                "artifacts": os.path.join(workdir, "sweep")}

    def prepare(self, state):
        pass

    def execute(self, state, snapshot_dir=True):
        prefix = state["artifacts"]
        return sweep.run_sweep(
            self.grid(state["seed"]), workers=1,
            snapshot_dir=state["snapshots"] if snapshot_dir else None,
            json_path=prefix + ".json", csv_path=prefix + ".csv",
            jsonl_path=prefix + ".cells.jsonl")

    def outcome(self, state, payload):
        problems = []
        builds = payload["world_cache"]["builds"]
        if builds:
            problems.append(f"warm sweep built {builds} worlds")
        cells = payload["cells"]
        if len(cells) != 24:
            problems.append(f"{len(cells)} cells ran, expected 24")
        digest = combine([sweep.payload_digest(payload)])
        return Outcome(
            digest=digest,
            attempted=sum(cell["metrics"]["flows"] for cell in cells),
            failed=sum(cell["metrics"]["flows_failed"] for cell in cells),
            conserved=all(cell["metrics"]["bytes_conserved"]
                          for cell in cells),
            problems=problems)

    def blob_bytes(self, state):
        directory = state["snapshots"]
        return sum(os.path.getsize(os.path.join(directory, name))
                   for name in os.listdir(directory))


WORKLOADS = {
    "bulk_packet": bulk_packet,
    "flow_setup": flow_setup,
    "fluid_crowd": fluid_crowd,
    "sweep_warm": SweepWarm,
}
