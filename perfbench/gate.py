"""Correctness gate: digests of simulated output and the checks on them.

A repetition's output is reduced to one SHA-256 digest.  For a world run
by ``run_workload`` the digest covers every flow record, the byte
accounting of every link and the world's public work counters; for a
sweep it is :func:`repro.experiments.sweep.payload_digest`.  The gate
then requires, per run:

- the digest stored in ``references.json`` for this workload and seed,
  when there is one;
- the same digest from every repetition, traced or not (so the exact
  work counts repeat);
- byte conservation on every link (``offered == delivered + dropped +
  in flight``), and no workload-specific problem.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def canonical(value):
    """Deterministic JSON text (addresses and other objects via ``str``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def world_counters(scenario):
    """The world's cumulative public work counters, by metric name."""
    links = [link.stats for link in scenario.iter_links()]
    xtrs = [xtr for xtr_list in scenario.xtrs_by_site.values()
            for xtr in xtr_list]
    resolvers = list(scenario.dns.resolvers.values())
    pces = (list(scenario.control_plane.pces.values())
            if scenario.control_plane is not None else [])
    mapping = (scenario.mapping_system.stats
               if scenario.mapping_system is not None else None)
    return {
        "sim.events": scenario.sim.processed_events,
        "net.tx_packets": sum(stats.tx_packets for stats in links),
        "net.tx_bytes": sum(stats.tx_bytes for stats in links),
        "net.drops": sum(stats.drops for stats in links),
        "net.fluid_bytes": sum(stats.fluid_bytes for stats in links),
        "lisp.encapsulated": sum(xtr.encapsulated for xtr in xtrs),
        "lisp.decapsulated": sum(xtr.decapsulated for xtr in xtrs),
        "lisp.map_cache_hits": sum(xtr.map_cache.hits for xtr in xtrs),
        "lisp.map_cache_misses": sum(xtr.map_cache.misses for xtr in xtrs),
        "lisp.resolutions_started": sum(xtr.resolutions_started
                                        for xtr in xtrs),
        "lisp.resolutions_failed": sum(xtr.resolutions_failed
                                       for xtr in xtrs),
        "lisp.first_packet_drops": scenario.total_first_packet_drops(),
        "lisp.control.messages": mapping.messages if mapping else 0,
        "lisp.control.bytes": mapping.bytes if mapping else 0,
        "core.push_messages": sum(pce.stats.push_messages for pce in pces),
        "core.push_bytes": sum(pce.stats.push_bytes for pce in pces),
        "core.mappings_pushed": sum(pce.stats.mappings_pushed
                                    for pce in pces),
        "dns.recursive_queries": sum(resolver.recursive_queries
                                     for resolver in resolvers),
        "dns.upstream_queries": sum(resolver.upstream_queries
                                    for resolver in resolvers),
        "dns.answer_cache_hits": sum(resolver.answer_cache.hits
                                     for resolver in resolvers),
        "dns.answer_cache_misses": sum(resolver.answer_cache.misses
                                       for resolver in resolvers),
    }


def max_queue(scenario):
    """Deepest transmit queue any link of the world has held."""
    return max((link.stats.max_queue for link in scenario.iter_links()),
               default=0)


def world_digest(scenario, records):
    """Digest of one world's run: flow records, link ledgers, counters."""
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda record: record.flow_id):
        digest.update(canonical(asdict(record)).encode())
    for link in scenario.iter_links():
        stats = link.stats
        digest.update(canonical((
            link.name, stats.tx_packets, stats.tx_bytes, stats.fluid_bytes,
            stats.drops, stats.max_queue, stats.bytes_offered,
            stats.bytes_delivered, stats.bytes_dropped)).encode())
    digest.update(canonical(world_counters(scenario)).encode())
    return digest.hexdigest()


def combine(digests):
    """One digest for an ordered list of part digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@dataclass
class Outcome:
    """What one repetition produced, reduced to what the gate checks."""

    digest: str
    attempted: int
    failed: int
    conserved: bool
    #: Workload-specific failures (a broken paper claim, a warm sweep
    #: that built worlds, ...); empty when the output is sound.
    problems: list = field(default_factory=list)


def load_references(path=REFERENCES):
    """``{workload: {seed (str): digest}}``; empty when none are stored."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def verify(workload, seed, outcomes, references):
    """Every reason the run's output is wrong; empty when it passes.

    *outcomes* are the run's repetitions in order (traced and untraced
    alike).  Without a stored reference for *seed* only the invariants
    are checked: repeatable digests, conservation, no problems.
    """
    if not outcomes:
        return ["no repetition completed"]
    failures = []
    expected = references.get(workload, {}).get(str(seed))
    first = outcomes[0].digest
    if expected is not None and first != expected:
        failures.append(f"digest {first[:16]} differs from the stored "
                        f"reference {expected[:16]} for seed {seed}")
    for index, outcome in enumerate(outcomes):
        if outcome.digest != first:
            failures.append(f"repetition {index} digest {outcome.digest[:16]}"
                            f" differs from repetition 0 ({first[:16]})")
        if not outcome.conserved:
            failures.append(f"repetition {index} violates byte conservation")
        failures.extend(f"repetition {index}: {problem}"
                        for problem in outcome.problems)
    return failures
