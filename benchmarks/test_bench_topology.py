"""Benchmarks for tiered topology generation and hierarchical routing.

BENCH tracks internet-shaped world construction: :func:`repro.net.topogen.build`
with the tiered family at 1k and 4k stub sites, covering the tier-0 clique,
transit attachment, IXP wiring, and the hierarchical route install.  The
scaling gate asserts the whole point of routing a tiered layout through
:class:`~repro.net.routing.RoutingPlan`: growing the world 4x may not cost
anywhere near the 16x a full all-pairs Dijkstra over the provider mesh
would (observed locally: ~4.5x).
"""

import os
import time

import pytest

from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator

SITE_COUNTS = (1000, 4000)

#: Build-time ratio ceiling for the 4x site growth.  Quadratic route install
#: would land at ~16x; the hierarchical plan keeps it near-linear (~4.5x
#: observed).  CI runners are noisy single-shot timers, so the workflow
#: relaxes the gate via this env var rather than flaking the build.
SCALING_CEILING = float(os.environ.get("REPRO_TOPOLOGY_SCALING_CEILING", "10.0"))


def _build_tiered(sites):
    sim = Simulator(seed=11, tracing=False)
    spec = TopologySpec(family="tiered", num_sites=sites, hosts_per_site=1)
    return build(sim, spec)


@pytest.mark.parametrize("sites", SITE_COUNTS)
def test_bench_tiered_build(benchmark, sites):
    """Full tiered world build: tiers, IXPs, stubs, hierarchical install."""
    topology = benchmark.pedantic(_build_tiered, args=(sites,),
                                  rounds=1, iterations=1)
    assert len(topology.sites) == sites
    assert len(topology.tier_layout.tiers) == 3
    assert topology.ix_routers
    fib_total = sum(len(p.fib) for p in topology.providers)
    print(f"\n  {sites} sites: {len(topology.providers)} providers, "
          f"{len(topology.ix_routers)} IXPs, {fib_total} provider FIB entries")
    assert fib_total > 0


def test_bench_tiered_scaling(benchmark):
    """4x more stub sites must build in well under 16x the time."""
    def measure():
        _build_tiered(SITE_COUNTS[0])  # warm allocator/caches off the clock
        timings = {}
        for sites in SITE_COUNTS:
            # Best of two: single-shot builds under a loaded suite can see
            # 2-3x GC/scheduler noise, which dwarfs the signal on the small
            # build and would flake the ratio gate.
            timings[sites] = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                _build_tiered(sites)
                timings[sites] = min(timings[sites],
                                     time.perf_counter() - started)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    small, large = (timings[s] for s in SITE_COUNTS)
    ratio = large / small if small else float("inf")
    print(f"\n  build time {SITE_COUNTS[0]}: {small:.2f}s, "
          f"{SITE_COUNTS[1]}: {large:.2f}s -> ratio {ratio:.1f}x "
          f"(ceiling {SCALING_CEILING:g}x)")
    assert ratio < SCALING_CEILING, (
        f"tiered build scaled {ratio:.1f}x for 4x sites "
        f"(ceiling {SCALING_CEILING:g}x — hierarchical install regressed?)")
