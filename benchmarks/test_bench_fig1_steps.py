"""F1 — regenerate the Fig. 1 step timeline (the report's F1 section, ahead
of the experiments indexed in ``repro.experiments.report.EXPERIMENT_SPECS``)."""

from repro.experiments.fig1 import run_fig1_walkthrough
from repro.metrics import format_table


def test_bench_fig1_steps(benchmark):
    outcome = benchmark.pedantic(run_fig1_walkthrough, rounds=1, iterations=1)
    rows = [(label, "-" if when is None else f"{when * 1000:.3f} ms", description)
            for label, when, description in outcome["steps"]]
    print()
    print(format_table(("step", "time", "what happens"), rows,
                       title="Fig. 1 control-plane walkthrough (Steps 1-8)"))
    extra = outcome["records"]
    print(f"first encap {extra['first_encap'] * 1000:.3f} ms, "
          f"first decap {extra['first_decap'] * 1000:.3f} ms, "
          f"reverse multicast {extra['reverse_multicast'] * 1000:.3f} ms, "
          f"delivery {extra['delivery'] * 1000:.3f} ms")
    failed = {name for name, ok in outcome["checks"].items() if not ok}
    assert not failed, f"Fig. 1 checks failed: {failed}"
