"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (indexed in
``repro.experiments.report.EXPERIMENT_SPECS``): it runs the
experiment once inside pytest-benchmark's timer, prints the regenerated
table, and asserts the expected *shape* (who wins, by what kind of factor)
via the experiment's ``check_shape``.
"""


def run_and_check(benchmark, run, check, headers, title):
    """Run an experiment under the benchmark timer, print, and shape-check."""
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.metrics import format_table

    table = format_table(headers, [row.as_tuple() for row in rows], title=title)
    print()
    print(table)
    failures = check(rows)
    assert failures == [], f"shape check failed: {failures}"
    return rows
