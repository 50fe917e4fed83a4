"""Generate a full reproduction report: every experiment, one document.

Used by ``python -m repro report [-o FILE]``; the benchmark harness asserts
shapes per-experiment, this module collects everything a reader needs into
a single markdown artefact (the source of EXPERIMENTS.md's reference run).
"""

import importlib
import io

from repro.metrics import format_table

#: (experiment id, module, runner kwargs, paper artefact description)
EXPERIMENT_SPECS = (
    ("e1", "e1_packet_loss", "run_e1", {},
     "claim C1 — first-packet fate during mapping resolution"),
    ("e2", "e2_overlap", "run_e2", {},
     "claim C2 — (T_DNS + T_map) ≈ T_DNS"),
    ("e3", "e3_setup_latency", "run_e3", {},
     "§1 formulas — TCP connection-setup latency"),
    ("e4", "e4_te_flexibility", "run_e4", {},
     "claim C3 — independent ingress/egress TE"),
    ("e5", "e5_overhead", "run_e5", {},
     "control-plane overhead and state vs scale"),
    ("e6", "e6_pce_overhead", "run_e6", {},
     "Step 6 — PCE interception overhead / line-rate claim"),
    ("e7", "e7_cache_aging", "run_e7", {},
     "§1 — map-cache aging"),
    ("e8", "e8_reverse_mapping", "run_e8", {},
     "closing paragraph — reverse-mapping completion"),
    ("e9", "e9_failover", "run_e9", {},
     "extension — locator failure and probing failover"),
    ("e10", "e10_topology_shape", "run_e10", {},
     "extension — mapping systems on internet-shaped (tiered/CAIDA) fabrics"),
)


def generate_report(seed=11, out=None):
    """Run every experiment; returns (markdown_text, all_shapes_ok)."""
    buffer = io.StringIO()
    all_ok = True
    buffer.write("# Reproduction report\n\n")
    buffer.write("Regenerated by `python -m repro report`.  One section per "
                 "paper artefact; `repro.experiments.report.EXPERIMENT_SPECS` "
                 "is the index, and each experiment module's docstring "
                 "states the expected shape.\n")

    from repro.experiments.fig1 import run_fig1_walkthrough

    outcome = run_fig1_walkthrough(seed=seed)
    buffer.write("\n## F1 — Fig. 1 step walkthrough\n\n```\n")
    rows = [(label, "-" if when is None else f"{when * 1000:.3f} ms", description)
            for label, when, description in outcome["steps"]]
    buffer.write(format_table(("step", "time", "what happens"), rows))
    buffer.write("\n```\n\nChecks: ")
    buffer.write(", ".join(f"{name}={'ok' if ok else 'FAILED'}"
                           for name, ok in outcome["checks"].items()))
    buffer.write("\n")
    all_ok = all_ok and all(outcome["checks"].values())

    for exp_id, module_name, run_name, kwargs, description in EXPERIMENT_SPECS:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        rows = getattr(module, run_name)(**kwargs)
        failures = module.check_shape(rows)
        buffer.write(f"\n## {exp_id.upper()} — {description}\n\n```\n")
        buffer.write(format_table(module.HEADERS, [row.as_tuple() for row in rows]))
        buffer.write("\n```\n\n")
        if failures:
            all_ok = False
            buffer.write("Shape-check FAILURES:\n")
            for failure in failures:
                buffer.write(f"- {failure}\n")
        else:
            buffer.write("Shape check: ok.\n")

    text = buffer.getvalue()
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text, all_ok
