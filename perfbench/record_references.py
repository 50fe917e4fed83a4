#!/usr/bin/env python3
"""Record the reference digests the benchmark's correctness gate compares.

Run from the root of a checkout, only when a change is *meant* to alter
the simulated output (and say so in the change)::

    python3 perfbench/record_references.py                  # seeds 0-40
    python3 perfbench/record_references.py --workload flow_setup --seeds 1 2

Each workload is set up once; every seed then runs one repetition, which
must pass the invariant checks before its digest is stored in
``references.json``.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(name, seeds, workdir):
    workload = WORKLOADS[name]()
    state = workload.setup(seeds[0], workdir)
    digests = {}
    for seed in seeds:
        state["seed"] = seed
        workload.prepare(state)
        outcome = workload.outcome(state, workload.execute(state))
        failures = gate.verify(name, seed, [outcome], {})
        if failures:
            raise SystemExit(f"{name} seed {seed}: {failures}")
        digests[str(seed)] = outcome.digest
        print(f"{name} seed {seed}: {outcome.digest[:16]} "
              f"({outcome.attempted} flows, {outcome.failed} failed)")
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(41)))
    args = parser.parse_args(argv)
    references = gate.load_references()
    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in names:
            references.setdefault(name, {}).update(
                record(name, args.seeds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in references:
        references[name] = dict(sorted(references[name].items(),
                                       key=lambda item: int(item[0])))
    with open(gate.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
