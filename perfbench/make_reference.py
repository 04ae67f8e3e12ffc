"""Write reference.json: the headline numbers every benchmark pass is checked against.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload for each of the INPUT_SEEDS
spinnet seeds and records its headline numbers and the SHA-256 of every
CSV it wrote, with the commit and environment they came from.  Rerun it
only in a change whose purpose is to change those numbers, and say so.
"""

from __future__ import annotations

import sys

import harness


def main() -> int:
    harness.pin_threads()
    harness.import_spinnet()
    import workloads
    from spinnet import cli

    table = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in range(workloads.INPUT_SEEDS):
            out = harness.OUT_ROOT / "reference" / name
            headline, digests = harness.run_pass(cli.main, workload, seed, False, out)
            table[name][str(seed)] = {"headline": headline, "csv_sha256": digests}
            print(name, seed, headline, flush=True)
    harness.write_json(workloads.REFERENCE, {"environment": harness.fingerprint(), "workloads": table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
