"""Regenerate the reference records the cold sweep workloads are checked against.

Run from the repository root:

    python3 perfbench/make_reference.py

The committed files were produced by the seed code; regenerate them only when
a change to the numerics is meant to move the records, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from adiasweep import sweep  # noqa: E402


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in ("sweep-2level", "sweep-3level"):
        cfg = workloads.make(name, 0).cfg
        records = sweep.run_sweep(cfg)
        doc = {
            "records": [
                {
                    "t": r.t,
                    "eps": r.eps,
                    "eps_bar_t": r.eps_bar_t,
                    "norm_drift": r.norm_drift,
                }
                for r in records
            ]
        }
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
