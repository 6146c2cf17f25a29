"""Record the grid-warm reference values that have no closed form.

Run from the repository root, only when the reference must be re-based:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference_grid_warm.json``: the value and its error bound
(``est_tail_bound + quad_error_est``) at every fixed-grid point of the
grid-warm workload, as the package computes them now.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    wl = workloads.GridWarm(0, lambda f: f)  # the fixed grid ignores the seed
    rows = wl.reference_rows(wl.evaluate())
    lines = ",\n".join(json.dumps(row) for row in rows)
    workloads.REFERENCE.write_text('{"rows": [\n' + lines + "\n]}\n")
    print(f"wrote {len(rows)} rows to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
