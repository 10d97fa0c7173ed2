"""Record every cell's exit code and ``(check, n1, n2, lhs, rhs)`` entries.

    python3 perfbench/capture_reference.py

Writes ``perfbench/reference.json``.  Run it only at a commit whose
answers are trusted: the benchmark counts any later difference from this
file as a failed cell.  Timings, seeds and other report fields are not
recorded.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    workloads.import_nesthilb()
    reference = {}
    for name, cells in workloads.WORKLOADS.items():
        records = []
        for cell in cells:
            outcome = workloads.run_cell(cell, seed=0)
            if outcome.error is not None:
                raise SystemExit(f"{cell.label}: {outcome.error}")
            records.append({"cell": cell.label, "exit": outcome.exit, "entries": outcome.entries})
            print(f"{name}: {cell.label}: exit {outcome.exit}, {len(outcome.entries)} entries")
        reference[name] = records
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_format(reference))
    return 0


def _format(reference: dict) -> str:
    """JSON with one entry per line, so a changed answer shows as one diff line."""
    blocks = []
    for name, records in reference.items():
        cells = []
        for r in records:
            entries = ",\n".join("    " + json.dumps(e) for e in r["entries"])
            cells.append(
                f'  {{"cell": {json.dumps(r["cell"])}, "exit": {r["exit"]}, "entries": [\n'
                f"{entries}\n  ]}}"
            )
        blocks.append(f" {json.dumps(name)}: [\n" + ",\n".join(cells) + "\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
