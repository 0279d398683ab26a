"""Print the ROADMAP baseline-table cells from the spans of a traced run.

    python3 perfbench/run.py --workload all
    python3 perfbench/roadmap_table.py

A traced pass leaves one spans file per command in perfbench/_work/<workload>/.
Each cell is the inclusive duration of one public call (children
included), the median when the command makes several such calls.
"""

import json
import statistics
import sys
from pathlib import Path

WORK = Path(__file__).resolve().parent / "_work"

COLUMNS = ("transform", "e4 hash", "e4 transform", "build_levels",
           "extract_spectrum", "is_capset", "cube_sum")

# (workload, column, spans file of the command, span name)
CELLS = (
    ("structure-n12", "transform", "spans-*.json", "fourier.transform_point_set"),
    ("structure-n12", "e4 hash", "spans-04-energy.e4-hash.json", "energy.diff_multiplicity"),
    ("structure-n12", "e4 transform", "spans-03-energy.e4.json", "energy.diff_multiplicity"),
    ("structure-n12", "build_levels", "spans-06-structure.levels.json", "structure.build_levels"),
    ("structure-n12", "extract_spectrum", "spans-10-spectrum.extract.json",
     "spectrum.extract_spectrum"),
    ("structure-n12", "is_capset", "spans-02-capset.verify.json", "capset.is_capset"),
    ("dense-n14", "transform", "spans-03-fourier.transform.json", "fourier.transform_point_set"),
    ("dense-n14", "extract_spectrum", "spans-04-nullity-sim.json", "spectrum.extract_spectrum"),
    ("dense-n14", "cube_sum", "spans-02-fourier.cubesum.json", "fourier.cube_sum"),
)


def _spans(workload: str, pattern: str) -> list[list]:
    spans: list[list] = []
    for path in sorted((WORK / workload).glob(pattern)):
        spans += json.loads(path.read_text(encoding="ascii"))["spans"]
    return spans


def main() -> int:
    rows: dict[str, dict[str, str]] = {}
    sizes: dict[str, int] = {}
    for workload, column, pattern, name in CELLS:
        spans = _spans(workload, pattern)
        if not spans:
            print(f"no spans under {WORK / workload}; run a traced pass first", file=sys.stderr)
            return 1
        for s in _spans(workload, "spans-00-capset.gen.json"):
            if s[0] == "capset.greedy_random_capset":
                sizes[workload] = s[4]["size"]
        took = [(end - start) / 1e9 for span_name, start, end, _, _ in spans if span_name == name]
        rows.setdefault(workload, {})[column] = f"{statistics.median(took):.2f} s" if took else "—"
    print("| n | \\|A\\| | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 2) + "|")
    for workload, cells in rows.items():
        n = workload.rsplit("-n", 1)[1]
        line = [n, str(sizes.get(workload, "?"))] + [cells.get(c, "—") for c in COLUMNS]
        print("| " + " | ".join(line) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
