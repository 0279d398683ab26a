"""Canonical report serialization.

Reports are plain dicts with a fixed key order, rendered by one dumps
function, so the same computation always produces byte-identical output.
Three conventions keep the files exact and portable: counts that can
exceed 2^53 are emitted as decimal strings, rationals are emitted as
"p/q" strings (always with the denominator), and floats go through
repr, which round-trips. Nothing here ever writes a timing.

Every top-level report opens with the same envelope: tool, version,
command, seed. Commands without randomness carry a null seed.

Each CLI handler builds its own report body, so a report's shape lives
next to the command that prints it. The one body built here is the
nullity report, because selftest criterion 9 renders it as well.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any

from .randomsel import NullityExperiment
from .version import VERSION

__all__ = [
    "dumps_canonical",
    "envelope",
    "frac_str",
    "nullity_csv_rows",
    "render_csv",
    "report_nullity",
]


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def envelope(command: str, seed: int | None) -> dict[str, Any]:
    return {"tool": "tricap", "version": VERSION, "command": command, "seed": seed}


def dumps_canonical(report: dict[str, Any]) -> str:
    """Deterministic rendering: fixed key order, two-space indent."""
    return json.dumps(report, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def render_csv(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# -- the report shared by nullity-sim and selftest criterion 9 -----------------


def report_nullity(exp: NullityExperiment) -> dict[str, Any]:
    return {
        "n": exp.n,
        "source_size": exp.source_size,
        "d": exp.d,
        "trials": exp.trials,
        "seed": exp.seed,
        "histogram": {str(k): v for k, v in exp.histogram.items()},
        "tails": [
            {
                "k": k,
                "empirical": frac_str(tail),
                "empirical_float": float(tail),
                "reference": float(ref),
            }
            for k, tail, ref in exp.tail_rows()
        ],
    }


def nullity_csv_rows(report: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    """The CSV table of a nullity-sim report: its tails, each with its count."""
    header = ["k", "count", "empirical", "reference"]
    rows = [
        [t["k"], report["histogram"].get(str(t["k"]), 0), t["empirical"], t["reference"]]
        for t in report["tails"]
    ]
    return header, rows
