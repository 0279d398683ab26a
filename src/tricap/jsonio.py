"""Canonical report serialization.

Reports are plain dicts with a fixed key order, rendered by one dumps
function, so the same computation always produces byte-identical output.
Three conventions keep the files exact and portable: counts that can
exceed 2^53 are emitted as decimal strings, rationals are emitted as
"p/q" strings (always with the denominator), and floats go through
repr, which round-trips. Nothing here ever writes a timing.

Every top-level report opens with the same envelope: tool, version,
command, seed. Commands without randomness carry a null seed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from . import bulk
from .capset import PointSet
from .energy import HolderReport, SmoothingReport
from .randomsel import NullityExperiment
from .spectrum import Increment, SpectrumSet, SubspaceSpectrumStats, increment_threshold
from .structure import AdditiveStructure, ComityBand, MartingaleReport
from .version import VERSION

__all__ = [
    "dumps_canonical",
    "envelope",
    "frac_str",
    "render_csv",
    "report_comity",
    "report_fibers",
    "report_holder",
    "report_levels",
    "report_martingale",
    "report_nullity",
    "report_smoothing",
    "report_spectrum",
    "report_subspace_stats",
    "nullity_csv_rows",
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


# -- report builders, one per subsystem ----------------------------------------


def report_spectrum(spec: SpectrumSet, increments: list[Increment]) -> dict[str, Any]:
    """Spectrum sizes and the increments, each with its exact density and excess.

    Every basis and shift string comes from one index_text call, and the
    rationals are made once per distinct (codim, count).
    """
    base = spec.base

    @functools.cache
    def exact(codim: int, count: int) -> tuple[str, str]:
        density = Fraction(count, 3 ** (base.n - codim))
        return frac_str(density), frac_str(density - increment_threshold(base, codim))

    flat = [i for inc in increments for i in (*inc.basis, inc.shift)]
    words = iter(bulk.index_text(base.n, flat).split())
    rows = []
    for codim, count, basis, _ in increments:
        density, excess = exact(codim, count)
        rows.append({
            "codim": codim,
            "density": density,
            "excess": excess,
            "basis": [next(words) for _ in basis],
            "shift": next(words),
        })
    return {
        "n": base.n,
        "set_size": base.size,
        "rho": frac_str(base.density()),
        "spectrum_size": spec.members.size,
        "threshold_c": frac_str(spec.threshold_c),
        "increments": rows,
    }


def report_subspace_stats(stats: SubspaceSpectrumStats) -> dict[str, Any]:
    return {
        "dim": stats.dim,
        "member_count": stats.member_count,
        "weight": str(stats.weight),
        "weight_normalized": stats.weight_normalized,
        "count_reference": stats.count_reference,
        "weight_reference": stats.weight_reference,
    }


def report_holder(rep: HolderReport) -> dict[str, Any]:
    return {
        "m": rep.m,
        "size": rep.size,
        "E4": str(rep.e4),
        "E8": None if rep.e8 is None else str(rep.e8),
        "E2m": str(rep.e2m),
        "part1_holds": rep.part1_holds,
        "part2_holds": rep.part2_holds,
    }


def report_smoothing(rep: SmoothingReport) -> dict[str, Any]:
    return {
        "size": rep.size,
        "scale_n": rep.scale_n,
        "epsilon": rep.epsilon,
        "E8": str(rep.e8),
        "sigma_eff": rep.sigma_eff,
        "boundary": rep.boundary,
        "within_boundary": rep.within_boundary,
    }


def report_levels(ps: PointSet, bands: list[AdditiveStructure]) -> dict[str, Any]:
    return {
        "n": ps.n,
        "set_size": ps.size,
        "band_count": len(bands),
        "bands": [
            {
                "m_lo": b.m_lo,
                "m_hi": 2 * b.m_lo,
                "G_size": b.pair_count,
                "D_size": b.diffs.size,
                "alpha_eff": b.band_exponent,
            }
            for b in bands
        ],
    }


def report_comity(struct: AdditiveStructure, bands: list[ComityBand],
                  komity_value: int) -> dict[str, Any]:
    n = struct.base.n
    return {
        "m_lo": struct.m_lo,
        "D_size": struct.diffs.size,
        "G_size": struct.pair_count,
        "komity": str(komity_value),
        "bands": [
            {
                "size_lo": b.size_lo,
                "size_hi": 2 * b.size_lo,
                "pairs": b.pair_count,
                "mass": str(b.mass),
                "beta_eff": (math.log(b.size_lo) / math.log(n)) if n >= 2 else float("nan"),
            }
            for b in bands
        ],
    }


def report_fibers(ps: PointSet, dim_h: int, reps: np.ndarray, sizes: np.ndarray) -> dict[str, Any]:
    return {
        "n": ps.n,
        "set_size": ps.size,
        "dim_h": dim_h,
        "fiber_count": len(reps),
        "fibers": [
            {"rep": rep, "size": size}
            for rep, size in zip(bulk.index_text(ps.n, reps).split(), sizes.tolist())
        ],
    }


def report_martingale(rep: MartingaleReport) -> dict[str, Any]:
    return {
        "dim_h": rep.dim_h,
        "dim_k": rep.dim_k,
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "h_term": str(rep.h_term),
        "fiber_term": str(rep.fiber_term),
        "raw_lhs": str(rep.raw_lhs),
        "raw_rhs": str(rep.raw_rhs),
        "holds": rep.holds,
    }


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
                "reference": ref,
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
