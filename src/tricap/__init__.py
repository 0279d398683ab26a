"""Exact-arithmetic toolkit for additive combinatorics over F_3^n.

Point sets live as sorted index arrays over the 3^n cube, characters
take values in the Eisenstein integers, and every identity the package
checks (Plancherel, cube sums against line counts, energy moments,
fiber decompositions) is evaluated in exact integer or rational
arithmetic. Floats appear only in report-level diagnostics that are
defined as logarithms.
"""

from .capset import (
    PointSet,
    count_line_solutions,
    exhaustive_max_capset,
    greedy_random_capset,
    is_capset,
    load_point_set,
    product_capset,
    random_point_set,
    save_point_set,
)
from .energy import (
    cross_quadruples,
    diff_multiplicity,
    e2m,
    e4,
    holder_check,
)
from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    IdentityViolationError,
    SetFileError,
)
from .fourier import (
    SpectrumTable,
    cube_sum,
    eval_at,
    inverse_table,
    load_table,
    plancherel_check,
    restricted_transform,
    save_table,
    transform_point_set,
    transform_table,
)
from .gf3core import Eisenstein, TritVector
from .linalg import Subspace, rank
from .randomsel import (
    g_exact,
    h_exact,
    nullity_distribution,
    sample_without_replacement,
)
from .rng import make_rng
from .selftest import SELFTEST_SEED, criterion_ids, run_criterion, run_selftest
from .spectrum import (
    Increment,
    SpectrumSet,
    coset_counts,
    extract_spectrum,
    fiber_sizes,
    increment_need,
    increment_threshold,
    sampled_increment_checks,
    scan_codim1_increments,
    strong_increment_check,
    subspace_spectrum_stats,
)
from .structure import (
    build_levels,
    comity_scan,
    delta_g,
    doubling_ratio,
    fiber_plancherel_check,
    heaviest_band,
    komity,
    komity_reference,
    span_hull,
)
from .version import VERSION as __version__

__all__ = [
    "DimensionMismatchError",
    "Eisenstein",
    "GuardExceededError",
    "IdentityViolationError",
    "Increment",
    "PointSet",
    "SELFTEST_SEED",
    "SetFileError",
    "SpectrumSet",
    "SpectrumTable",
    "Subspace",
    "TritVector",
    "__version__",
    "build_levels",
    "comity_scan",
    "coset_counts",
    "count_line_solutions",
    "criterion_ids",
    "cross_quadruples",
    "cube_sum",
    "delta_g",
    "diff_multiplicity",
    "doubling_ratio",
    "e2m",
    "e4",
    "eval_at",
    "exhaustive_max_capset",
    "extract_spectrum",
    "fiber_plancherel_check",
    "fiber_sizes",
    "g_exact",
    "greedy_random_capset",
    "h_exact",
    "heaviest_band",
    "holder_check",
    "increment_need",
    "increment_threshold",
    "inverse_table",
    "is_capset",
    "komity",
    "komity_reference",
    "load_point_set",
    "load_table",
    "make_rng",
    "nullity_distribution",
    "plancherel_check",
    "product_capset",
    "random_point_set",
    "rank",
    "restricted_transform",
    "run_criterion",
    "run_selftest",
    "sample_without_replacement",
    "sampled_increment_checks",
    "save_point_set",
    "save_table",
    "scan_codim1_increments",
    "span_hull",
    "strong_increment_check",
    "subspace_spectrum_stats",
    "transform_point_set",
    "transform_table",
]
