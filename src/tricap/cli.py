"""Command-line surface.

Every command reads point sets from the line-based set file format,
prints one canonical JSON report to stdout (or CSV/text where a tabular
form exists), and signals through the exit code: 0 success, 1 usage or
input problems, 2 a failed verification or violated identity, 3 a
resource guard. Progress and timing chatter goes to stderr only, so
stdout stays byte-deterministic for a given command line.

Each `_cmd_*` handler computes its result and returns `(body, ok)`:
`body` is the report's fields after the envelope, or None when the
command wrote its set file to stdout, and `ok` is False for a failed
verification. Each handler builds its own body, keys in printed order,
so a report's shape lives with its command; only the nullity report,
which selftest renders too, comes from jsonio. `_frame` does the rest
once for every command: it opens the report with the envelope of the
leaf's command path and its `--seed`, renders it as json, text or the
leaf's CSV table (rows read off the report), copies the JSON to `--out`
when the leaf's `--out` is the report, and maps `ok` to exit code 0 or 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from typing import Any, Callable

from . import bulk
from .capset import (
    count_line_solutions,
    exhaustive_max_capset,
    greedy_random_capset,
    is_capset,
    load_point_set,
    product_capset,
    save_point_set,
)
from .energy import cross_quadruples, e2m, e4, holder_check
from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    IdentityViolationError,
    SetFileError,
)
from .fourier import cube_sum, plancherel_check, save_table, transform_point_set
from .gf3core import Eisenstein, TritVector
from .jsonio import (
    dumps_canonical,
    envelope,
    frac_str,
    nullity_csv_rows,
    render_csv,
    report_nullity,
)
from .linalg import Subspace
from .randomsel import nullity_distribution
from .selftest import SELFTEST_SEED, run_selftest
from .spectrum import (
    Increment,
    SpectrumSet,
    check_increment_sampling,
    extract_spectrum,
    fiber_sizes,
    increment_threshold,
    sampled_increment_checks,
    scan_codim1_increments,
    subspace_spectrum_stats,
)
from .structure import (
    build_levels,
    comity_scan,
    doubling_ratio,
    fiber_plancherel_check,
    heaviest_band,
    komity,
    span_hull,
)

__all__ = ["main"]

Result = tuple[dict[str, Any] | None, bool]
CsvForm = Callable[[dict[str, Any]], tuple[list[str], list[list[Any]]]]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# CPython renders an int of at most 4,300 digits as a string, so a threshold
# whose numerator or denominator reaches 10^4300 could never be reported
_FRACTION_PART_LIMIT = 10**4300


def _threshold(text: str) -> Fraction:
    """argparse type of --threshold; argparse lets its _UsageError through unwrapped."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational number: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) >= _FRACTION_PART_LIMIT:
        raise _UsageError(f"{text!r} has a numerator or denominator of more than 4300 digits")
    if value < 0:
        raise _UsageError("threshold must be nonnegative")
    return value


def _finite_float(text: str) -> float:
    """argparse type of --epsilon: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type of an integer option that must be at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def _parse_basis(text: str, n: int) -> Subspace:
    vectors = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if len(part) != n or any(ch not in "012" for ch in part):
            raise _UsageError(f"bad basis vector {part!r} for dimension {n}")
        vectors.append(TritVector.from_string(part))
    return Subspace.span(vectors, n)


def _frame(args: argparse.Namespace, body: dict[str, Any] | None, ok: bool) -> int:
    """Envelope, render and write one handler's result; return its exit code."""
    if body is not None:
        report = {**envelope(args.command, getattr(args, "seed", None)), **body}
        if args.format == "json":
            sys.stdout.write(dumps_canonical(report))
        elif args.format == "csv":
            sys.stdout.write(render_csv(*args.csv(report)))
        else:
            for key, value in _flatten(report):
                sys.stdout.write(f"{key}: {value}\n")
        if args.out and args.out_kind == "report":
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(dumps_canonical(report))
    return 0 if ok else 2


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    rows: list[tuple[str, Any]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _table(key: str, *header: str) -> CsvForm:
    """The CSV form that lists report[key], one row per entry, lists joined by ';'."""

    def rows(report: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
        return list(header), [
            [";".join(v) if isinstance(v, list) else v for v in (entry[h] for h in header)]
            for entry in report[key]
        ]

    return rows


# -- capset ---------------------------------------------------------------------


def _cmd_capset_gen(args: argparse.Namespace) -> Result:
    ps = greedy_random_capset(args.n, args.seed)
    if not args.out:
        save_point_set(ps, sys.stdout)
        return None, True
    save_point_set(ps, args.out)
    return dict(n=ps.n, size=ps.size, density=frac_str(ps.density()),
                is_capset=True, maximal=True), True


def _cmd_capset_verify(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    lines = count_line_solutions(ps)
    cap = is_capset(ps)
    return dict(n=ps.n, size=ps.size, density=frac_str(ps.density()),
                line_solutions=str(lines), is_capset=cap), cap


def _cmd_capset_max(args: argparse.Namespace) -> Result:
    size, witness = exhaustive_max_capset(args.n)
    if args.out:
        save_point_set(witness, args.out)
    return dict(n=args.n, maximum=size, witness=[str(v) for v in witness.vectors()]), True


def _cmd_capset_product(args: argparse.Namespace) -> Result:
    pa = load_point_set(args.left)
    pb = load_point_set(args.right)
    prod = product_capset(pa, pb)
    if not args.out:
        save_point_set(prod, sys.stdout)
        return None, True
    body = dict(n=prod.n, left_size=pa.size, right_size=pb.size,
                size=prod.size, is_capset=is_capset(prod))
    save_point_set(prod, args.out)
    return body, True


# -- fourier --------------------------------------------------------------------


def _cmd_fourier_transform(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    table = transform_point_set(ps)
    if args.out:
        save_table(table, args.out)
    total, plancherel = plancherel_check(table)
    return dict(n=ps.n, size=ps.size, zero_coefficient=str(ps.size),
                norm_total=str(total), plancherel=str(plancherel)), True


def _cmd_fourier_plancherel(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    lhs, rhs = plancherel_check(transform_point_set(ps))
    return dict(n=ps.n, size=ps.size, lhs=str(lhs), rhs=str(rhs), equal=lhs == rhs), lhs == rhs


def _cmd_fourier_cubesum(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    cs = cube_sum(transform_point_set(ps))
    lines = count_line_solutions(ps)
    expected = Eisenstein(3**ps.n * lines, 0)
    return dict(n=ps.n, size=ps.size, real=str(cs.p), omega=str(cs.q),
                line_solutions=str(lines), expected_real=str(expected.p),
                matches=cs == expected, is_capset=lines == ps.size), cs == expected


# -- spectrum -------------------------------------------------------------------


def _spectrum_body(spec: SpectrumSet, increments: list[Increment]) -> dict[str, Any]:
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
        rows.append(dict(codim=codim, density=density, excess=excess,
                         basis=[next(words) for _ in basis], shift=next(words)))
    return dict(n=base.n, set_size=base.size, rho=frac_str(base.density()),
                spectrum_size=spec.members.size, threshold_c=frac_str(spec.threshold_c),
                increments=rows)


def _cmd_spectrum_extract(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    held = [transform_point_set(ps)]
    increments = scan_codim1_increments(ps, held[0]) if ps.n >= 2 else []
    # pop leaves no reference here, so extract_spectrum frees the table early
    return _spectrum_body(extract_spectrum(ps, held.pop(), args.threshold), increments), True


def _cmd_spectrum_increments(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    check_increment_sampling(ps.n, args.codim, args.samples)  # before the transform
    spec = extract_spectrum(ps, transform_point_set(ps), args.threshold)
    found = sampled_increment_checks(spec, args.codim, args.samples, args.seed)
    return _spectrum_body(spec, found), True


def _cmd_spectrum_subspace(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    w = _parse_basis(args.basis, ps.n)
    # count reference dim * n^(1 + 2 epsilon): a bad epsilon stops before the transform
    try:
        reference = w.dim * ps.n ** (1.0 + 2.0 * args.epsilon)
    except OverflowError:
        reference = math.inf
    if not math.isfinite(reference):
        raise _UsageError(f"epsilon {args.epsilon!r} gives no finite count reference")
    spec = extract_spectrum(ps, transform_point_set(ps), args.threshold)
    count, weight = subspace_spectrum_stats(spec, w)
    rho = ps.size / 3**ps.n
    return dict(dim=w.dim, member_count=count, weight=str(weight),
                weight_normalized=weight / 3 ** (2 * ps.n), count_reference=reference,
                weight_reference=rho * rho * w.dim / ps.n), True


# -- energy ---------------------------------------------------------------------


def _cmd_energy_e4(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    return dict(size=ps.size, E4=str(e4(ps, backend=args.backend))), True


def _cmd_energy_e2m(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    value = e2m(ps, args.m)
    return dict(size=ps.size, E2m={str(args.m): str(value)}), True


def _cmd_energy_holder(args: argparse.Namespace) -> Result:
    rep = holder_check(load_point_set(args.set_file), args.m)
    return dict(m=rep.m, size=rep.size, E4=str(rep.e4),
                E8=None if rep.e8 is None else str(rep.e8), E2m=str(rep.e2m),
                part1_holds=rep.part1_holds, part2_holds=rep.part2_holds), rep.all_hold


def _cmd_energy_smoothing(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    if args.scale_n < 2:
        raise _UsageError("scale parameter must be at least 2")
    if ps.size == 0:
        raise _UsageError("smoothing exponent of the empty set is undefined")
    boundary = 30.0 * args.epsilon  # sigma_eff's breaking point
    if not math.isfinite(boundary):
        raise _UsageError(f"epsilon {args.epsilon!r} gives no finite boundary 30 * epsilon")
    e8 = e2m(ps, 4)
    sigma = math.log(e8) / math.log(args.scale_n) - 15.0  # E8 = scale_n^(15 + sigma)
    return dict(size=ps.size, scale_n=args.scale_n, epsilon=args.epsilon, E8=str(e8),
                sigma_eff=sigma, boundary=boundary, within_boundary=sigma <= boundary), True


def _cmd_energy_cross(args: argparse.Namespace) -> Result:
    pb = load_point_set(args.left)
    pc = load_point_set(args.right)
    count, rate = cross_quadruples(pb, pc)
    return dict(left_size=pb.size, right_size=pc.size, count=str(count),
                rate=frac_str(rate), rate_float=float(rate)), True


# -- structure ------------------------------------------------------------------


def _pick_band(bands, m_lo: int | None):
    if m_lo is None:
        return heaviest_band(bands)
    for band in bands:
        if band.m_lo == m_lo:
            return band
    raise _UsageError(f"no band with m_lo = {m_lo}")


def _cmd_structure_levels(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    n = ps.n  # alpha_eff solves m_lo = n^(1 + alpha), null for n = 1
    bands = [dict(m_lo=b.m_lo, m_hi=2 * b.m_lo, G_size=b.pair_count, D_size=b.diffs.size,
                  alpha_eff=math.log(b.m_lo) / math.log(n) - 1.0 if n >= 2 else None)
             for b in build_levels(ps)]
    return dict(n=ps.n, set_size=ps.size, band_count=len(bands), bands=bands), True


def _cmd_structure_komity(args: argparse.Namespace) -> Result:
    band = _pick_band(build_levels(load_point_set(args.set_file)), args.m_lo)
    return dict(m_lo=band.m_lo, D_size=band.diffs.size, G_size=band.pair_count,
                komity=str(komity(band))), True


def _cmd_structure_comity(args: argparse.Namespace) -> Result:
    band = _pick_band(build_levels(load_point_set(args.set_file)), args.m_lo)
    n = band.base.n
    rows = [dict(size_lo=b.size_lo, size_hi=2 * b.size_lo, pairs=b.pair_count, mass=str(b.mass),
                 beta_eff=math.log(b.size_lo) / math.log(n) if n >= 2 else None)
            for b in comity_scan(band)]
    return dict(m_lo=band.m_lo, D_size=band.diffs.size, G_size=band.pair_count,
                komity=str(komity(band)), bands=rows), True


def _cmd_structure_doubling(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    ratio = doubling_ratio(ps)
    span, fill = span_hull(ps)
    return dict(n=ps.n, size=ps.size, doubling=frac_str(ratio), doubling_float=float(ratio),
                span_dim=span.dim, span_fill=frac_str(fill)), True


def _cmd_structure_fibers(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    h = _parse_basis(args.h, ps.n)
    reps, sizes = fiber_sizes(ps, h)
    fibers = [dict(rep=rep, size=size)
              for rep, size in zip(bulk.index_text(ps.n, reps).split(), sizes.tolist())]
    return dict(n=ps.n, set_size=ps.size, dim_h=h.dim, fiber_count=len(reps),
                fibers=fibers), True


def _cmd_structure_martingale(args: argparse.Namespace) -> Result:
    ps = load_point_set(args.set_file)
    h = _parse_basis(args.h, ps.n)
    k = _parse_basis(args.k, ps.n)
    rep = fiber_plancherel_check(ps, h, k)
    return dict(dim_h=rep.dim_h, dim_k=rep.dim_k, lhs=str(rep.lhs), rhs=str(rep.rhs),
                h_term=str(rep.h_term), fiber_term=str(rep.fiber_term),
                raw_lhs=str(rep.raw_lhs), raw_rhs=str(rep.raw_rhs), holds=rep.holds), rep.holds


# -- random selection -----------------------------------------------------------


def _cmd_nullity_sim(args: argparse.Namespace) -> Result:
    source = args.input.removeprefix("spectrum-of:")
    if source == args.input and args.threshold is not None:
        raise _UsageError("--threshold applies only to a spectrum-of: input")
    ps = load_point_set(source)
    if source != args.input:  # the table goes inline: extract_spectrum drops it early
        threshold = 1 if args.threshold is None else args.threshold
        ps = extract_spectrum(ps, transform_point_set(ps), threshold).members
    return report_nullity(nullity_distribution(ps, args.d, args.trials, args.seed)), True


# -- selftest -------------------------------------------------------------------


def _cmd_selftest(args: argparse.Namespace) -> Result:
    ids = None
    if args.criteria:
        try:
            ids = sorted({int(p) for p in args.criteria.split(",") if p.strip()})
        except ValueError as exc:
            raise _UsageError(f"bad criteria list {args.criteria!r}") from exc
    t0 = time.time()
    report, ok = run_selftest(args.seed, ids, log=lambda line: print(line, file=sys.stderr))
    print(f"selftest finished in {time.time() - t0:.1f}s", file=sys.stderr)
    return report, ok  # opens with the same envelope the framer builds


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="tricap", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)
    groups: dict[str, Any] = {}

    def leaf(command: str, fn: Callable, out_kind: str = "report",
             csv: CsvForm | None = None) -> argparse.ArgumentParser:
        """The leaf at a command path; the csv format only where it has a table."""
        *group, name = command.split()
        subparsers = top
        if group:
            if group[0] not in groups:
                groups[group[0]] = top.add_parser(group[0]).add_subparsers(
                    dest="cmd", required=True)
            subparsers = groups[group[0]]
        sub = subparsers.add_parser(name)
        sub.set_defaults(fn=fn, command=command, out_kind=out_kind, csv=csv)
        formats = ("json", "csv", "text") if csv else ("json", "text")
        sub.add_argument("--format", choices=formats, default="json")
        sub.add_argument("--out", default=None, help="write the %s here" % out_kind)
        return sub

    increments = _table("increments", "codim", "density", "excess", "basis", "shift")

    s = leaf("capset gen", _cmd_capset_gen, out_kind="set file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=_int_at_least(0), required=True)
    s = leaf("capset verify", _cmd_capset_verify)
    s.add_argument("set_file")
    s = leaf("capset max", _cmd_capset_max, out_kind="witness set file")
    s.add_argument("--n", type=int, required=True)
    s = leaf("capset product", _cmd_capset_product, out_kind="set file")
    s.add_argument("left")
    s.add_argument("right")

    s = leaf("fourier transform", _cmd_fourier_transform, out_kind="table file")
    s.add_argument("set_file")
    s = leaf("fourier plancherel", _cmd_fourier_plancherel)
    s.add_argument("set_file")
    s = leaf("fourier cubesum", _cmd_fourier_cubesum)
    s.add_argument("set_file")

    s = leaf("spectrum extract", _cmd_spectrum_extract, csv=increments)
    s.add_argument("set_file")
    s.add_argument("--threshold", type=_threshold, default="1")
    s = leaf("spectrum increments", _cmd_spectrum_increments, csv=increments)
    s.add_argument("set_file")
    s.add_argument("--threshold", type=_threshold, default="1")
    s.add_argument("--codim", type=int, required=True)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=_int_at_least(0), default=SELFTEST_SEED)
    s = leaf("spectrum subspace", _cmd_spectrum_subspace)
    s.add_argument("set_file")
    s.add_argument("--threshold", type=_threshold, default="1")
    s.add_argument("--basis", required=True,
                   help="comma-separated trit strings spanning the subspace")
    s.add_argument("--epsilon", type=_finite_float, default=0.0)

    s = leaf("energy e4", _cmd_energy_e4)
    s.add_argument("set_file")
    s.add_argument("--backend", choices=("auto", "hash", "transform"), default="auto")
    s = leaf("energy e2m", _cmd_energy_e2m)
    s.add_argument("set_file")
    s.add_argument("--m", type=int, required=True)
    s = leaf("energy holder", _cmd_energy_holder)
    s.add_argument("set_file")
    s.add_argument("--m", type=int, required=True)
    s = leaf("energy smoothing", _cmd_energy_smoothing)
    s.add_argument("set_file")
    s.add_argument("--scale-n", type=int, required=True)
    s.add_argument("--epsilon", type=_finite_float, default=0.05)
    s = leaf("energy cross", _cmd_energy_cross)
    s.add_argument("left")
    s.add_argument("right")

    s = leaf("structure levels", _cmd_structure_levels,
             csv=_table("bands", "m_lo", "m_hi", "G_size", "D_size", "alpha_eff"))
    s.add_argument("set_file")
    s = leaf("structure komity", _cmd_structure_komity)
    s.add_argument("set_file")
    s.add_argument("--m-lo", type=int, default=None)
    s = leaf("structure comity", _cmd_structure_comity,
             csv=_table("bands", "size_lo", "size_hi", "pairs", "mass", "beta_eff"))
    s.add_argument("set_file")
    s.add_argument("--m-lo", type=int, default=None)
    s = leaf("structure doubling", _cmd_structure_doubling)
    s.add_argument("set_file")
    s = leaf("structure fibers", _cmd_structure_fibers, csv=_table("fibers", "rep", "size"))
    s.add_argument("set_file")
    s.add_argument("--h", required=True, help="comma-separated basis of H")
    s = leaf("structure martingale", _cmd_structure_martingale)
    s.add_argument("set_file")
    s.add_argument("--h", required=True, help="comma-separated basis of H")
    s.add_argument("--k", required=True, help="comma-separated basis of K, H <= K")

    s = leaf("nullity-sim", _cmd_nullity_sim, csv=nullity_csv_rows)
    s.add_argument("--input", required=True,
                   help="set file; prefix with spectrum-of: to draw from its spectrum")
    s.add_argument("--threshold", type=_threshold, help="spectrum threshold, default 1")
    s.add_argument("--d", type=_int_at_least(0), required=True)
    s.add_argument("--trials", type=_int_at_least(1), required=True)
    s.add_argument("--seed", type=_int_at_least(0), required=True)

    s = leaf("selftest", _cmd_selftest)
    s.add_argument("--seed", type=_int_at_least(0), default=SELFTEST_SEED)
    s.add_argument("--criteria", default=None,
                   help="comma-separated criterion ids, default all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _frame(args, *args.fn(args))
    except _UsageError as exc:
        print(f"tricap: {exc}", file=sys.stderr)
        return 1
    except GuardExceededError as exc:
        print(f"tricap: guard: {exc}", file=sys.stderr)
        return 3
    except IdentityViolationError as exc:
        print(f"tricap: identity violation: {exc}", file=sys.stderr)
        return 2
    except (SetFileError, DimensionMismatchError, ValueError, OSError) as exc:
        print(f"tricap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
