"""Command-line surface.

Every command reads point sets from the line-based set file format,
prints one canonical JSON report to stdout (or CSV/text where a tabular
form exists), and signals through the exit code: 0 success, 1 usage or
input problems, 2 a failed verification or violated identity, 3 a
resource guard. Progress and timing chatter goes to stderr only, so
stdout stays byte-deterministic for a given command line.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Any, Callable

from .capset import (
    count_line_solutions,
    exhaustive_max_capset,
    greedy_random_capset,
    is_capset,
    load_point_set,
    product_capset,
    save_point_set,
)
from .energy import cross_quadruples, e2m, e4, holder_check, smoothing_report
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
    report_comity,
    report_energy,
    report_fibers,
    report_holder,
    report_levels,
    report_martingale,
    report_nullity,
    report_smoothing,
    report_spectrum,
    report_subspace_stats,
)
from .linalg import Subspace
from .randomsel import nullity_distribution
from .selftest import SELFTEST_SEED, run_selftest
from .spectrum import (
    extract_spectrum,
    fiber_sizes,
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational number: {text!r}") from exc


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


def _emit(args: argparse.Namespace, report: dict[str, Any],
          csv_form: tuple[list[str], list[list[Any]]] | None = None) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_canonical(report))
    elif args.format == "csv":
        sys.stdout.write(render_csv(*csv_form))
    else:
        for key, value in _flatten(report):
            sys.stdout.write(f"{key}: {value}\n")
    if getattr(args, "out", None) and args.out_kind == "report":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(dumps_canonical(report))


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


# -- capset ---------------------------------------------------------------------


def _cmd_capset_gen(args: argparse.Namespace) -> int:
    ps = greedy_random_capset(args.n, args.seed)
    report = envelope("capset gen", args.seed)
    report.update(
        n=ps.n,
        size=ps.size,
        density=frac_str(ps.density()),
        is_capset=True,
        maximal=True,
    )
    if args.out:
        save_point_set(ps, args.out)
        _emit(args, report)
    else:
        save_point_set(ps, sys.stdout)
    return 0


def _cmd_capset_verify(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    lines = count_line_solutions(ps)
    cap = is_capset(ps)
    report = envelope("capset verify", None)
    report.update(
        n=ps.n, size=ps.size, density=frac_str(ps.density()),
        line_solutions=str(lines), is_capset=cap,
    )
    _emit(args, report)
    return 0 if cap else 2


def _cmd_capset_max(args: argparse.Namespace) -> int:
    size, witness = exhaustive_max_capset(args.n)
    report = envelope("capset max", None)
    report.update(
        n=args.n,
        maximum=size,
        witness=[str(v) for v in witness.vectors()],
    )
    if args.out:
        save_point_set(witness, args.out)
    _emit(args, report)
    return 0


def _cmd_capset_product(args: argparse.Namespace) -> int:
    pa = load_point_set(args.left)
    pb = load_point_set(args.right)
    prod = product_capset(pa, pb)
    if not args.out:
        save_point_set(prod, sys.stdout)
        return 0
    report = envelope("capset product", None)
    report.update(
        n=prod.n, left_size=pa.size, right_size=pb.size,
        size=prod.size, is_capset=is_capset(prod),
    )
    save_point_set(prod, args.out)
    _emit(args, report)
    return 0


# -- fourier --------------------------------------------------------------------


def _cmd_fourier_transform(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    table = transform_point_set(ps, force=args.force)
    report = envelope("fourier transform", None)
    report.update(
        n=ps.n,
        size=ps.size,
        zero_coefficient=str(ps.size),
        norm_total=str(table.norm_total()),
        plancherel=str(3**ps.n * ps.size),
    )
    if args.out:
        save_table(table, args.out)
    _emit(args, report)
    return 0


def _cmd_fourier_plancherel(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    lhs, rhs = plancherel_check(ps, force=args.force)
    report = envelope("fourier plancherel", None)
    report.update(n=ps.n, size=ps.size, lhs=str(lhs), rhs=str(rhs), equal=lhs == rhs)
    _emit(args, report)
    return 0 if lhs == rhs else 2


def _cmd_fourier_cubesum(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    cs = cube_sum(ps, force=args.force)
    lines = count_line_solutions(ps)
    expected = Eisenstein(3**ps.n * lines, 0)
    report = envelope("fourier cubesum", None)
    report.update(
        n=ps.n, size=ps.size,
        real=str(cs.p), omega=str(cs.q),
        line_solutions=str(lines),
        expected_real=str(expected.p),
        matches=cs == expected,
        is_capset=lines == ps.size,
    )
    _emit(args, report)
    return 0 if cs == expected else 2


# -- spectrum -------------------------------------------------------------------


def _increment_csv(report: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    header = ["codim", "density", "excess", "basis", "shift"]
    rows = [
        [r["codim"], r["density"], r["excess"], ";".join(r["basis"]), r["shift"]]
        for r in report["increments"]
    ]
    return header, rows


def _cmd_spectrum_extract(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    spec = extract_spectrum(ps, _parse_fraction(args.threshold), force=args.force)
    increments = scan_codim1_increments(ps, force=args.force) if ps.n >= 2 else []
    report = envelope("spectrum extract", None)
    report.update(report_spectrum(spec, increments))
    _emit(args, report, _increment_csv(report))
    return 0


def _cmd_spectrum_increments(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    spec = extract_spectrum(ps, _parse_fraction(args.threshold), force=args.force)
    found = sampled_increment_checks(spec, args.codim, args.samples, args.seed)
    report = envelope("spectrum increments", args.seed)
    report.update(report_spectrum(spec, found))
    _emit(args, report, _increment_csv(report))
    return 0


def _cmd_spectrum_subspace(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    spec = extract_spectrum(ps, _parse_fraction(args.threshold), force=args.force)
    w = _parse_basis(args.basis, ps.n)
    stats = subspace_spectrum_stats(spec, w, epsilon=args.epsilon)
    report = envelope("spectrum subspace", None)
    report.update(report_subspace_stats(stats))
    _emit(args, report)
    return 0


# -- energy ---------------------------------------------------------------------


def _cmd_energy_e4(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    value = e4(ps, backend=args.backend)
    report = envelope("energy e4", None)
    report.update(report_energy(ps.size, value, {}))
    _emit(args, report)
    return 0


def _cmd_energy_e2m(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    value = e2m(ps, args.m, force=args.force)
    report = envelope("energy e2m", None)
    report.update(report_energy(ps.size, None, {args.m: value}))
    _emit(args, report)
    return 0


def _cmd_energy_holder(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    rep = holder_check(ps, args.m)
    report = envelope("energy holder", None)
    report.update(report_holder(rep))
    _emit(args, report)
    return 0 if rep.all_hold else 2


def _cmd_energy_smoothing(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    rep = smoothing_report(ps, args.scale_n, epsilon=args.epsilon, force=args.force)
    report = envelope("energy smoothing", None)
    report.update(report_smoothing(rep))
    _emit(args, report)
    return 0


def _cmd_energy_cross(args: argparse.Namespace) -> int:
    pb = load_point_set(args.left)
    pc = load_point_set(args.right)
    count, rate = cross_quadruples(pb, pc)
    report = envelope("energy cross", None)
    report.update(
        left_size=pb.size, right_size=pc.size,
        count=str(count), rate=frac_str(rate), rate_float=float(rate),
    )
    _emit(args, report)
    return 0


# -- structure ------------------------------------------------------------------


def _pick_band(bands, m_lo: int | None):
    if m_lo is None:
        return heaviest_band(bands)
    for band in bands:
        if band.m_lo == m_lo:
            return band
    raise _UsageError(f"no band with m_lo = {m_lo}")


def _cmd_structure_levels(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    report = envelope("structure levels", None)
    report.update(report_levels(ps, build_levels(ps)))
    header = ["m_lo", "m_hi", "G_size", "D_size", "alpha_eff"]
    rows = [[b["m_lo"], b["m_hi"], b["G_size"], b["D_size"], b["alpha_eff"]]
            for b in report["bands"]]
    _emit(args, report, (header, rows))
    return 0


def _cmd_structure_komity(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    band = _pick_band(build_levels(ps), args.m_lo)
    value = komity(band)
    report = envelope("structure komity", None)
    report.update(
        m_lo=band.m_lo, D_size=band.diffs.size, G_size=band.pair_count,
        komity=str(value),
    )
    _emit(args, report)
    return 0


def _cmd_structure_comity(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    band = _pick_band(build_levels(ps), args.m_lo)
    bands = comity_scan(band, force=args.force)
    report = envelope("structure comity", None)
    report.update(report_comity(band, bands, komity(band)))
    header = ["size_lo", "size_hi", "pairs", "mass", "beta_eff"]
    rows = [[b["size_lo"], b["size_hi"], b["pairs"], b["mass"], b["beta_eff"]]
            for b in report["bands"]]
    _emit(args, report, (header, rows))
    return 0


def _cmd_structure_doubling(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    ratio = doubling_ratio(ps)
    span, fill = span_hull(ps)
    report = envelope("structure doubling", None)
    report.update(
        n=ps.n, size=ps.size,
        doubling=frac_str(ratio), doubling_float=float(ratio),
        span_dim=span.dim, span_fill=frac_str(fill),
    )
    _emit(args, report)
    return 0


def _cmd_structure_fibers(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    h = _parse_basis(args.h, ps.n)
    report = envelope("structure fibers", None)
    report.update(report_fibers(ps, h.dim, *fiber_sizes(ps, h)))
    header = ["rep", "size"]
    rows = [[f["rep"], f["size"]] for f in report["fibers"]]
    _emit(args, report, (header, rows))
    return 0


def _cmd_structure_martingale(args: argparse.Namespace) -> int:
    ps = load_point_set(args.set_file)
    h = _parse_basis(args.h, ps.n)
    k = _parse_basis(args.k, ps.n)
    rep = fiber_plancherel_check(ps, h, k, force=args.force)
    report = envelope("structure martingale", None)
    report.update(report_martingale(rep))
    _emit(args, report)
    return 0 if rep.holds else 2


# -- random selection -----------------------------------------------------------


def _cmd_nullity_sim(args: argparse.Namespace) -> int:
    path = args.input
    through_spectrum = path.startswith("spectrum-of:")
    ps = load_point_set(path.removeprefix("spectrum-of:"))
    if through_spectrum:
        ps = extract_spectrum(ps, _parse_fraction(args.threshold), force=args.force).members
    exp = nullity_distribution(ps, args.d, args.trials, args.seed)
    report = envelope("nullity-sim", args.seed)
    report.update(report_nullity(exp))
    _emit(args, report, nullity_csv_rows(exp))
    return 0


# -- selftest -------------------------------------------------------------------


def _cmd_selftest(args: argparse.Namespace) -> int:
    ids = None
    if args.criteria:
        try:
            ids = sorted({int(p) for p in args.criteria.split(",") if p.strip()})
        except ValueError as exc:
            raise _UsageError(f"bad criteria list {args.criteria!r}") from exc
    t0 = time.time()
    report, ok = run_selftest(args.seed, ids, log=lambda line: print(line, file=sys.stderr))
    print(f"selftest finished in {time.time() - t0:.1f}s", file=sys.stderr)
    _emit(args, report)
    return 0 if ok else 2


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="tricap", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(subparsers, name: str, fn: Callable, out_kind: str = "report",
             force: bool = False, csv: bool = False) -> argparse.ArgumentParser:
        """A leaf command; --force and the csv format only where it honours them."""
        sub = subparsers.add_parser(name)
        sub.set_defaults(fn=fn, out_kind=out_kind)
        formats = ("json", "csv", "text") if csv else ("json", "text")
        sub.add_argument("--format", choices=formats, default="json")
        sub.add_argument("--out", default=None, help="write the %s here" % out_kind)
        if force:
            sub.add_argument("--force", action="store_true", help="lift soft guards")
        return sub

    cap = top.add_parser("capset").add_subparsers(dest="cmd", required=True)
    s = leaf(cap, "gen", _cmd_capset_gen, out_kind="set file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s = leaf(cap, "verify", _cmd_capset_verify)
    s.add_argument("set_file")
    s = leaf(cap, "max", _cmd_capset_max, out_kind="witness set file")
    s.add_argument("--n", type=int, required=True)
    s = leaf(cap, "product", _cmd_capset_product, out_kind="set file")
    s.add_argument("left")
    s.add_argument("right")

    fourier = top.add_parser("fourier").add_subparsers(dest="cmd", required=True)
    s = leaf(fourier, "transform", _cmd_fourier_transform, out_kind="table file",
             force=True)
    s.add_argument("set_file")
    s = leaf(fourier, "plancherel", _cmd_fourier_plancherel, force=True)
    s.add_argument("set_file")
    s = leaf(fourier, "cubesum", _cmd_fourier_cubesum, force=True)
    s.add_argument("set_file")

    spectrum = top.add_parser("spectrum").add_subparsers(dest="cmd", required=True)
    s = leaf(spectrum, "extract", _cmd_spectrum_extract, force=True, csv=True)
    s.add_argument("set_file")
    s.add_argument("--threshold", default="1")
    s = leaf(spectrum, "increments", _cmd_spectrum_increments, force=True, csv=True)
    s.add_argument("set_file")
    s.add_argument("--threshold", default="1")
    s.add_argument("--codim", type=int, required=True)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=int, default=SELFTEST_SEED)
    s = leaf(spectrum, "subspace", _cmd_spectrum_subspace, force=True)
    s.add_argument("set_file")
    s.add_argument("--threshold", default="1")
    s.add_argument("--basis", required=True,
                   help="comma-separated trit strings spanning the subspace")
    s.add_argument("--epsilon", type=float, default=0.0)

    energy = top.add_parser("energy").add_subparsers(dest="cmd", required=True)
    s = leaf(energy, "e4", _cmd_energy_e4)
    s.add_argument("set_file")
    s.add_argument("--backend", choices=("auto", "hash", "transform"), default="auto")
    s = leaf(energy, "e2m", _cmd_energy_e2m, force=True)
    s.add_argument("set_file")
    s.add_argument("--m", type=int, required=True)
    s = leaf(energy, "holder", _cmd_energy_holder)
    s.add_argument("set_file")
    s.add_argument("--m", type=int, required=True)
    s = leaf(energy, "smoothing", _cmd_energy_smoothing, force=True)
    s.add_argument("set_file")
    s.add_argument("--scale-n", type=int, required=True)
    s.add_argument("--epsilon", type=float, default=0.05)
    s = leaf(energy, "cross", _cmd_energy_cross)
    s.add_argument("left")
    s.add_argument("right")

    structure = top.add_parser("structure").add_subparsers(dest="cmd", required=True)
    s = leaf(structure, "levels", _cmd_structure_levels, csv=True)
    s.add_argument("set_file")
    s = leaf(structure, "komity", _cmd_structure_komity)
    s.add_argument("set_file")
    s.add_argument("--m-lo", type=int, default=None)
    s = leaf(structure, "comity", _cmd_structure_comity, force=True, csv=True)
    s.add_argument("set_file")
    s.add_argument("--m-lo", type=int, default=None)
    s = leaf(structure, "doubling", _cmd_structure_doubling)
    s.add_argument("set_file")
    s = leaf(structure, "fibers", _cmd_structure_fibers, csv=True)
    s.add_argument("set_file")
    s.add_argument("--h", required=True, help="comma-separated basis of H")
    s = leaf(structure, "martingale", _cmd_structure_martingale, force=True)
    s.add_argument("set_file")
    s.add_argument("--h", required=True, help="comma-separated basis of H")
    s.add_argument("--k", required=True, help="comma-separated basis of K, H <= K")

    s = leaf(top, "nullity-sim", _cmd_nullity_sim, force=True, csv=True)
    s.add_argument("--input", required=True,
                   help="set file; prefix with spectrum-of: to draw from its spectrum")
    s.add_argument("--threshold", default="1")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)

    s = leaf(top, "selftest", _cmd_selftest)
    s.add_argument("--seed", type=int, default=SELFTEST_SEED)
    s.add_argument("--criteria", default=None,
                   help="comma-separated criterion ids, default all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
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
