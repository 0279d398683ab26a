"""Built-in acceptance suite.

Eleven checks, each independent, each deterministic given the seed.
They exercise the identities this package is built around at the scales
where an independent recount is feasible: transform identities against
direct counting, energies against brute enumeration, the exhaustive
maxima against a naive search, and every randomized report against a
byte-for-byte rerun.

No check entry ever contains a timing or anything else that varies
between runs; determinism of the whole report is itself criterion 11.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from . import bulk
from .capset import (
    PointSet,
    count_line_solutions,
    exhaustive_max_capset,
    greedy_random_capset,
    is_capset,
    product_capset,
    random_point_set,
)
from .energy import e2m, e4, holder_check
from .fourier import cube_sum, plancherel_check
from .gf3core import Eisenstein, TritVector, plane_add
from .jsonio import dumps_canonical, envelope, report_nullity
from .linalg import Subspace
from .randomsel import (
    g_exact,
    h_exact,
    nullity_distribution,
    sample_without_replacement,
    simulate_g_frequencies,
)
from .rng import make_rng
from .spectrum import AffineSubspace, coset_counts, extract_spectrum, strong_increment_check
from .structure import build_levels, comity_scan, fiber_plancherel_check, komity, komity_reference

__all__ = ["SELFTEST_SEED", "criterion_ids", "run_criterion", "run_selftest"]

SELFTEST_SEED = 31020
_DETERMINISM_SUBSET = (7, 8, 9)


def _c1_plancherel(seed: int) -> tuple[bool, dict]:
    """Transform weight equals 3^n times the set size, 1000 random sets."""
    checked = 0
    for i in range(1000):
        n = 4 + i % 7
        rng = make_rng(seed, 101, i)
        size = int(rng.integers(1, 3**n // 2 + 1))
        ps = random_point_set(n, size, rng)
        lhs, rhs = plancherel_check(ps)
        if lhs != rhs:
            return False, {"failed_at": i, "n": n, "size": size}
        checked += 1
    return True, {"sets": checked, "dims": "4..10"}


def _c2_cube_sums(seed: int) -> tuple[bool, dict]:
    """Cube sums detect caps: greedy caps and product caps, n = 4..10."""
    checked = []
    for n in range(4, 11):
        ps = greedy_random_capset(n, seed + n)
        if not is_capset(ps):
            return False, {"stage": "greedy", "n": n}
        if cube_sum(ps) != Eisenstein(3**n * count_line_solutions(ps), 0):
            return False, {"stage": "greedy-cube", "n": n}
        if cube_sum(ps) != Eisenstein(3**n * ps.size, 0):
            return False, {"stage": "greedy-cap-cube", "n": n}
        checked.append(ps.size)
    products = 0
    for na, nb in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        pa = greedy_random_capset(na, seed + 71)
        pb = greedy_random_capset(nb, seed + 72)
        prod = product_capset(pa, pb)
        n = na + nb
        if not is_capset(prod):
            return False, {"stage": "product", "n": n}
        if cube_sum(prod) != Eisenstein(3**n * prod.size, 0):
            return False, {"stage": "product-cube", "n": n}
        products += 1
    return True, {"greedy_sizes": checked, "products": products}


def _membership_quadruples(ps: PointSet) -> int:
    """a + b - c membership count over all (a, b, c); avoids sumset tables."""
    lo, hi = ps.planes()
    zlo, zhi = plane_add(lo[:, None], hi[:, None], lo[None, :], hi[None, :])
    zlo, zhi = zlo.ravel(), zhi.ravel()
    total = 0
    for j in range(ps.size):
        dlo, dhi = plane_add(zlo, zhi, hi[j], lo[j])  # z - c, negation by swap
        total += int(ps.contains_indices(bulk.planes_to_indices(ps.n, dlo, dhi)).sum())
    return total


def _c3_energy_dual(seed: int) -> tuple[bool, dict]:
    """E4 via hash backend, transform backend, and direct counting."""
    for i in range(200):
        n = 2 + i % 7
        rng = make_rng(seed, 103, i)
        size = int(rng.integers(1, min(3**n, 120) + 1))
        ps = random_point_set(n, size, rng)
        if e4(ps, backend="hash") != e4(ps, backend="transform"):
            return False, {"stage": "backends", "i": i}
        if e4(ps, backend="hash") != e2m(ps, 2):
            return False, {"stage": "e2m", "i": i}
    for i in range(50):
        n = 2 + i % 5
        rng = make_rng(seed, 104, i)
        size = int(rng.integers(1, min(3**n, 60) + 1))
        ps = random_point_set(n, size, rng)
        if e4(ps) != _membership_quadruples(ps):
            return False, {"stage": "membership", "i": i}
    for i in range(5):
        rng = make_rng(seed, 105, i)
        n = 2 + i % 3
        size = int(rng.integers(1, min(3**n, 18) + 1))
        ps = random_point_set(n, size, rng)
        vecs = ps.vectors()
        brute = sum(
            1
            for a in vecs
            for b in vecs
            for c in vecs
            if ps.contains(a + b - c)
        )
        if e4(ps) != brute:
            return False, {"stage": "brute", "i": i}
    return True, {"dual": 200, "membership": 50, "brute": 5}


def _c4_holder(seed: int) -> tuple[bool, dict]:
    """Interpolation inequalities on random sets, equality on subspaces."""
    for i in range(100):
        n = 2 + i % 6
        rng = make_rng(seed, 106, i)
        size = int(rng.integers(1, min(3**n, 100) + 1))
        ps = random_point_set(n, size, rng)
        for m in (3, 4, 5):
            rep = holder_check(ps, m)
            if not rep.part1_holds:
                return False, {"stage": "part1", "i": i, "m": m}
            if m >= 4 and not rep.part2_holds:
                return False, {"stage": "part2", "i": i, "m": m}
    for d in (1, 2, 3):
        n = d + 1
        sub = Subspace.span([TritVector.unit(n, j) for j in range(d)], n)
        ps = PointSet(n, sub.enumerate_indices())
        for m in (3, 4, 5):
            rep = holder_check(ps, m)
            if rep.e2m != 3 ** ((2 * m - 1) * d):
                return False, {"stage": "subspace-value", "d": d, "m": m}
            if rep.e4 ** (m - 1) != rep.e2m * ps.size ** (m - 2):
                return False, {"stage": "subspace-eq1", "d": d, "m": m}
            if m >= 4 and rep.e8 ** (m - 1) != rep.e2m**3 * ps.size ** (m - 4):
                return False, {"stage": "subspace-eq2", "d": d, "m": m}
    return True, {"random_sets": 100, "subspace_dims": [1, 2, 3]}


def _naive_max_capset(n: int) -> int:
    """Plain depth-first maximum, no bounds beyond the line rule."""
    size = 3**n
    vecs = [TritVector.from_index(n, i) for i in range(size)]
    third = [
        [(-(vecs[i] + vecs[j])).index for j in range(size)] for i in range(size)
    ]
    best = 0

    def dfs(start: int, members: list[int], forb: int) -> None:
        nonlocal best
        if len(members) > best:
            best = len(members)
        for p in range(start, size):
            if (forb >> p) & 1:
                continue
            nf = forb
            for m in members:
                nf |= 1 << third[m][p]
            members.append(p)
            dfs(p + 1, members, nf)
            members.pop()

    dfs(0, [], 0)
    return best


def _c5_exhaustive(seed: int) -> tuple[bool, dict]:
    """Exact maxima 2, 4, 9, 20 with witnesses, naive recount for n <= 3."""
    expected = {1: 2, 2: 4, 3: 9, 4: 20}
    sizes = {}
    for n in range(1, 5):
        m, w = exhaustive_max_capset(n)
        if m != expected[n] or w.size != m or not is_capset(w):
            return False, {"n": n, "got": m, "witness": w.size}
        sizes[n] = m
    for n in range(1, 4):
        if _naive_max_capset(n) != expected[n]:
            return False, {"stage": "naive", "n": n}
    return True, {"maxima": sizes}


def _c6_fiber_martingale(seed: int) -> tuple[bool, dict]:
    """Fiber identity on 100 random (set, H <= K) instances."""
    for i in range(100):
        rng = make_rng(seed, 107, i)
        n = 4 + i % 6
        size = int(rng.integers(1, 3**n // 2 + 1))
        ps = random_point_set(n, size, rng)
        dim_k = 1 + i % 5
        gens = [
            TritVector.from_index(n, int(v))
            for v in rng.integers(1, 3**n, size=dim_k)
        ]
        k = Subspace.span(gens, n)
        if k.dim == 0:
            k = Subspace.span([TritVector.unit(n, 0)], n)
        dim_h = i % (k.dim + 1)
        h = Subspace.span(list(k.basis[:dim_h]), n)
        rep = fiber_plancherel_check(ps, h, k)
        if not rep.holds:
            return False, {"i": i, "n": n, "dim_h": h.dim, "dim_k": k.dim}
        if i % 10 == 0:
            degenerate = fiber_plancherel_check(ps, h, h)
            if not degenerate.holds:
                return False, {"i": i, "stage": "degenerate"}
    return True, {"instances": 100, "degenerate_checks": 10}


def _c7_komity(seed: int) -> tuple[bool, dict]:
    """Neighborhood second moment: identity vs definition vs histogram."""
    structures = 0
    for i in range(50):
        rng = make_rng(seed, 108, i)
        n = 3 + i % 4
        size = int(rng.integers(4, min(3**n, 14) + 1))
        ps = random_point_set(n, size, rng)
        levels = build_levels(ps)
        picks = [levels.heaviest(), levels.bands[0]]
        for struct in picks:
            kv = komity(struct)
            if kv != komity_reference(struct):
                return False, {"i": i, "stage": "reference", "m_lo": struct.m_lo}
            mass = sum(b.mass for b in comity_scan(struct))
            if mass != kv:
                return False, {"i": i, "stage": "histogram", "m_lo": struct.m_lo}
            structures += 1
    return True, {"structures": structures}


def _c8_selection(seed: int) -> tuple[bool, dict]:
    """Exact selection combinatorics plus a Monte Carlo consistency check."""
    for d in range(1, 65):
        if sum(g_exact(k, d) for k in range(d + 1)) != 1:
            return False, {"stage": "sum", "d": d}
        for k in range(3, d):
            if not g_exact(k + 1, d) < g_exact(k, d) / 2:
                return False, {"stage": "halving", "d": d, "k": k}
    if h_exact(2, 1) != 96:
        return False, {"stage": "h-value"}
    for m in range(1, 6):
        for k in range(1, 20):
            if not h_exact(m, k + 1) > h_exact(m, k):
                return False, {"stage": "h-monotone", "m": m, "k": k}
    trials = 100_000
    for d in (4, 16, 64):
        freq = simulate_g_frequencies(d, trials, seed)
        for k in range(d + 1):
            g = g_exact(k, d)
            sigma = float(g * (1 - g) / trials) ** 0.5
            observed = freq.get(k, 0) / trials
            if abs(observed - float(g)) > 3 * sigma:
                return False, {"stage": "monte-carlo", "d": d, "k": k}
    return True, {"d_max": 64, "mc_trials": trials, "mc_d": [4, 16, 64]}


def _c9_nullity(seed: int) -> tuple[bool, dict]:
    """Byte-identical nullity reports, sane tails, 2^-k overlay present."""
    base = greedy_random_capset(12, seed + 912)
    spec = extract_spectrum(base)
    if spec.size < 12:
        return False, {"stage": "spectrum-size", "size": spec.size}
    a = nullity_distribution(spec.members, 12, 1000, seed)
    b = nullity_distribution(spec.members, 12, 1000, seed)
    ra = dumps_canonical(report_nullity(a))
    rb = dumps_canonical(report_nullity(b))
    if ra != rb:
        return False, {"stage": "reproducibility"}
    rows = a.tail_rows()
    for (k1, t1, r1), (k2, t2, r2) in zip(rows, rows[1:]):
        if t2 > t1:
            return False, {"stage": "tail-monotone", "k": k2}
        if r2 != r1 / 2:
            return False, {"stage": "overlay", "k": k2}
    s1 = sample_without_replacement(spec.members, 12, seed, 5)
    s2 = sample_without_replacement(spec.members, 12, seed, 5)
    if s1 != s2:
        return False, {"stage": "sample-determinism"}
    return True, {
        "source_size": spec.members.size,
        "trials": a.trials,
        "histogram": {str(k): v for k, v in a.histogram.items()},
    }


def _c10_spectrum(seed: int) -> tuple[bool, dict]:
    """Spectrum shape on a hyperplane, symmetry, monotonicity, boundary."""
    x0 = TritVector.unit(6, 0)
    plane = PointSet(6, Subspace.span([x0], 6).annihilator().enumerate_indices())
    spec = extract_spectrum(plane)
    want = sorted((x0.index, x0.scale(2).index))
    if [int(i) for i in spec.members.indices] != want:
        return False, {"stage": "hyperplane-members"}
    k0, k1, k2 = coset_counts(plane, x0)
    if (k0, k1, k2) != (plane.size, 0, 0):
        return False, {"stage": "hyperplane-cosets"}

    big = PointSet(10, Subspace.span([TritVector.unit(10, 0)], 10).annihilator().enumerate_indices())
    aff = AffineSubspace(
        Subspace.span([TritVector.unit(10, 0)], 10).annihilator(),
        TritVector.zero(10),
    )
    rep = strong_increment_check(big, aff)
    if not rep.is_increment or rep.excess != 0:
        return False, {"stage": "boundary-increment"}

    for i in range(50):
        rng = make_rng(seed, 109, i)
        n = 3 + i % 6
        size = int(rng.integers(1, 3**n // 2 + 1))
        ps = random_point_set(n, size, rng)
        spec1 = extract_spectrum(ps, Fraction(1))
        neg = spec1.members.negate()
        if spec1.members != neg:
            return False, {"stage": "symmetry", "i": i}
        for x in list(spec1.members.vectors())[:20]:
            if spec1.norm_of(x) != spec1.norm_of(-x):
                return False, {"stage": "norm-symmetry", "i": i}
        lo = extract_spectrum(ps, Fraction(1, 2)).members
        hi = extract_spectrum(ps, Fraction(2)).members
        s_mid = set(spec1.members.indices.tolist())
        if not set(hi.indices.tolist()) <= s_mid <= set(lo.indices.tolist()):
            return False, {"stage": "monotone", "i": i}
        if ps.size:
            x = TritVector.from_index(n, int(rng.integers(1, 3**n)))
            counts = coset_counts(ps, x)
            if sum(counts) != ps.size:
                return False, {"stage": "coset-total", "i": i}
            lop, hip = ps.planes()
            dots = bulk.dots_with(lop, hip, x)
            direct = tuple(int((dots == j).sum()) for j in range(3))
            if counts != direct:
                return False, {"stage": "coset-direct", "i": i}
    return True, {"hyperplane_n": 6, "boundary_n": 10, "random_sets": 50}


def _c11_determinism(seed: int) -> tuple[bool, dict]:
    """A randomized subset of the suite, run twice, compared byte-wise."""
    first = _run_many(_DETERMINISM_SUBSET, seed)
    second = _run_many(_DETERMINISM_SUBSET, seed)
    a = dumps_canonical({"criteria": first})
    b = dumps_canonical({"criteria": second})
    if a != b:
        return False, {"stage": "bytes", "subset": list(_DETERMINISM_SUBSET)}
    return True, {"subset": list(_DETERMINISM_SUBSET), "bytes": len(a)}


_CRITERIA: dict[int, tuple[str, Callable[[int], tuple[bool, dict]]]] = {
    1: ("plancherel-identity", _c1_plancherel),
    2: ("cube-sum-caps", _c2_cube_sums),
    3: ("energy-dual", _c3_energy_dual),
    4: ("holder-interpolation", _c4_holder),
    5: ("exhaustive-maxima", _c5_exhaustive),
    6: ("fiber-martingale", _c6_fiber_martingale),
    7: ("komity-identity", _c7_komity),
    8: ("selection-combinatorics", _c8_selection),
    9: ("nullity-reproducibility", _c9_nullity),
    10: ("spectrum-invariants", _c10_spectrum),
    11: ("determinism", _c11_determinism),
}


def criterion_ids() -> list[int]:
    return sorted(_CRITERIA)


def run_criterion(cid: int, seed: int = SELFTEST_SEED) -> dict:
    if cid not in _CRITERIA:
        raise ValueError(f"unknown criterion {cid}")
    name, fn = _CRITERIA[cid]
    ok, details = fn(seed)
    return {"id": cid, "name": name, "pass": ok, "details": details}


def _run_many(ids: Iterable[int], seed: int) -> list[dict]:
    return [run_criterion(cid, seed) for cid in ids]


def run_selftest(
    seed: int = SELFTEST_SEED,
    criteria: Iterable[int] | None = None,
    log: Callable[[str], None] | None = None,
) -> tuple[dict, bool]:
    """Run the suite and build the canonical report.

    ``log`` receives one human-readable line per criterion as results
    arrive; the returned report contains no timing and is byte-stable.
    """
    ids = sorted(criteria) if criteria is not None else criterion_ids()
    entries = []
    for cid in ids:
        entry = run_criterion(cid, seed)
        entries.append(entry)
        if log is not None:
            state = "PASS" if entry["pass"] else "FAIL"
            log(f"criterion {cid}: {state} ({entry['name']})")
    report = envelope("selftest", seed)
    report["criteria"] = entries
    report["all_pass"] = all(e["pass"] for e in entries)
    return report, report["all_pass"]
