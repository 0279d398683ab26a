"""Naive reference implementations used to pin expected values.

Everything here works on base-3 digit tuples and pure Python integers,
with no imports from the package under test. The implementations favor
the most literal reading of each definition over speed; keep them on
inputs small enough that cubic or quartic loops finish instantly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Eisenstein pairs (p, q) meaning p + q*w, w a primitive cube root of 1.
# w^2 = -1 - w, so (p, q)(r, s) = pr + (ps + qr) w + qs w^2.

E_ONE = (1, 0)
E_ZERO = (0, 0)
CHAR = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}


def e_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def e_mul(a, b):
    p, q = a
    r, s = b
    return (p * r - q * s, p * s + q * r - q * s)


def e_norm(a):
    p, q = a
    return p * p - p * q + q * q


def all_points(n):
    return list(itertools.product(range(3), repeat=n))


def digits(s):
    return tuple(int(c) for c in s)


def to_string(d):
    return "".join(str(t) for t in d)


def vec_add(a, b):
    return tuple((x + y) % 3 for x, y in zip(a, b))


def vec_neg(a):
    return tuple((-x) % 3 for x in a)


def vec_sub(a, b):
    return vec_add(a, vec_neg(b))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b)) % 3


def point_index(d):
    # leftmost digit is the most significant base-3 digit
    i = 0
    for t in d:
        i = 3 * i + t
    return i


def naive_dft(points, n):
    """Character sum at every frequency; dict keyed by digit tuple."""
    out = {}
    for x in all_points(n):
        acc = E_ZERO
        for a in points:
            acc = e_add(acc, CHAR[dot(x, a)])
        out[x] = acc
    return out


def naive_transform(values, n):
    """c(x) = sum_a f(a) w^(x.a) for f given by canonical index; a list."""
    out = [E_ZERO] * 3**n
    for x in all_points(n):
        acc = E_ZERO
        for a in all_points(n):
            acc = e_add(acc, e_mul((values[point_index(a)], 0), CHAR[dot(x, a)]))
        out[point_index(x)] = acc
    return out


def naive_line_solutions(points):
    """Ordered triples (a, b, c) from the set with a + b + c = 0."""
    members = set(points)
    count = 0
    for a in points:
        for b in points:
            c = vec_neg(vec_add(a, b))
            if c in members:
                count += 1
    return count


def naive_is_capset(points):
    """No three distinct points sum to zero."""
    members = set(points)
    for a, b in itertools.combinations(points, 2):
        c = vec_neg(vec_add(a, b))
        if c in members and c != a and c != b:
            return False
    return True


def naive_diff_counts(points):
    out = {}
    for a in points:
        for b in points:
            d = vec_sub(a, b)
            out[d] = out.get(d, 0) + 1
    return out


def naive_e4(points):
    return sum(m * m for m in naive_diff_counts(points).values())


def naive_e2m(points, m):
    """Count 2m-tuples with first half summing to the second half's sum."""
    by_sum = {}
    for combo in itertools.product(points, repeat=m):
        s = combo[0]
        for p in combo[1:]:
            s = vec_add(s, p)
        by_sum[s] = by_sum.get(s, 0) + 1
    return sum(c * c for c in by_sum.values())


def naive_cross_quadruples(bs, cs):
    """Quadruples (b, b', c, c') with b + c = b' + c'."""
    by_sum = {}
    for b in bs:
        for c in cs:
            s = vec_add(b, c)
            by_sum[s] = by_sum.get(s, 0) + 1
    return sum(v * v for v in by_sum.values())


def naive_comity(points, diffs):
    """[(size_lo, pairs, mass)] over the dyadic bands of |G[x] & G[y]|.

    G[x] = {a in points : a - x in points}; every ordered pair (x, y) of
    diffs with a nonempty intersection lands in the band
    size_lo <= |G[x] & G[y]| < 2 size_lo, ascending by size_lo.
    """
    members = set(points)
    hoods = [{a for a in points if vec_sub(a, x) in members} for x in diffs]
    bands = {}
    for gx in hoods:
        for gy in hoods:
            s = len(gx & gy)
            if s:
                size_lo = 1
                while 2 * size_lo <= s:
                    size_lo *= 2
                pairs, mass = bands.get(size_lo, (0, 0))
                bands[size_lo] = (pairs + 1, mass + s)
    return [(lo, pairs, mass) for lo, (pairs, mass) in sorted(bands.items())]


def naive_rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % 3:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 if rows[rank][col] % 3 == 1 else 2
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % 3:
                f = rows[r][col] % 3
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_nullity(vectors):
    return len(vectors) - naive_rank(vectors)


def naive_span(vectors, n):
    """All points in the linear span, as a set of digit tuples."""
    basis = []
    for v in vectors:
        if naive_rank(basis + [v]) > len(basis):
            basis.append(v)
    span = {tuple([0] * n)}
    for b in basis:
        b2 = vec_add(b, b)
        span = {vec_add(s, m) for s in span for m in [tuple([0] * n), b, b2]}
    return span


def naive_coset_counts(points, x):
    """Sizes of the three level sets of a -> x . a."""
    counts = [0, 0, 0]
    for a in points:
        counts[dot(x, a)] += 1
    return tuple(counts)


def naive_max_capset(n):
    """Largest cap by depth-first search over index order."""
    pts = all_points(n)
    best = [0]

    def grow(start, chosen):
        best[0] = max(best[0], len(chosen))
        for i in range(start, len(pts)):
            p = pts[i]
            neg_p = vec_neg(p)
            if all(vec_add(a, b) != neg_p for a, b in itertools.combinations(chosen, 2)):
                chosen.append(p)
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return best[0]


def naive_martingale_sides(points, h_basis, k_basis, n):
    """Both sides of the fiber variance identity, from the definitions.

    H and K are given by bases (lists of digit tuples), H inside K. The
    left side is |H| times the spectrum weight of K minus the zero term;
    the right side splits into the coarse variance term plus |H|^2 times
    the within-fiber weight over a transversal of H inside K.
    """
    h_pts = naive_span(h_basis, n)
    k_pts = naive_span(k_basis, n)
    size = len(points)
    dft = naive_dft(points, n)
    lhs = len(h_pts) * sum(
        e_norm(dft[k]) for k in k_pts if any(k)
    )

    # fibers of H: group members by the H-dot-product profile
    fibers = {}
    for a in points:
        key = tuple(dot(b, a) for b in h_basis)
        fibers.setdefault(key, []).append(a)
    # a transversal of H inside K: greedily extend the H basis within K
    ext = []
    for v in sorted(k_pts):
        if naive_rank(list(h_basis) + ext + [v]) > naive_rank(list(h_basis) + ext):
            ext.append(v)
    t_pts = naive_span(ext, n) if ext else {tuple([0] * n)}

    coarse = 0
    fine = 0
    all_keys = set(itertools.product(range(3), repeat=len(h_basis)))
    for key in all_keys:
        fiber = fibers.get(key, [])
        coarse += (len(h_pts) * len(fiber) - size) ** 2
        fdft = naive_dft(fiber, n) if fiber else None
        for t in t_pts:
            if any(t) and fdft is not None:
                fine += e_norm(fdft[t])
    rhs = coarse + len(h_pts) ** 2 * fine
    return lhs, rhs


def g_reference(k, d):
    """Binomial(d, 1/d) point mass at k."""
    from math import comb

    return Fraction(comb(d, k) * (d - 1) ** (d - k), d**d)
