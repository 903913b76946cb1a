"""Indefinite integral binary quadratic forms: Gauss reduction and automorphs.

Hyperbolic SL(2,Z) conjugacy classes with trace t correspond exactly to the
proper equivalence classes of integral forms of discriminant t^2 - 4
(including imprimitive ones) through the fixed-point form of a matrix, so
class identity, counting and primitivity all reduce to classical, fully
integer-exact form arithmetic: reduction cycles and Pell automorphs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericError, ParameterError

Form = tuple  # (a, b, c) integers


def discriminant(f: Form) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def content(f: Form) -> int:
    a, b, c = f
    return math.gcd(math.gcd(abs(a), abs(b)), abs(c))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# ------------------------------------------------- the table of reduced forms

_BLOCK = 1 << 17  # window pairs tested per numpy pass; bounds the scan's memory


def _packed(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One int64 key per row (i, a, b, ...) in (i, a, b) order, its widths taken
    from the table."""
    a_lo, a_hi, b_hi = (table[:, 1].min(initial=0), table[:, 1].max(initial=0),
                        table[:, 2].max(initial=0))
    return (rows[:, 0] * (a_hi - a_lo + 1) + rows[:, 1] - a_lo) * (b_hi + 1) + rows[:, 2]


def _lookup(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The row numbers in a table sorted by (i, a, b) of rows that must be in it;
    each match is checked, so a row off the key widths cannot alias another."""
    at = np.searchsorted(_packed(table, table), _packed(table, rows)).clip(max=len(table) - 1)
    if not np.array_equal(table[at], rows):
        raise NumericError("a form is missing from the table of reduced forms")
    return at


def cycle_table(discriminants):
    """All proper classes of the given discriminants as one table.

    Returns (forms, start, disc): int64 (n, 3) forms, where class j is the
    rho cycle forms[start[j]:start[j + 1]] from its least form (its canonical
    id), classes sorted by (discriminant index disc[j], least form).

    The reduced forms: for s = isqrt(D) and 0 < b <= s, b = D mod 2, the window
    sqrt(D) - b < 2|a| < sqrt(D) + b is exactly (s + 2 - b) // 2 <= |a| <=
    (s + b) // 2, and each |a| there that divides m = -ac = (D - b^2) / 4 gives
    the two forms (+-|a|, b, c).  As 4m = (sqrt(D) - b)(sqrt(D) + b), |a| is in
    the window exactly when m / |a| is, so only |a| <= isqrt(m) is tested, in
    blocks of about _BLOCK window pairs, and each divisor brings its co-divisor.

    rho permutes the reduced forms, so it is computed on the whole table and
    each image mapped to its row.  The cycles then come from Wyllie's pointer
    jumping (Cohen, section 5.6, for rho): after k rounds label[x] is the least
    row within 2^k steps of x and dist[x] the steps to it, and a round that
    changes no label leaves every label at the least row of its cycle.
    """
    for D in discriminants:
        if D <= 0 or is_square(D):
            raise ParameterError(f"need a positive non-square discriminant, got {D}")
    D = np.array(discriminants, dtype=np.int64)
    s = np.array([math.isqrt(x) for x in discriminants], dtype=np.int64)
    nb = np.maximum((s - 2 + D % 2) // 2 + 1, 0)
    i = np.repeat(np.arange(len(D)), nb)
    b = 2 - D[i] % 2 + 2 * (np.arange(len(i)) - np.repeat(np.cumsum(nb) - nb, nb))
    keep = (D[i] - b * b) % 4 == 0  # no integral form when D = 2, 3 mod 4
    i, b = i[keep], b[keep]
    m = (D[i] - b * b) // 4
    q = np.sqrt(m).astype(np.int64)  # isqrt(m): the float root is off by at most one
    q += ((q + 1) * (q + 1) <= m).astype(np.int64) - (q * q > m)
    lo = (s[i] + 2 - b) // 2
    width = np.maximum(np.minimum((s[i] + b) // 2, q) - lo + 1, 0)
    cuts = np.searchsorted(np.cumsum(width), np.arange(_BLOCK, width.sum(), _BLOCK))
    found = []
    for block in np.split(np.arange(len(width)), cuts):
        w = width[block]
        end = np.cumsum(w)
        a = np.arange(w.sum()) - np.repeat(end - w - lo[block], w)
        hit = np.flatnonzero(np.repeat(m[block], w) % a == 0)
        found.append(np.c_[block[np.searchsorted(end, hit, side="right")], a[hit]])
    r, a = np.concatenate(found).T
    co = m[r] // a
    r, a = np.r_[r, r[co != a]], np.r_[a, co[co != a]]
    c = m[r] // a
    table = np.c_[np.tile(i[r], 2), np.r_[-a, a], np.tile(b[r], 2), np.r_[c, -c]]
    table = table[np.argsort(_packed(table, table))]
    i, _, b, c = table.T
    ac, D, s = np.abs(c), D[i], s[i]
    r = -b % (2 * ac)
    r = np.where(ac > s, np.where(r > ac, r - 2 * ac, r), r + 2 * ac * ((s - r) // (2 * ac)))
    p = _lookup(table, np.c_[i, c, r, (r * r - D) // (4 * c)])
    label, dist, step = np.arange(len(table)), np.zeros(len(table), dtype=np.int64), 1
    while (better := label[p] < label).any():
        dist = np.where(better, dist[p] + step, dist)
        label = np.where(better, label[p], label)
        p, step = p[p], 2 * step
    size = np.bincount(label, minlength=len(table))
    order = np.argsort(label * len(table) + (size[label] - dist) % size[label])
    roots = np.flatnonzero(label == np.arange(len(table)))
    return table[order, 1:], np.r_[0, np.cumsum(size[roots])], i[roots]


@lru_cache(maxsize=None)
def form_classes(D: int) -> tuple:
    """Canonical ids of all proper classes of discriminant D, sorted."""
    forms, start, _ = cycle_table([D])
    rows = list(map(tuple, forms.tolist()))
    return tuple(tuple(rows[j:k]) for j, k in zip(start[:-1].tolist(), start[1:].tolist()))


# ------------------------------------------------------- matrices and forms


def matrix_of_form(f: Form, trace: int):
    """The unique integer matrix with the given trace and fixed-point form."""
    A, B, C = f
    if (trace - B) % 2 != 0:
        raise ParameterError(f"trace {trace} and form {f} have mismatched parity")
    return ((trace - B) // 2, -C), (A, (trace + B) // 2)


def pell4_fundamental(D: int):
    """Minimal (u, v), u, v >= 1, with u^2 - D v^2 = 4.

    One period of the continued fraction of the reduced quadratic irrational
    (P0 + sqrt(D)) / 2, P0 the largest integer below sqrt(D) with P0 = D mod 2
    (Cohen, Algorithm 5.7.2): with q, q' the last two convergent denominators,
    (P0 q + 2 q' + q sqrt(D)) / 2 is the fundamental unit of the order of
    discriminant D, squared when its norm is -1.  D = 2, 3 mod 4 goes through
    4D, where u and v are even.
    """
    if D <= 0 or is_square(D):
        raise ParameterError(f"need a positive non-square discriminant, got {D}")
    scale = 1 if D % 4 < 2 else 2
    Dd = D * scale * scale
    s = math.isqrt(Dd)
    P0 = s - (s - Dd) % 2
    P, Q, q_prev, q = P0, 2, 1, 0
    while q == 0 or (P, Q) != (P0, 2):  # one period, back at (P0, 2)
        a = (P + s) // Q
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (Dd - P * P) // Q
    u, v = P0 * q + 2 * q_prev, q
    if u * u - Dd * v * v == -4:
        u, v = (u * u + Dd * v * v) // 2, u * v
    return u, v * scale


def primitive_split(trace: int, f: Form):
    """Power decomposition of a positive-trace hyperbolic class.

    A matrix with trace t >= 3 and fixed form f is an exact power of the
    fundamental automorph of the primitive part of f.  Returns
    (k, trace of the primitive root, (u1, v1), D'), where the class is the
    k-th power of the root class.
    """
    if trace < 3:
        raise ParameterError(f"need a hyperbolic positive trace, got {trace}")
    D = trace * trace - 4
    if discriminant(f) != D:
        raise ParameterError("form discriminant does not match the trace")
    m0 = content(f)
    if (D % (m0 * m0)) != 0:
        raise NumericError(f"content {m0} does not square-divide {D}")
    Dp = D // (m0 * m0)
    u1, v1 = pell4_fundamental(Dp)
    u, v = u1, v1
    for k in range(1, 10000):
        if (u, v) == (trace, m0):
            return k, u1, (u1, v1), Dp
        u, v = (u1 * u + Dp * v1 * v) // 2, (u1 * v + v1 * u) // 2
    raise NumericError(f"power decomposition did not close for trace {trace}, form {f}")
