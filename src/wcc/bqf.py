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


def is_reduced(f: Form) -> bool:
    """Classical reduction window: sqrt(D) - b < 2|a| < sqrt(D) + b, 0 < b < sqrt(D).

    All comparisons are exact (D is never a square here).
    """
    a, b, c = f
    D = discriminant(f)
    if D <= 0 or is_square(D):
        raise ParameterError(f"form must have positive non-square discriminant, got {D}")
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if (t + b) * (t + b) <= D:  # need sqrt(D) < 2|a| + b
        return False
    if t - b >= 0 and (t - b) * (t - b) >= D:  # need 2|a| - b < sqrt(D)
        return False
    return True


def rho_step(f: Form) -> Form:
    """One Gauss reduction step (a,b,c) -> (c, r, (r^2 - D)/(4c))."""
    a, b, c = f
    D = discriminant(f)
    if c == 0:
        raise ParameterError("degenerate form (square discriminant)")
    ac = abs(c)
    s = math.isqrt(D)
    r = (-b) % (2 * ac)
    if ac > s:
        if r > ac:
            r -= 2 * ac
    else:
        # unique representative in (sqrt(D) - 2|c|, sqrt(D))
        r = r + 2 * ac * ((s - r) // (2 * ac))
    return (c, r, (r * r - D) // (4 * c))


def reduce_form(f: Form, max_steps: int = 10000) -> Form:
    g = tuple(int(x) for x in f)
    for _ in range(max_steps):
        if is_reduced(g):
            return g
        g = rho_step(g)
    raise NumericError(f"reduction did not terminate for {f}")


def _walk(f: Form) -> tuple:
    """The rho cycle of a reduced form, as the tuple starting at the form."""
    out = [f]
    g = rho_step(f)
    while g != f:
        out.append(g)
        g = rho_step(g)
        if len(out) > 100000:
            raise NumericError(f"cycle of {f} did not close")
    return tuple(out)


def cycle(f: Form) -> tuple:
    """The reduction cycle through a form, as the tuple starting at reduce(f)."""
    return _walk(reduce_form(f))


def class_id(f: Form) -> tuple:
    """Canonical id of the proper class: lexicographically minimal rotation
    of the reduction cycle (traversal orientation is the rho direction).
    The forms of a cycle are distinct, so that rotation starts at the least."""
    cyc = cycle(f)
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def reduced_forms(D: int) -> list:
    """All reduced forms of a positive non-square discriminant, sorted: for
    s = isqrt(D) and 0 < b <= s, the window sqrt(D) - b < 2|a| < sqrt(D) + b
    is exactly (s + 2 - b) // 2 <= |a| <= (s + b) // 2, and each |a| there that
    divides -ac = (D - b^2) / 4 gives the two forms (+-|a|, b, c)."""
    if D <= 0 or is_square(D):
        raise ParameterError(f"need a positive non-square discriminant, got {D}")
    s = math.isqrt(D)
    out = []
    for b in range(2 - D % 2, s + 1, 2):
        m = (D - b * b) // 4
        for a in range((s + 2 - b) // 2, (s + b) // 2 + 1):
            if m % a == 0:
                out += [(-a, b, m // a), (a, b, -(m // a))]
    return sorted(out)


@lru_cache(maxsize=None)
def form_classes(D: int) -> tuple:
    """Canonical ids of all proper classes of discriminant D, sorted: in one
    pass over the sorted reduced forms, a form no earlier walk reached is the
    least of its cycle, so the cycle walked from it is the canonical rotation."""
    seen, ids = set(), []
    for f in reduced_forms(D):
        if f not in seen:
            cyc = _walk(f)
            seen.update(cyc)
            ids.append(cyc)
    return tuple(ids)


# ------------------------------------------------------- matrices and forms


def form_of_matrix(m) -> Form:
    """Fixed-point form (c, d-a, -b) of an integer matrix [[a,b],[c,d]]."""
    (a, b), (c, d) = m
    return (int(c), int(d) - int(a), -int(b))


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


def automorph(f: Form):
    """Fundamental automorph matrix of a primitive indefinite form."""
    A, B, C = f
    if content(f) != 1:
        raise ParameterError("automorph is defined for primitive forms")
    u, v = pell4_fundamental(discriminant(f))
    return ((u - B * v) // 2, -C * v), (A * v, (u + B * v) // 2)


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
