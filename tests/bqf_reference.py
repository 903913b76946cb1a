"""The divisor-scan form enumeration, the rho walk, the rotation-minimum
class walk, the per-class root key and the linear Pell search.

These were ``wcc.bqf.reduced_forms``, ``wcc.bqf._walk``,
``wcc.bqf.form_classes``, ``wcc.survey._root_key`` and
``wcc.bqf.pell4_fundamental`` before the window scan, the table of rho
cycles, the closed-form root keys and the continued fraction replaced them;
the tests keep them, unchanged, as the references the new code is compared
against.  ``reduced_forms`` (all reduced forms, read off the table) and
``form_of_matrix`` were ``wcc.bqf`` functions that only the tests called;
they moved here unchanged, and so did the per-form reduction ``is_reduced``,
``rho_step``, ``reduce_form``, ``class_id`` and ``cycle``, which no command,
acceptance criterion or library function runs since the class census became one
table.  The walk steps ``rho_step`` form by form, so the references
never run the table.  The root key builds its automorph with the linear
Pell search and its id with the rotation minimum, as it did then.
"""

import math

from wcc import bqf
from wcc.errors import NumericError, ParameterError


def reduced_forms(D: int) -> list:
    """All reduced forms of a positive non-square discriminant, sorted."""
    return sorted(f for cyc in bqf.form_classes(D) for f in cyc)


def form_of_matrix(m) -> tuple:
    """Fixed-point form (c, d-a, -b) of an integer matrix [[a,b],[c,d]]."""
    (a, b), (c, d) = m
    return (int(c), int(d) - int(a), -int(b))


def reference_reduced_forms(D: int) -> list:
    """All reduced forms of a positive non-square discriminant."""
    if D <= 0 or bqf.is_square(D):
        raise ParameterError(f"need a positive non-square discriminant, got {D}")
    out = []
    for b in range(1, math.isqrt(D) + 1):
        if (D - b * b) % 4 != 0:
            continue
        m = (D - b * b) // 4  # = -a c > 0
        if m <= 0:
            continue
        for a in _divisors(m):
            for sa in (a, -a):
                c = (b * b - D) // (4 * sa)
                f = (sa, b, c)
                if is_reduced(f):
                    out.append(f)
    return sorted(out)


def _divisors(n: int) -> list:
    out = []
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
    return sorted(out)


def _walk(f) -> tuple:
    """The rho cycle of a reduced form, as the tuple starting at the form."""
    out = [f]
    g = rho_step(f)
    while g != f:
        out.append(g)
        g = rho_step(g)
        if len(out) > 100000:
            raise NumericError(f"cycle of {f} did not close")
    return tuple(out)


def reference_cycle(f) -> tuple:
    """The reduction cycle through a form, as the tuple starting at reduce(f)."""
    return _walk(reduce_form(f))


def reference_class_id(f) -> tuple:
    """Lexicographically minimal rotation of the reduction cycle."""
    cyc = reference_cycle(f)
    rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
    return min(rotations)


def reference_form_classes(D: int) -> tuple:
    """Canonical ids of all proper classes of discriminant D."""
    remaining = set(reference_reduced_forms(D))
    ids = []
    while remaining:
        f = min(remaining)
        cyc = reference_cycle(f)
        remaining -= set(cyc)
        ids.append(min(cyc[i:] + cyc[:i] for i in range(len(cyc))))
    return tuple(sorted(ids))


def reference_root_key(rec):
    """The class id of the automorph of the primitive part of the form."""
    t, cid = rec.class_id
    f = cid[0]
    m0 = bqf.content(f)
    fp = (f[0] // m0, f[1] // m0, f[2] // m0)
    A, B, C = fp
    u, v = reference_pell4(bqf.discriminant(fp))
    root_matrix = ((u - B * v) // 2, -C * v), (A * v, (u + B * v) // 2)
    return reference_class_id(form_of_matrix(root_matrix))


def reference_torus_key(rec):
    """The key the torus census grouped classes by."""
    return (rec.root_trace, round(rec.period_volume, 12), reference_root_key(rec))


def reference_power(trace: int, f) -> int:
    """The power k of the primitive root class, by stepping the root's
    automorph with the linear Pell search."""
    m0 = bqf.content(f)
    Dp = (trace * trace - 4) // (m0 * m0)
    u1, v1 = reference_pell4(Dp, v_cap=max(10 * m0 + 10, 1000))
    u, v = u1, v1
    for k in range(1, 10000):
        if (u, v) == (trace, m0):
            return k
        u, v = (u1 * u + Dp * v1 * v) // 2, (u1 * v + v1 * u) // 2
    raise NumericError(f"power decomposition did not close for trace {trace}, form {f}")


def reference_pell4(D: int, v_cap: int = 10**7):
    """Minimal (u, v), u, v >= 1, with u^2 - D v^2 = 4, by a linear search in v."""
    if D <= 0 or bqf.is_square(D):
        raise ParameterError(f"need a positive non-square discriminant, got {D}")
    for v in range(1, v_cap + 1):
        uu = 4 + D * v * v
        if bqf.is_square(uu):
            return math.isqrt(uu), v
    raise NumericError(f"no Pell +4 solution found for D={D} below v={v_cap}")


def is_reduced(f: tuple) -> bool:
    """Classical reduction window: sqrt(D) - b < 2|a| < sqrt(D) + b, 0 < b < sqrt(D).

    All comparisons are exact (D is never a square here).
    """
    a, b, c = f
    D = bqf.discriminant(f)
    if D <= 0 or bqf.is_square(D):
        raise ParameterError(f"form must have positive non-square discriminant, got {D}")
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if (t + b) * (t + b) <= D:  # need sqrt(D) < 2|a| + b
        return False
    if t - b >= 0 and (t - b) * (t - b) >= D:  # need 2|a| - b < sqrt(D)
        return False
    return True


def rho_step(f: tuple) -> tuple:
    """One Gauss reduction step (a,b,c) -> (c, r, (r^2 - D)/(4c))."""
    a, b, c = f
    D = bqf.discriminant(f)
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


def reduce_form(f: tuple) -> tuple:
    g = tuple(int(x) for x in f)
    for _ in range(10000):
        if is_reduced(g):
            return g
        g = rho_step(g)
    raise NumericError(f"reduction did not terminate for {f}")


def class_id(f: tuple) -> tuple:
    """Canonical id of the proper class: the reduction cycle through reduce(f),
    in the rho direction, starting at its least form."""
    g = reduce_form(f)
    return next(cyc for cyc in bqf.form_classes(bqf.discriminant(g)) if g in cyc)


def cycle(f: tuple) -> tuple:
    """The reduction cycle through a form, as the tuple starting at reduce(f)."""
    g = reduce_form(f)
    cyc = class_id(g)
    i = cyc.index(g)
    return cyc[i:] + cyc[:i]
