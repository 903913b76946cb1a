"""The per-element Jordan-Cartan flat bound, kept unchanged as a test reference.

``reference_jordan_cartan_gap`` and ``reference_flat_bound_survey`` were
``wcc.loxodromy.jordan_cartan_gap`` and ``wcc.survey.flat_bound_survey`` before
the survey became one stacked pass over its records: one Jordan projection,
one x-Cartan projection, one pair of fixed flags and one ``flat_distance``
per element.

Also the projective contraction check, which no command, acceptance criterion or
library function runs: ``ContractionResult`` and ``contraction_check`` were
``wcc.loxodromy``'s, unchanged.

``reference_certify`` is ``wcc.loxodromy.certify`` before d = 2 took the closed form:
at every d one Cartan decomposition of the conjugate (an SVD), one eigen-solve, one
frame action of the angular and fixed flags and their wedge lines.  It is the oracle
of the d = 2 and d = 3 verdicts and condition flags.  ``decimal_sl2_certificate``
evaluates the d = 2 values at 50 digits from the exact values of the float (or integer)
entries, and ``decimal_sl3_certificate`` the d = 3 wall distance and fixed-point errors.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import (
    LoxodromyError,
    NumericError,
    ParameterError,
    PreconditionError,
    TransversalityError,
    WccError,
)
from wcc.loxodromy import GAP_SLACK, LoxodromyCertificate, cx_constant, fitted_constants, t_zero
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system


def reference_jordan_cartan_gap(gamma: GroupElement, x: BasePoint) -> float:
    """Distance between the Jordan and x-Cartan projections of a loxodromic element.

    Also asserts the flat bound: the gap never exceeds twice the distance
    from x to the fixed-point flat (plus ``GAP_SLACK``).
    """
    lam, is_lox = pj.jordan_project(gamma)
    if not is_lox:
        raise LoxodromyError("jordan_cartan_gap needs a loxodromic element")
    rs = root_system(gamma.d)
    gap = rs.killing_norm(lam - pj.cartan_at(gamma, x))
    gp, gm = fm.fixed_points(gamma)
    bound = 2.0 * fm.flat_distance(x, fm.TransversePair(gp, gm)) + GAP_SLACK
    if gap > bound:
        raise NumericError(
            f"flat bound violated: gap {gap} exceeds 2*flat_distance + slack = {bound}"
        )
    return gap


def reference_flat_bound_survey(records, x: BasePoint | None = None) -> dict:
    """Jordan-Cartan flat bound over the loxodromic part of a census; elements
    whose gap raises a library error are violations, listed under ``failures``."""
    rows, failures = [], []
    for rec in records:
        if not rec.loxodromic:
            continue
        g = GroupElement.from_integer([list(r) for r in rec.matrix])
        base = x if x is not None else BasePoint.origin(g.d)
        try:
            gap = reference_jordan_cartan_gap(g, base)
        except WccError as exc:
            failures.append({"matrix": rec.matrix, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"matrix": rec.matrix, "gap": gap})
    return {"checked": len(rows), "violations": len(failures), "failures": failures,
            "max_gap": max((r["gap"] for r in rows), default=0.0), "gaps": [r["gap"] for r in rows]}


@dataclass
class ContractionResult:
    analytic: bool
    n_sampled: int
    n_contracted: int
    max_image_distance: float


def contraction_check(a, epsilon: float, n_samples: int = 1000, seed: int = 7) -> ContractionResult:
    """Analytic contraction criterion plus a sampled verification.

    Analytic flag: every simple root of ``a`` is at least -2 log(eps).  When
    sampling, flags at gauge distance at least eps from the repelling flag
    must be mapped into the eps-ball of the attracting one.
    """
    a = np.asarray(a, dtype=float)
    rs = root_system(len(a))
    if not rs.in_closed_chamber(a):  # which also refuses a vector off the zero-sum plane
        raise PreconditionError("contraction_check needs a closed-chamber vector")
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError(f"epsilon must be in (0,1), got {epsilon}")
    analytic = all(float(c @ a) >= -2.0 * math.log(epsilon) for c in rs.simple_roots)

    rng = np.random.default_rng(seed)
    d = len(a)
    g = np.diag(np.exp(a))
    target = fm.eta0(d)
    repeller = fm.zeta0(d)
    contracted, sampled = 0, 0
    worst = 0.0
    attempts = 0
    while sampled < n_samples and attempts < 50 * n_samples:
        attempts += 1
        xi = fm.Flag(pj.random_so(d, rng))
        if fm.dist_delta(xi, repeller) < epsilon:
            continue
        sampled += 1
        dist = fm.dist_d(xi.translate(g), target)
        worst = max(worst, dist)
        if dist <= epsilon:
            contracted += 1
    return ContractionResult(analytic, sampled, contracted, worst)


def _eigen_basis(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Real eigenbases of a stack (n, d), (n, d, d) of eigen-pairs, by decreasing modulus,
    and which rows have a real spectrum (``wcc.flagmetric._eigen_basis``, unchanged)."""
    real = np.abs(eigvals.imag).max(axis=-1) <= 1e-8 * np.abs(eigvals).max(axis=-1)
    order = np.argsort(-np.abs(eigvals.real), axis=-1)
    return eigvecs.real[np.arange(len(order))[:, None], :, order].swapaxes(1, 2), real


def _dist_d(lines, others):
    """``dist_d`` from the embedded lines of xi and of eta, over any leading axes
    (``wcc.flagmetric._dist_d``, unchanged)."""
    worst = 0.0
    for u, v in zip(lines, others):
        c = np.fmin(1.0, np.abs(np.vecdot(u, v)))
        worst = np.fmax(worst, np.sqrt(np.fmax(0.0, 1.0 - c * c)))
    return worst


def _embedded_lines(frames: np.ndarray) -> list:
    """``Flag.embedded_lines`` of frames over any leading axes (``wcc.flagmetric._embedded_lines``,
    unchanged)."""
    return [fm.wedge_coordinates(frames[..., :k]) for k in range(1, frames.shape[-1])]


def _perp_lines(frames: np.ndarray) -> list:
    """``Flag.perp_lines`` of frames over any leading axes (``wcc.flagmetric._perp_lines``, unchanged)."""
    d = frames.shape[-1]
    return [fm.wedge_coordinates(frames[..., d - k :]) for k in range(1, d)]


def _delta(lines, perps):
    """``dist_delta`` from the embedded lines of xi and the perp lines of eta, over any leading
    axes (``wcc.flagmetric._delta``, unchanged)."""
    best = 1.0
    for u, v in zip(lines, perps):
        best = np.fmin(best, np.abs(np.vecdot(u, v)))
    return best


def reference_certify(gamma: GroupElement, x: BasePoint, r: float, epsilon: float) -> LoxodromyCertificate:
    """Certify loxodromy from the chamber-displacement configuration at x."""
    d = gamma.d
    consts = fitted_constants(d)
    cx = cx_constant(x)
    if not 0.0 < r < consts.r0:
        raise ParameterError(f"r must lie in (0, r0={consts.r0:.6f}), got {r}")
    eps_cap = min(r / cx, consts.eps0)
    if not 0.0 < epsilon < eps_cap:
        raise ParameterError(
            f"epsilon must lie in (0, min(r/C_x, eps0)) = (0, {eps_cap:.6g}), got {epsilon}"
        )

    rs = root_system(d)
    t0 = t_zero(x, epsilon)
    k, a_x, l = pj.cartan_project(pj._conjugate(gamma, x))
    wall = float(rs.wall_distances(a_x))
    conditions = {
        "wall_distance": wall,
        "t0": t0,
        "wall_margin_ok": bool(wall >= t0),
        "transverse_ok": False,
        "flat_dist": math.inf,
    }

    if conditions["wall_margin_ok"]:
        try:
            _, lox, (eigvals, eigvecs) = pj._jordan_solve(gamma, vectors=True)
        except NumericError as exc:
            lox, eigvals, eigvecs = exc, np.ones(d), np.eye(d)
        (basis,), (real,) = _eigen_basis(eigvals[None], eigvecs[None])
        h, eye, lr = x.h.mat, np.eye(d), l @ rs.reversal_frame()
        frames = pj.flag_frame_action(np.stack([h, h, eye, eye]), np.stack([k, lr, basis, basis[:, ::-1]]))
        pj._so_sign_fix(frames)
        lines = _embedded_lines(frames)  # of xi+, xi-, the attracting and repelling flags
        delta = float(_delta([u[0] for u in lines], _perp_lines(frames[1])))
        conditions["transverse_ok"] = delta > 0.0
        if conditions["transverse_ok"]:
            try:
                pair = fm.TransversePair._of_flags(*map(fm.Flag._of_so_frame, frames[:2]), delta)
                conditions["flat_dist"] = fm.flat_distance(x, pair)
            except TransversalityError:
                conditions["transverse_ok"] = False
            except NumericError:
                pass

    certified = conditions["transverse_ok"] and conditions["flat_dist"] < r

    fixed_point_errors = None
    if certified:
        if isinstance(lox, NumericError):
            raise lox
        if not lox:
            certified = False
        elif not real:
            raise LoxodromyError(fm._NON_REAL)
        else:
            fixed_point_errors = tuple(_dist_d([u[2:] for u in lines], [u[:2] for u in lines]).tolist())

    return LoxodromyCertificate(
        element=gamma,
        base=x,
        r=r,
        epsilon=epsilon,
        conditions=conditions,
        certified=certified,
        fixed_point_errors=fixed_point_errors,
        constants=consts.as_dict() | {"C_x": cx},
    )


def _product(p, q):
    return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]


def _eigenvector(m, lam):
    """(b, lam - a) or (lam - d, c), whichever is longer, for m = (a b; c d)."""
    (a, b), (c, d) = m
    u, v = (b, lam - a), (lam - d, c)
    return u if u[0] ** 2 + u[1] ** 2 >= v[0] ** 2 + v[1] ** 2 else v


def _symmetric_eigenvalue(s, sign):
    (p, r), (_, q) = s
    return (p + q) / 2 + sign * (((p - q) / 2) ** 2 + r * r).sqrt()


def _sine(u, v):
    return abs(u[0] * v[1] - u[1] * v[0]) / ((u[0] ** 2 + u[1] ** 2) * (v[0] ** 2 + v[1] ** 2)).sqrt()


def decimal_sl2_certificate(gamma: GroupElement, x: BasePoint):
    """The wall distance, flat distance (None where a + d = 0) and fixed-point errors
    (None where the discriminant is not positive) of a d = 2 certificate, at 50 digits
    from the exact entries of gamma and h_x: m = h_x^-1 gamma h_x with the exact inverse,
    s_1^2 the top eigenvalue of m m^T, the wall distance sqrt(2) ln(s_1^2 / |det gamma|),
    the flat distance sqrt(2) asinh(|b - c| / |a + d|) (asinh r = ln(r + sqrt(r^2 + 1))),
    and each error the sine between h_x u and an eigenvector of gamma, u the top
    eigenvector of m m^T or the bottom one of m^T m."""
    with localcontext() as ctx:
        ctx.prec = 50
        g, h = ([[Decimal(v) for v in row] for row in (e.int_mat or e.mat.tolist())] for e in (gamma, x.h))
        (p, q), (s, t) = h
        det_h = p * t - q * s
        m = _product(_product([[t / det_h, -q / det_h], [-s / det_h, p / det_h]], g), h)
        (a, b), (c, d) = m
        mt = [[a, c], [b, d]]
        outer, inner = _product(m, mt), _product(mt, m)
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        sqrt2 = Decimal(2).sqrt()
        top = _symmetric_eigenvalue(outer, 1)  # s_1^2
        wall = sqrt2 * (top / abs(det)).ln()
        z = abs(b - c) / abs(a + d) if a + d else None
        flat = None if z is None else sqrt2 * (z + (z * z + 1).sqrt()).ln()
        u_1, v_2 = _eigenvector(outer, top), _eigenvector(inner, _symmetric_eigenvalue(inner, -1))
        lines = [(p * u + q * v, s * u + t * v) for u, v in (u_1, v_2)]
        trace = g[0][0] + g[1][1]
        disc = trace * trace - 4 * det
        errors = None
        if disc > 0:
            sign = 1 if trace > 0 else -1
            errors = tuple(float(_sine(_eigenvector(g, (trace + k * disc.sqrt()) / 2), w))
                           for k, w in zip((sign, -sign), lines))
        return float(wall), None if flat is None else float(flat), errors


def _product3(p, q):
    return [[sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _transpose3(m):
    return [list(row) for row in zip(*m)]


def _det3(m):
    return sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3] - m[1][(j + 2) % 3] * m[2][(j + 1) % 3])
               for j in range(3))


def _cross3(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sine3(u, v):
    w = _cross3(u, v)
    return (_dot3(w, w) / (_dot3(u, u) * _dot3(v, v))).sqrt()


def _char_cubic(m):
    """Exact coefficients (trace, sum of principal 2 x 2 minors, determinant) of the
    characteristic polynomial l^3 - tr l^2 + c1 l - det of a 3 x 3 matrix of Fractions,
    and its exact discriminant."""
    tr = m[0][0] + m[1][1] + m[2][2]
    c1 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = _det3(m)
    return tr, c1, det, tr**2 * c1**2 - 4 * c1**3 - 4 * tr**3 * det + 18 * tr * c1 * det - 27 * det**2


def _bisect(p, lo, hi):
    """A root of p between lo and hi, where p changes sign, to the context's precision."""
    negative = p(lo) < 0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        value = p(mid)
        if value == 0:
            return mid
        if (value < 0) == negative:
            lo = mid
        else:
            hi = mid


def _real_roots(tr, c1, det):
    """The three distinct real roots of l^3 - tr l^2 + c1 l - det (exact Fraction
    coefficients, positive discriminant), by bisection between the Cauchy bound and the two
    critical points (tr -+ sqrt(tr^2 - 3 c1)) / 3, in the current Decimal context."""
    tr, c1, det = (Decimal(v.numerator) / Decimal(v.denominator) for v in (tr, c1, det))

    def p(lam):
        return ((lam - tr) * lam + c1) * lam - det

    root = (tr * tr - 3 * c1).sqrt()
    bound = 1 + max(abs(tr), abs(c1), abs(det))
    ends = [-bound, (tr - root) / 3, (tr + root) / 3, bound]
    return [_bisect(p, lo, hi) for lo, hi in zip(ends, ends[1:])]


def _null_vector(m, lam):
    """A null vector of m - lam I for a 3 x 3 Decimal matrix: the longest cross product of
    two of its rows."""
    rows = [[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]
    return max((_cross3(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))), key=lambda w: _dot3(w, w))


def decimal_sl3_certificate(gamma: GroupElement, x: BasePoint):
    """The wall distance and the fixed-point errors (None where the characteristic
    discriminant of gamma is not positive) of a d = 3 certificate, at 50 digits from the
    exact entries of gamma and h_x.  m = h_x^-1 gamma h_x with the exact inverse; the
    eigenvalues of m m^T, of m^T m and of gamma by bisection on their characteristic
    polynomials (whose coefficients are exact), and each eigenvector a cross product of two
    rows of A - lambda I.  The wall distance is min_i ln(s_i^2 / s_(i+1)^2) / (2 ||alpha_i||_*);
    the angular flags are those of (h k_1, h k_2) and (h l_3, h l_2), k_i and l_i the
    eigenvectors of m m^T and m^T m, and the fixed flags those of (b_1, b_2) and
    (b_3, b_2), b_i the eigenvectors of gamma by decreasing modulus; each error is the
    larger sine between their lines and between their plane normals."""
    g, h = ([[Fraction(v) for v in row] for row in (e.int_mat or e.mat.tolist())] for e in (gamma, x.h))
    det_h = _det3(h)
    adj = [[_det3_minor(h, j, i) * (-1) ** (i + j) / det_h for j in range(3)] for i in range(3)]
    m = _product3(_product3(adj, g), h)
    outer, inner = _product3(m, _transpose3(m)), _product3(_transpose3(m), m)
    with localcontext() as ctx:
        ctx.prec = 50
        (top, mid, _), (_, mid_in, low) = (sorted(_real_roots(*_char_cubic(s)[:3]), reverse=True)
                                          for s in (outer, inner))
        norms = [Decimal(v) for v in root_system(3).simple_dual_norms.tolist()]
        wall = min((top / mid).ln() / (2 * norms[0]), (mid_in / low).ln() / (2 * norms[1]))
        *coeffs, disc = _char_cubic(g)
        if disc <= 0:
            return float(wall), None
        dec = [[Decimal(v.numerator) / Decimal(v.denominator) for v in row] for row in (*outer, *inner, *g, *h)]
        outer, inner, g, h = dec[0:3], dec[3:6], dec[6:9], dec[9:12]

        def moved(v):
            return [_dot3(row, v) for row in h]

        k1, k2 = (moved(_null_vector(outer, lam)) for lam in (top, mid))
        l3, l2 = (moved(_null_vector(inner, lam)) for lam in (low, mid_in))
        b1, b2, b3 = (_null_vector(g, lam) for lam in sorted(_real_roots(*coeffs), key=abs, reverse=True))
        errors = (max(_sine3(b1, k1), _sine3(_cross3(b1, b2), _cross3(k1, k2))),
                  max(_sine3(b3, l3), _sine3(_cross3(b3, b2), _cross3(l3, l2))))
        return float(wall), tuple(float(e) for e in errors)


def _det3_minor(m, i, j):
    """The 2 x 2 minor of m without row i and column j."""
    (a, b), (c, d) = ([v for k, v in enumerate(row) if k != j] for r, row in enumerate(m) if r != i)
    return a * d - b * c
