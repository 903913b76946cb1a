"""Harish-Chandra volume engine for ball and parallelotope chamber domains.

The density integrated over a chamber region is  prod_roots sinh(alpha(Y)),
against the Lebesgue measure normalized by the Killing norm.  Everything is
computed in log space (Gauss-Legendre with node doubling), so large t only
costs exponent bookkeeping, never overflow.  Parallelotope domains at d = 2
and 3 also get the closed form: in the simple-root dual coordinates the
density's integral separates into sinh^2 and int sinh^2 factors, summed in
log space with a stated rounding bound as the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericError, ParameterError
from .rootsys import RootSystemA, root_system

QUAD_REL_TOL = 1e-9
MAX_NODES = 3072
LOG_ZERO = -math.inf
_QUAD_BLOCK = 1 << 16  # (outer, inner) nodes per stacked block of the 2-D rule


# ------------------------------------------------------------------ domains


@dataclass(frozen=True)
class Domain:
    """Census/volume region in the closed chamber.

    ``kind`` is "ball" (Killing radius t) or "box" (dilated parallelotope
    with per-simple-root edge lengths).  ``regular_margin`` keeps only
    points with wall distance above the margin; ``slab`` keeps only points
    within ``slab`` of the walls.  The two filters are mutually exclusive.
    """

    kind: str
    t: float
    edges: tuple | None = None
    regular_margin: float | None = None
    slab: float | None = None

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ParameterError(f"domain kind must be 'ball' or 'box', got {self.kind!r}")
        bad = [v for v in (self.t, *(self.edges or ()), self.regular_margin, self.slab)
               if v is not None and not math.isfinite(v)]
        if bad:
            raise ParameterError(f"domain values must be finite, got {bad[0]}")
        if not self.t > 0:
            raise ParameterError(f"domain scale t must be positive, got {self.t}")
        if self.kind == "box":
            if self.edges is None or len(self.edges) == 0:
                raise ParameterError("box domain needs per-simple-root edge lengths")
            if any(e <= 0 for e in self.edges):
                raise ParameterError(f"box edges must be positive, got {self.edges}")
        if self.regular_margin is not None and self.slab is not None:
            raise ParameterError("regular_margin and slab are mutually exclusive")
        if self.slab is not None and not 0.0 < self.slab < self.t:
            raise ParameterError(f"slab must be in (0, t), got {self.slab}")
        if self.regular_margin is not None and self.regular_margin < 0.0:
            raise ParameterError("regular_margin must be nonnegative")

    def for_dimension(self, d: int) -> None:
        if self.kind == "box" and len(self.edges) != d - 1:
            raise ParameterError(
                f"box domain for d={d} needs {d - 1} edge lengths, got {len(self.edges)}"
            )

    def contains_rows(self, rs: RootSystemA, cartan: np.ndarray, walls: np.ndarray) -> np.ndarray:
        """Membership of (n, d) Cartan rows with their wall distances, unchecked: the
        ball or box test, then ``filter_rows``."""
        if self.kind == "ball":
            return self.filter_rows(np.sqrt(rs.killing_scale * np.vecdot(cartan, cartan)) <= self.t, walls)
        self.for_dimension(rs.d)
        roots = np.array(rs.simple_roots)
        return self.filter_rows(np.all(cartan @ roots.T <= self.t * np.array(self.edges), axis=-1), walls)

    def filter_rows(self, inside: np.ndarray, walls: np.ndarray) -> np.ndarray:
        """The rows of ``inside`` whose wall distance the optional filters keep."""
        if self.regular_margin is not None:
            return inside & (walls > self.regular_margin)
        return inside & (walls <= self.slab) if self.slab is not None else inside

    def max_top_weight(self, rs: RootSystemA) -> float:
        """Sup of the top fundamental weight (log of the largest singular
        value) over the unfiltered domain; drives integer entry bounds."""
        chi1 = rs.fundamental_weights[0]
        if self.kind == "ball":
            return self.t * rs.dual_norm(chi1)
        self.for_dimension(rs.d)
        duals = _dual_basis(rs)
        return self.t * sum(
            e * max(0.0, float(chi1 @ u)) for e, u in zip(self.edges, duals)
        )


@dataclass
class VolumeResult:
    value: float
    log_value: float
    method: str
    error_estimate: float
    extras: dict = field(default_factory=dict)


def _finish(log_value: float, method: str, error: float, **extras) -> VolumeResult:
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return VolumeResult(value, log_value, method, error, extras=extras or {})


# --------------------------------------------------------------- integrands


def logsumexp(a):
    """log(sum(exp(a))) over the last axis of real input, computed as
    scipy.special.logsumexp does: a float for 1-d input, an array of row values
    for stacked rows.

    The max terms are split off: log1p(s) + log(m) + max(a), where m counts the
    entries at the max and s is the sum of exp(a - max(a)) over the others,
    divided by m.  The direct sum is the fallback where that is not finite;
    empty input gives -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return LOG_ZERO
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        at_max = a == a_max
        m = np.count_nonzero(at_max, axis=-1)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=-1)
        out = np.log1p(np.where(s != 0, s / m, s)) + np.log(m) + a_max[..., 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1)), out)
    return float(out) if a.ndim == 1 else out


def _log_sinh(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, LOG_ZERO)
    small = (x > 0) & (x <= 20.0)
    large = x > 20.0
    out[small] = np.log(np.sinh(x[small]))
    # e^(-2x) is 0.0 in float64 from x = 373 on; the clamp keeps -2x finite near 1e308
    out[large] = x[large] + np.log1p(-np.exp(-2.0 * np.minimum(x[large], 400.0))) - math.log(2.0)
    return out


def log_hc_integrand(rs: RootSystemA, ys: np.ndarray) -> np.ndarray:
    """Log of the Harish-Chandra density at chamber points (rows of ys)."""
    ys = np.atleast_2d(ys)
    total = np.zeros(ys.shape[0])
    for root, mult in zip(rs.positive_roots, rs.multiplicities):
        total = total + mult * _log_sinh(ys @ root)
    return total


def log_two_rho_integrand(rs: RootSystemA, ys: np.ndarray) -> np.ndarray:
    ys = np.atleast_2d(ys)
    return ys @ rs.two_rho


_INTEGRANDS = {"hc": log_hc_integrand, "two_rho": log_two_rho_integrand}


# ---------------------------------------------------- chamber geometry bits


def _ortho_basis(rs: RootSystemA) -> np.ndarray:
    """Killing-orthonormal basis rows of the traceless subspace: the normalised
    Helmert rows (1, ..., 1, -k, 0, ..., 0), already mutually orthogonal."""
    basis = []
    for k in range(1, rs.d):
        v = np.zeros(rs.d)
        v[:k] = 1.0
        v[k] = -float(k)
        basis.append(v / rs.killing_norm(v))
    return np.array(basis)


def _dual_basis(rs: RootSystemA) -> list[np.ndarray]:
    """Traceless vectors u_beta with beta'(u_beta) = delta."""
    duals = []
    system = np.vstack([np.array(rs.simple_roots), np.ones(rs.d)])
    for i in range(rs.d - 1):
        rhs = np.zeros(rs.d)
        rhs[i] = 1.0
        duals.append(np.linalg.solve(system, rhs))
    return duals


def _chamber_arc(rs: RootSystemA) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Polar frame for d=3: orthonormal (b1, b2) with b1 the rho direction, and
    the angle window of the chamber, the 60 degree wedge that b1 bisects."""
    basis = _ortho_basis(rs)
    b1 = rs.dual_vector(rs.two_rho)
    b2 = basis[1] - rs.killing_inner(basis[1], b1) * b1
    b2 = b2 / rs.killing_norm(b2)
    return b1, b2, -math.pi / 6, math.pi / 6


def _arc_cuts(lo: float, hi: float, t: float, margin: float) -> list[float]:
    """Cuts of the d=3 chamber window [lo, hi] = [-pi/6, pi/6] on whose pieces
    the inner radial bound min(t, margin/w) of a ball is smooth.

    The wall distance of the unit direction at angle theta is
    w = sin(pi/6 - |theta|): the nearest wall switches at 0, and the bound
    starts clipping where w = margin/t.
    """
    if margin <= 0.0:
        return [lo, hi]
    if margin >= 0.5 * t:
        return [lo, 0.0, hi]
    edge = hi - math.asin(margin / t)
    return [lo, -edge, 0.0, edge, hi]


# ------------------------------------------------------ quadrature drivers


def _converge(evaluate, rel_tol: float = QUAD_REL_TOL):
    """Double node counts from 24 until successive log values agree to rel_tol, refusing a
    first value (nan, inf, or past rel_tol / eps) whose rounding alone exceeds rel_tol, and a
    delta that stops shrinking: not below the last, or at the rounding level eps |value| n."""
    n, last = 24, math.inf
    prev = evaluate(n)
    if prev != LOG_ZERO and not abs(prev) * math.ulp(1.0) < rel_tol:
        raise NumericError(f"quadrature log value {prev} cannot be resolved to {rel_tol}")
    while n <= MAX_NODES:
        n *= 2
        cur = evaluate(n)
        if prev == LOG_ZERO and cur == LOG_ZERO:
            return cur, 0.0
        delta = abs(cur - prev) if np.isfinite(cur) and np.isfinite(prev) else math.inf
        if delta < rel_tol:
            return cur, delta
        if math.isfinite(delta) and (delta >= last or delta <= abs(cur) * math.ulp(1.0) * n):
            raise NumericError(f"quadrature stalled at log value {cur}: delta {delta} at {n} nodes "
                               f"did not shrink below {rel_tol}")
        prev, last = cur, delta
    raise NumericError(f"quadrature did not converge below {rel_tol} by {MAX_NODES} nodes")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per n."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _log_quad_1d(log_density, lo: float, hi: float, rel_tol=QUAD_REL_TOL):
    if hi <= lo:
        return LOG_ZERO, 0.0

    def evaluate(n):
        x, w = _gauss_legendre(n)
        u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        logw = np.log(0.5 * (hi - lo) * w)
        return float(logsumexp(log_density(u) + logw))

    return _converge(evaluate, rel_tol=rel_tol)


def _log_quad_2d(log_density, lo1, hi1, lo2_fn, hi2_fn, rel_tol=QUAD_REL_TOL):
    """Iterated integral with inner bounds ``lo2_fn(u)``, ``hi2_fn(u)`` of the array u
    of outer nodes (arrays, or scalars that are broadcast).

    Every (outer, inner) node of one node count goes through ``log_density`` in one
    stacked pass (in blocks of whole outer rows), and each row's inner sum is the
    row-wise ``logsumexp``; outer nodes with an empty inner window are dropped.
    """
    if hi1 <= lo1:
        return LOG_ZERO, 0.0

    def evaluate(n):
        x, w = _gauss_legendre(n)
        u = 0.5 * (hi1 - lo1) * x + 0.5 * (hi1 + lo1)
        logw_u = np.log(0.5 * (hi1 - lo1) * w)
        lo2, hi2 = np.broadcast_to(lo2_fn(u), u.shape), np.broadcast_to(hi2_fn(u), u.shape)
        keep = ~(hi2 <= lo2)  # the per-node test: NaN bounds are kept, not dropped
        u, logw_u, lo2, hi2 = u[keep], logw_u[keep], lo2[keep], hi2[keep]
        if not len(u):
            return LOG_ZERO
        step, pieces = max(1, _QUAD_BLOCK // n), []
        for i in range(0, len(u), step):
            rows = slice(i, i + step)
            half = (0.5 * (hi2[rows] - lo2[rows]))[:, None]
            v = half * x + (0.5 * (hi2[rows] + lo2[rows]))[:, None]
            vals = log_density(np.repeat(u[rows], n), v.ravel()).reshape(v.shape)
            pieces.append(logsumexp(vals + np.log(half * w)) + logw_u[rows])
        return float(logsumexp(np.concatenate(pieces)))

    return _converge(evaluate, rel_tol=rel_tol)


# --------------------------------------------------------- region integrals


def _region_log_integral(
    rs: RootSystemA,
    domain: Domain,
    integrand: str,
    margin: float = 0.0,
    rel_tol: float = QUAD_REL_TOL,
) -> tuple[float, float]:
    """Log integral over the domain restricted to wall distance >= margin, and
    the last doubling delta of its quadrature (the largest over its pieces)."""
    logf = _INTEGRANDS[integrand]
    d = rs.d
    if domain.kind == "ball":
        t = domain.t
        if d == 2:
            b1 = rs.dual_vector(rs.two_rho)

            def density(u):
                return logf(rs, np.outer(u, b1))

            return _log_quad_1d(density, max(0.0, margin), t, rel_tol)
        if d != 3:
            raise ParameterError("ball quadrature is shipped for d = 2 and 3")
        b1, b2, th_lo, th_hi = _chamber_arc(rs)

        def directions(theta):
            return np.multiply.outer(np.cos(theta), b1) + np.multiply.outer(np.sin(theta), b2)

        def r_lo(theta):
            if margin <= 0.0:
                return 0.0
            w = rs.wall_distances(directions(theta))  # wall(r u) = r * wall(u)
            with np.errstate(divide="ignore"):
                return np.where(w <= 0.0, t, np.minimum(t, margin / w))

        def density(theta, r):
            return logf(rs, directions(theta) * r[:, None]) + np.log(r)

        points = _arc_cuts(th_lo, th_hi, t, margin)
        pieces, delta = [], 0.0
        for a, b in zip(points[:-1], points[1:]):
            if margin > 0.0 and rs.wall_distances(directions(0.5 * (a + b))) <= margin / t:
                continue  # window empty on this piece
            val, err = _log_quad_2d(density, a, b, r_lo, lambda _: t, rel_tol)
            delta = max(delta, err)
            if val != LOG_ZERO:
                pieces.append(val)
        return (logsumexp(pieces) if pieces else LOG_ZERO), delta

    # box domain: simple-root dual coordinates make everything rectangular
    domain.for_dimension(d)
    duals = _dual_basis(rs)
    jac = _box_jacobian(rs, duals)
    wall_factors = 1.0 / rs.simple_dual_norms
    los = [margin / wf if margin > 0 else 0.0 for wf in wall_factors.tolist()]
    his = [domain.t * e for e in domain.edges]
    if any(lo >= hi for lo, hi in zip(los, his)):
        return LOG_ZERO, 0.0
    if max(his) * math.ulp(1.0) >= rel_tol:  # the log value grows as t * edge: past what _converge resolves
        raise NumericError(f"box quadrature cannot resolve t * edge = {max(his)} to {rel_tol}")
    if d == 2:
        def density(z):
            return logf(rs, np.outer(z, duals[0])) + math.log(jac)

        return _log_quad_1d(density, los[0], his[0], rel_tol)
    if d == 3:
        u0, u1 = duals

        def density(z0, z1):
            ys = np.outer(z0, u0) + np.outer(z1, u1)
            return logf(rs, ys) + math.log(jac)

        return _log_quad_2d(density, los[0], his[0],
                            lambda _: los[1], lambda _: his[1], rel_tol)
    raise ParameterError("box quadrature is shipped for d = 2 and 3")


def _box_jacobian(rs: RootSystemA, duals) -> float:
    basis = _ortho_basis(rs)
    cols = np.array([[rs.killing_inner(u, b) for b in basis] for u in duals]).T
    return abs(float(np.linalg.det(cols)))


def _log_sub(log_a: float, log_b: float) -> float:
    """log(exp(log_a) - exp(log_b)) with the usual guards."""
    if log_b == LOG_ZERO:
        return log_a
    if log_b >= log_a:
        return LOG_ZERO
    return log_a + math.log1p(-math.exp(log_b - log_a))


# ------------------------------------------------------------- ball volume


def closed_form_ball_d2(t: float) -> float:
    """Exact d=2 ball volume: sqrt(2) (cosh(t / sqrt 2) - 1), inf past the float range."""
    try:
        return math.sqrt(2.0) * (math.cosh(t / math.sqrt(2.0)) - 1.0)
    except OverflowError:
        return math.inf


def ball_volume(rs_or_d, t: float) -> VolumeResult:
    """Harish-Chandra volume of the chamber ball of Killing radius t, to ``QUAD_REL_TOL``;
    at d = 2 checked in logs against the closed form 2 sqrt 2 sinh(t / (2 sqrt 2))^2."""
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    result = domain_volume(rs, Domain("ball", t))
    if rs.d == 2:
        log_c = math.log(2.0 * math.sqrt(2.0)) + 2.0 * float(_log_sinh(t / (2.0 * math.sqrt(2.0))))
        if abs(math.expm1(result.log_value - log_c)) > 1e-6:
            raise NumericError(f"d=2 ball quadrature disagrees with the closed form: "
                               f"log {result.log_value} vs {log_c}")
        result.extras["closed_form"] = closed_form_ball_d2(t)
    return result


def domain_volume(rs: RootSystemA, domain: Domain, rel_tol: float = QUAD_REL_TOL) -> VolumeResult:
    """Volume of a (possibly filtered) domain with the HC density."""
    if domain.regular_margin is not None:
        log_val, err = _region_log_integral(rs, domain, "hc", domain.regular_margin, rel_tol)
    else:
        log_val, err = _region_log_integral(rs, domain, "hc", 0.0, rel_tol)
        if domain.slab is not None:
            reg, reg_err = _region_log_integral(rs, domain, "hc", domain.slab, rel_tol)
            log_val, err = _log_sub(log_val, reg), max(err, reg_err)
    return _finish(log_val, "quadrature", err)


def fit_growth(rs: RootSystemA, t_grid, volumes_log) -> dict:
    """Exponential growth fit with the known polynomial prefactor removed.

    The ball volume grows like t^((dim A - 1)/2) e^(delta0 t); regressing
    log vol - ((dim A - 1)/2) log t on t targets the exponent itself (a
    plain slope carries a +(dim A - 1)/(2 t) bias).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    poly_exp = 0.5 * (rs.d - 2)
    ys = np.asarray(volumes_log, dtype=float) - poly_exp * np.log(t_grid)
    A = np.vstack([t_grid, np.ones_like(t_grid)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ys, rcond=None)
    return {
        "delta_fit": float(slope),
        "log_leading_coefficient": float(intercept),
        "poly_exponent_removed": poly_exp,
    }


# ------------------------------------------------------------- box volume


def _log_s(z: float) -> float:
    """log S(z), S(z) = (sinh 2z - 2z) / 4 = int_0^z sinh^2: (2z)^3/24 (1 + sum_{k>=2}
    (2z)^(2k-2) 3!/(2k+1)!) below z = 1/2, e^(2z)/8 (1 - e^(-4z) - 4z e^(-2z)) above."""
    if z >= 0.5:
        return 2.0 * z - math.log(8.0) + math.log1p(-math.exp(-4.0 * z) - 4.0 * z * math.exp(-2.0 * z))
    q, rest = 4.0 * z * z, 0.0
    for k in range(9, 1, -1):  # Horner, to the k = 9 term 6/19! < 5e-17
        rest = q * (rest + 6.0 / math.factorial(2 * k + 1))
    return 3.0 * math.log(2.0 * z) - math.log(24.0) + math.log1p(rest)


def box_volume(rs_or_d, t: float, edges) -> VolumeResult:
    """Harish-Chandra volume of the parallelotope in closed form, at d = 2 and 3
    (d >= 4 is refused, as by the box quadrature).

    In the simple-root dual coordinates z_i in [0, t a_i] the density separates:
    at d = 2 the volume is 2 jac sinh(t a / 2)^2; at d = 3, with X = t a_1 and
    Y = t a_2, it is jac/2 (S(X) sinh(Y)^2 + sinh(X)^2 S(Y)), S as in ``_log_s``.
    Nothing cancels in their logs, so ``error_estimate`` is the rounding bound
    c eps max(1, sum |terms|), c = 4, over the log terms (of jac, each sinh^2 and
    each S); not |log_value|, which is near 0 where large terms meet.  Against 50
    digits the worst error is 0.73 eps times that sum on the grid of
    ``TestBoxClosedForm`` in the tests, and 1.21 on 10,500 random boxes.

    Also returns delta_P (the sup of 2 rho over the parallelotope), the leading
    coefficient C_G, and the exponent delta_minus of the largest secondary term.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    edges = tuple(float(e) for e in edges)
    Domain("box", t, edges).for_dimension(rs.d)
    if rs.d > 3:
        raise ParameterError("box volume is shipped for d = 2 and 3")
    jac = _box_jacobian(rs, _dual_basis(rs))
    xs = [0.5 * t * edges[0]] if rs.d == 2 else [t * a for a in edges]
    if min(xs) < np.finfo(float).tiny:  # a subnormal t a carries no rounding bound
        raise NumericError(f"box volume needs each t * edge to be a normal float, got {min(xs)}")
    log_sinh = _log_sinh(np.array(xs)).tolist()
    if rs.d == 2:
        terms = [math.log(2.0 * jac), 2.0 * log_sinh[0]]
        log_val = sum(terms)
    else:
        terms = [math.log(0.5 * jac), _log_s(xs[0]), 2.0 * log_sinh[1], 2.0 * log_sinh[0], _log_s(xs[1])]
        lo, hi = sorted([terms[1] + terms[2], terms[3] + terms[4]])
        log_val = terms[0] + hi + math.log1p(math.exp(lo - hi))
    if not math.isfinite(log_val):
        raise NumericError(f"box volume log value is {log_val} at t * edges = {xs}")
    rho = [i * (rs.d - i) for i in range(1, rs.d)]  # 2 rho in the simple roots
    return _finish(
        log_val, "closed_form", 4.0 * math.ulp(1.0) * max(1.0, sum(map(abs, terms))),
        C_G=jac / (2.0 ** len(rs.positive_roots) * math.prod(rho)),
        delta_P=float(sum(n * a for n, a in zip(rho, edges))),
        delta_minus=2.0 * max(edges) if rs.d == 3 else 0.0, jacobian=jac, rho_coefficients=rho,
    )


def box_volume_quadrature(rs_or_d, t: float, edges) -> VolumeResult:
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    return domain_volume(rs, Domain("box", t, tuple(float(e) for e in edges)))


# ------------------------------------------------------------ slab volumes


def slab_volume(
    rs_or_d,
    t: float,
    s: float,
    kind: str = "ball",
    edges=None,
    rel_tol: float = QUAD_REL_TOL,
) -> VolumeResult:
    """Upper-bound mass of the almost-singular slab and its ratio to the volume.

    Integrates exp(2 rho) over the part of the domain within wall distance s
    (the integrand dominating the HC density there) and reports the ratio to
    the true domain volume.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    if not 0.0 < s < t:
        raise ParameterError(f"slab parameter must satisfy 0 < s < t, got s={s}, t={t}")
    domain = Domain(kind, t, tuple(edges) if edges else None)
    full_tworho, full_err = _region_log_integral(rs, domain, "two_rho", 0.0, rel_tol)
    regular_tworho, regular_err = _region_log_integral(rs, domain, "two_rho", s, rel_tol)
    log_slab = _log_sub(full_tworho, regular_tworho)
    vol = domain_volume(rs, domain, rel_tol)
    log_ratio = log_slab - vol.log_value
    return _finish(
        log_slab,
        "quadrature",
        max(full_err, regular_err),
        log_ratio=log_ratio,
        ratio=math.exp(log_ratio) if log_ratio < 700 else math.inf,
        log_volume=vol.log_value,
    )


def slab_decay_sweep(rs_or_d, epsilons, t_grid) -> dict:
    """Fit the decay of the ball's slab ratio at s = eps * t across a t sweep, each
    volume to a relative 1e-7.

    The fitted exponent is the empirical counterpart of the (non-
    constructive) slab decay rate: log ratio regressed on -log volume.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    t_grid = list(t_grid)
    report = {"kind": "ball", "t_grid": t_grid, "per_epsilon": {}}
    for eps in epsilons:
        rows = []
        for t in t_grid:
            res = slab_volume(rs, t, eps * t, rel_tol=1e-7)
            rows.append(
                {
                    "t": t,
                    "log_ratio": res.extras["log_ratio"],
                    "log_volume": res.extras["log_volume"],
                }
            )
        log_ratios = np.array([r["log_ratio"] for r in rows])
        log_vols = np.array([r["log_volume"] for r in rows])
        A = np.vstack([log_vols, np.ones_like(log_vols)]).T
        (slope, _), *_ = np.linalg.lstsq(A, log_ratios, rcond=None)
        report["per_epsilon"][float(eps)] = {
            "rows": rows,
            "kappa_fit": float(-slope),
            "strictly_decreasing": bool(np.all(np.diff(log_ratios) < 0.0)),
        }
    return report
