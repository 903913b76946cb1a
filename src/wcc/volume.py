"""Harish-Chandra volume engine for ball and parallelotope chamber domains.

The density integrated over a chamber region is  prod_roots sinh(alpha(Y)),
against the Lebesgue measure normalized by the Killing norm.  Everything is
computed in log space (Gauss-Legendre with node doubling), so large t only
costs exponent bookkeeping, never overflow.  Parallelotope domains also get
the exact finite expansion obtained by developing the sinh products into
exponentials in the simple-root dual coordinates.
"""

from __future__ import annotations

import itertools
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

    def contains_cartan(self, rs: RootSystemA, a) -> bool:
        """Membership of a chamber vector, including the optional filters."""
        a = np.asarray(a, dtype=float)
        if self.kind == "ball":
            if rs.killing_norm(a) > self.t:
                return False
        else:
            self.for_dimension(rs.d)
            for edge, beta in zip(self.edges, rs.simple_roots):
                if float(beta @ a) > self.t * edge:
                    return False
        if self.regular_margin is not None:
            return rs.wall_distance(a) > self.regular_margin
        if self.slab is not None:
            return rs.wall_distance(a) <= self.slab
        return True

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
    exponent_data: dict | None = None
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
    out[large] = x[large] + np.log1p(-np.exp(-2.0 * x[large])) - math.log(2.0)
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


def _wall_scale(rs: RootSystemA, direction: np.ndarray) -> float:
    """Wall distance of a unit direction (wall(r u) = r * wall(u))."""
    return min(
        max(0.0, float(c @ direction)) / rs.dual_norm(c) for c in rs.simple_roots
    )


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


def _converge(evaluate, start_nodes: int = 24, rel_tol: float = QUAD_REL_TOL):
    """Double node counts until successive log values agree to rel_tol."""
    n = start_nodes
    prev = evaluate(n)
    while n <= MAX_NODES:
        n *= 2
        cur = evaluate(n)
        if prev == LOG_ZERO and cur == LOG_ZERO:
            return cur, 0.0
        delta = abs(cur - prev) if np.isfinite(cur) and np.isfinite(prev) else math.inf
        if delta < rel_tol:
            return cur, delta
        prev = cur
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
    """Iterated integral with inner bounds depending on the outer variable.

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
        lo2, hi2 = np.array([lo2_fn(ui) for ui in u]), np.array([hi2_fn(ui) for ui in u])
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

        def wall_of(theta):
            return _wall_scale(rs, math.cos(theta) * b1 + math.sin(theta) * b2)

        def r_lo(theta):
            if margin <= 0.0:
                return 0.0
            w = wall_of(theta)
            return t if w <= 0.0 else min(t, margin / w)

        def density(theta, r):
            dirs = np.outer(np.cos(theta), b1) + np.outer(np.sin(theta), b2)
            ys = dirs * r[:, None]
            return logf(rs, ys) + np.log(r)

        points = _arc_cuts(th_lo, th_hi, t, margin)
        pieces, delta = [], 0.0
        for a, b in zip(points[:-1], points[1:]):
            if margin > 0.0 and wall_of(0.5 * (a + b)) <= margin / t:
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
    wall_factors = [1.0 / rs.dual_norm(c) for c in rs.simple_roots]
    los = [margin / wf if margin > 0 else 0.0 for wf in wall_factors]
    his = [domain.t * e for e in domain.edges]
    if any(lo >= hi for lo, hi in zip(los, his)):
        return LOG_ZERO, 0.0
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
    """Exact d=2 ball volume: sqrt(2) (cosh(t / sqrt 2) - 1)."""
    return math.sqrt(2.0) * (math.cosh(t / math.sqrt(2.0)) - 1.0)


def ball_volume(rs_or_d, t: float, rel_tol: float = QUAD_REL_TOL) -> VolumeResult:
    """Harish-Chandra volume of the chamber ball of Killing radius t."""
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    if not t > 0:
        raise ParameterError(f"t must be positive, got {t}")
    domain = Domain("ball", t)
    log_val, err = _region_log_integral(rs, domain, "hc", 0.0, rel_tol)
    result = _finish(log_val, "quadrature", err)
    if rs.d == 2:
        exact = closed_form_ball_d2(t)
        if exact > 0 and abs(result.value / exact - 1.0) > 1e-6:
            raise NumericError(
                f"d=2 ball quadrature disagrees with the closed form: {result.value} vs {exact}"
            )
        result.extras["closed_form"] = exact
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


def _expansion_terms(rs: RootSystemA):
    """Signed exponential terms of the sinh-product development.

    Yields (sign, coefficient vector in the simple-root basis) for
    2^(sum of multiplicities) terms; the all-plus term is 2 rho.
    """
    roots = []
    for root, mult in zip(rs.positive_roots, rs.multiplicities):
        roots.extend([np.asarray(root)] * mult)
    simple = np.array(rs.simple_roots).T
    for signs in itertools.product((0, 1), repeat=len(roots)):
        omega = sum((-1.0 if s else 1.0) * r for s, r in zip(signs, roots))
        coeffs, *_ = np.linalg.lstsq(simple, omega, rcond=None)
        coeffs = np.round(coeffs).astype(int)
        if np.max(np.abs(simple @ coeffs - omega)) > 1e-9:
            raise NumericError("expansion term is not an integer root combination")
        yield (-1) ** sum(signs), coeffs


def box_volume(rs_or_d, t: float, edges, rel_tol: float = QUAD_REL_TOL) -> VolumeResult:
    """Exact finite expansion of the parallelotope volume.

    Also returns the growth exponent (the sup of 2 rho over the
    parallelotope), the leading coefficient, and the exponent of the
    largest secondary term.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    edges = tuple(float(e) for e in edges)
    domain = Domain("box", t, edges)
    domain.for_dimension(rs.d)

    duals = _dual_basis(rs)
    jac = _box_jacobian(rs, duals)
    n_mult = sum(rs.multiplicities)
    prefactor_log = math.log(jac) - n_mult * math.log(2.0)

    simple = np.array(rs.simple_roots).T
    two_rho_coeffs, *_ = np.linalg.lstsq(simple, rs.two_rho, rcond=None)
    two_rho_coeffs = np.round(two_rho_coeffs).astype(int)
    delta_p = float(sum(n * a for n, a in zip(two_rho_coeffs, edges)))

    # assemble log |term| with signs, while tracking the per-unit-t exponents
    pos_logs, neg_logs = [], []
    exponents = set()
    for sign, coeffs in _expansion_terms(rs):
        factor_logs = []
        for n, a in zip(coeffs, edges):
            if n == 0:
                factor_logs.append([(0.0, math.log(t * a), 1)])
            else:
                # (e^{n t a} - 1)/n  ->  two signed exponential pieces
                factor_logs.append(
                    [
                        (n * a, -math.log(abs(n)), 1 if n > 0 else -1),
                        (0.0, -math.log(abs(n)), -1 if n > 0 else 1),
                    ]
                )
        for combo in itertools.product(*factor_logs):
            rate = sum(c[0] for c in combo)
            log_mag = sum(c[1] for c in combo) + t * rate + prefactor_log
            piece_sign = sign * int(np.prod([c[2] for c in combo]))
            exponents.add(round(rate, 12))
            (pos_logs if piece_sign > 0 else neg_logs).append(log_mag)

    log_pos = logsumexp(pos_logs) if pos_logs else LOG_ZERO
    log_neg = logsumexp(neg_logs) if neg_logs else LOG_ZERO
    log_val = _log_sub(float(log_pos), float(log_neg))
    if log_val == LOG_ZERO:
        raise NumericError("box expansion cancelled to zero; t too small for log-space")

    c_g = jac / (2.0**n_mult * float(np.prod([n for n in two_rho_coeffs])))
    secondary = sorted(x for x in exponents if x < delta_p - 1e-9)
    delta_minus = float(secondary[-1]) if secondary else 0.0
    return _finish(
        log_val,
        "closed_form",
        0.0,
        C_G=c_g,
        delta_P=delta_p,
        delta_minus=delta_minus,
        jacobian=jac,
        rho_coefficients=[int(n) for n in two_rho_coeffs],
    )


def box_volume_quadrature(rs_or_d, t: float, edges, rel_tol: float = QUAD_REL_TOL) -> VolumeResult:
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    domain = Domain("box", t, tuple(float(e) for e in edges))
    log_val, err = _region_log_integral(rs, domain, "hc", 0.0, rel_tol)
    return _finish(log_val, "quadrature", err)


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


def slab_decay_sweep(
    rs_or_d,
    epsilons,
    t_grid,
    kind: str = "ball",
    edges=None,
    rel_tol: float = 1e-7,
) -> dict:
    """Fit the decay of the slab ratio at s = eps * t across a t sweep.

    The fitted exponent is the empirical counterpart of the (non-
    constructive) slab decay rate: log ratio regressed on -log volume.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    t_grid = list(t_grid)
    report = {"kind": kind, "t_grid": t_grid, "per_epsilon": {}}
    for eps in epsilons:
        rows = []
        for t in t_grid:
            res = slab_volume(rs, t, eps * t, kind, edges, rel_tol)
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
