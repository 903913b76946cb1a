"""Harish-Chandra volume engine for ball and parallelotope chamber domains.

The density integrated over a chamber region is  prod_roots sinh(alpha(Y)),
against the Lebesgue measure normalized by the Killing norm.  Everything is
computed in log space, so large t only costs exponent bookkeeping, never
overflow.  In the simple-root coordinates z_i = alpha_i(Y) every domain but the
d = 3 ball is a union of rectangles, over which the density integrates in closed
form, with a stated rounding bound as the error.  The d = 3 ball, with its margin
or slab, is one window of the wall distance: each strip along a wall integrates in
closed form, and one Gauss-Legendre rule with node doubling takes the window.
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


def _root_system(rs_or_d) -> RootSystemA:
    return rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)


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
        elif self.edges is not None:
            raise ParameterError(f"edges need a box domain, got kind {self.kind!r}")
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
        """Membership of (n, d) Cartan rows with their wall distances, unchecked: the ball or
        box test, then the margin or slab on the wall distances."""
        if self.kind == "ball":
            inside = np.sqrt(rs.killing_scale * np.vecdot(cartan, cartan)) <= self.t
        else:
            self.for_dimension(rs.d)
            inside = np.all(cartan @ np.array(rs.simple_roots).T <= self.t * np.array(self.edges), axis=-1)
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
        # chi_1 on the i-th dual vector (1, ..., 1, 0, ..., 0) - i/d of the simple roots
        return self.t * sum(e * ((rs.d - i) / rs.d) for i, e in enumerate(self.edges, 1))


@dataclass
class VolumeResult:
    value: float
    log_value: float
    method: str
    error_estimate: float
    extras: dict = field(default_factory=dict)


def _finish(log_value: float, method: str, error: float, **extras) -> VolumeResult:
    return VolumeResult(_exp(log_value), log_value, method, error, extras=extras or {})


def _exp(x: float) -> float:
    """e^x, inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------- integrands


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-d real sequence, computed as scipy.special.logsumexp does.

    The max terms are split off: log1p(s) + log(m) + max(a), where m counts the
    entries at the max and s is the sum of exp(a - max(a)) over the others,
    divided by m.  The direct sum is the fallback where that is not finite;
    empty input gives -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return LOG_ZERO
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        at_max = a == a_max
        m = np.count_nonzero(at_max)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        out = np.log1p(s / m if s != 0 else s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _log_sinh(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, LOG_ZERO)
    small = (x > 0) & (x <= 20.0)
    large = x > 20.0
    out[small] = np.log(np.sinh(x[small]))
    # e^(-2x) is 0.0 in float64 from x = 373 on; the clamp keeps -2x finite near 1e308
    out[large] = x[large] + np.log1p(-np.exp(-2.0 * np.minimum(x[large], 400.0))) - math.log(2.0)
    return out


# ---------------------------------------------------- chamber geometry bits


def _cell_area(rs: RootSystemA) -> float:
    """Killing area of the unit cell of the simple-root coordinates z_i: 1 / sqrt of the
    simple roots' Killing Gram determinant, the A_(d-1) Cartan matrix (determinant d) over 2d."""
    return (2 * rs.d) ** ((rs.d - 1) / 2) / math.sqrt(rs.d)


# ------------------------------------------------------ quadrature drivers


def _converge(evaluate):
    """Double node counts from 24 to ``MAX_NODES`` until successive log values agree to
    ``QUAD_REL_TOL``, refusing a first value (nan, inf, or past QUAD_REL_TOL / eps) whose
    rounding alone exceeds it."""
    n = 24
    prev = evaluate(n)
    if prev != LOG_ZERO and not abs(prev) * math.ulp(1.0) < QUAD_REL_TOL:
        raise NumericError(f"quadrature log value {prev} cannot be resolved to {QUAD_REL_TOL}")
    while n < MAX_NODES:
        n *= 2
        cur = evaluate(n)
        if prev == LOG_ZERO and cur == LOG_ZERO:
            return cur, 0.0
        delta = abs(cur - prev) if np.isfinite(cur) and np.isfinite(prev) else math.inf
        if delta < QUAD_REL_TOL:
            return cur, delta
        prev = cur
    raise NumericError(f"quadrature did not converge below {QUAD_REL_TOL} by {MAX_NODES} nodes: "
                       f"log value {prev}, delta {delta}")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per n."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# --------------------------------------------------------- region integrals


def _region_volume(rs: RootSystemA, domain: Domain, integrand: str) -> VolumeResult:
    """Integral of the density over the domain with its filter: ``_ball_volume_d3`` (one strip
    rule in the wall distance) on the d = 3 ball, a closed form on every other domain, which
    is rectangles in z_i = alpha_i(Y).

    A slab is its own rectangles, never a difference, so nothing cancels but the widths
    b - a of rounded ends.  The error is then the rounding bound c eps max(1, sum |terms|),
    c = 4, over the log terms and each width's condition (a + b) / (b - a).  Against 50
    digits the worst error is 0.36 of it on the grid of ``TestRectangleClosedForm`` in the
    tests, and 0.42 on 24,000 random domains with margins up to the largest wall distance.
    """
    domain.for_dimension(rs.d)
    if rs.d > 3:
        raise ParameterError(f"{domain.kind} volume is shipped for d = 2 and 3")
    if domain.kind == "ball" and rs.d == 3:
        return _ball_volume_d3(rs, domain, integrand)
    # at d = 2 the chamber is one ray, and the ball the box of edge alpha(b1) = ||alpha||_*
    norms = rs.simple_dual_norms.tolist()  # wall distance >= m is z_i >= m ||alpha_i||_*
    his = [domain.t * e for e in (norms if domain.kind == "ball" else domain.edges)]
    if domain.slab is None:
        rects = [[((domain.regular_margin or 0.0) * n, hi) for n, hi in zip(norms, his)]]
    else:  # z_0 <= c_0, or z_0 > c_0 and z_1 <= c_1
        c = [min(domain.slab * n, hi) for n, hi in zip(norms, his)]
        rects = ([[(0.0, c[0])]] if rs.d == 2 else
                 [[(0.0, c[0]), (0.0, his[1])], [(c[0], his[0]), (0.0, c[1])]])
    rects = [r for r in rects if all(a < b for a, b in r)]
    if not rects:
        return _finish(LOG_ZERO, "closed_form", 0.0)
    width = min(b - a for r in rects for a, b in r)
    if width < 2.0 * np.finfo(float).tiny:  # a subnormal argument carries no rounding bound
        raise NumericError(f"closed-form volume needs half of each width b - a to be a normal float, "
                           f"got {width}")
    pieces = [_log_rectangle(r, integrand) for r in rects]
    terms = [math.log(_cell_area(rs))] + [x for _, ts in pieces for x in ts]
    terms += [(a + b) / (b - a) for r in rects for a, b in r]  # rounded ends: the width's condition
    log_val = terms[0] + logsumexp([v for v, _ in pieces])
    if not math.isfinite(log_val):
        raise NumericError(f"volume log value is {log_val} at t * edges = {his}")
    return _finish(log_val, "closed_form", 4.0 * math.ulp(1.0) * max(1.0, sum(map(abs, terms))))


def _log_rectangle(rect, integrand: str) -> tuple[float, list[float]]:
    """Log of the integral of the density over one rectangle of intervals [a, b] in the
    z_i, without the jacobian, and its log terms.  With s = a + b and w = b - a:
    at d = 2, 2 sinh(s/2) sinh(w/2) (hc) and 2 e^(s/2) sinh(w/2) (two_rho); at d = 3,
    prod e^s sinh(w) (two_rho) and A_0 B_1 + B_0 A_1 (hc), with A = int sinh^2 =
    sinh(s/2)^2 sinh(w) + (sinh w - w)/2 and B = int sinh cosh = sinh(w) sinh(s)/2.
    Each is a sum of products of positive factors: nothing cancels."""
    ss, ws = [a + b for a, b in rect], [b - a for a, b in rect]
    if len(rect) == 1:
        s = 0.5 * ss[0]
        sh_s, sh_w = _log_sinh(np.array([s, 0.5 * ws[0]])).tolist()
        terms = [math.log(2.0), s if integrand == "two_rho" else sh_s, sh_w]
        return sum(terms), terms
    sh_w, sh_s, sh_half = _log_sinh(np.array([ws, ss, [0.5 * s for s in ss]])).tolist()
    if integrand == "two_rho":
        terms = ss + sh_w
        return sum(terms), terms
    log_2, q = math.log(2.0), [_log_s(w) for w in ws]
    log_a = [logsumexp([2.0 * h + x, y]) for h, x, y in zip(sh_half, sh_w, q)]
    log_b = [x + y - log_2 for x, y in zip(sh_w, sh_s)]
    terms = sh_half + sh_half + sh_w + sh_w + sh_s + q + [log_2, log_2]
    return logsumexp([log_a[0] + log_b[1], log_b[0] + log_a[1]]), terms


def _log_strip(integrand: str, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log of k int f dx over the strips x in [sqrt 3 y, X] of the half chamber, where the simple
    roots take u = n y and (k x - u) / 2 (k = sqrt 3 n) and v = k (X - sqrt 3 y), and the sum of
    the magnitudes of its log terms: e^(4u) (e^v - 1) = 2 e^(4u + v/2) sinh(v/2) for f = e^(2 rho)
    (two_rho), and sinh u [cosh 3u (sinh v - v) / 2 + sinh 3u sinh(v/2)^2 + v sinh 2u sinh u] for
    f = sinh(u) (cosh kx - cosh u) / 2 (hc).  Every term is positive: nothing is subtracted."""
    sh_half = _log_sinh(0.5 * v)
    if integrand == "two_rho":
        terms = [4.0 * u, 0.5 * v, sh_half, math.log(2.0)]
        return sum(terms), sum(map(np.abs, terms))
    sh_u, sh_2u, sh_3u = _log_sinh(np.array([u, 2.0 * u, 3.0 * u]))
    ch_3u, s_v = np.logaddexp(3.0 * u, -3.0 * u) - math.log(2.0), np.array([_log_s(x) for x in v.tolist()])
    inner = np.logaddexp(np.logaddexp(ch_3u + s_v, sh_3u + 2.0 * sh_half), np.log(v) + sh_2u + sh_u)
    terms = [sh_u, ch_3u, s_v, sh_3u, 2.0 * sh_half, np.log(v), sh_2u, sh_u]
    return sh_u + inner, sum(map(np.abs, terms))


def _ball_volume_d3(rs: RootSystemA, domain: Domain, integrand: str) -> VolumeResult:
    """The d = 3 ball, or its part with wall distance above the margin or within the slab.

    The density is even about rho, so the volume is twice that over the half chamber between a
    wall and rho.  There, with y the wall distance and x the coordinate along the wall, the
    ball is the strips x in [sqrt 3 y, sqrt(t^2 - y^2)] over y in [0, t/2]; a margin c keeps
    y in [c, t/2] and a slab c keeps y in [0, min(c, t/2)].  ``_log_strip`` takes each strip in
    closed form, and one Gauss-Legendre rule, doubled by ``_converge``, takes the window in
    sigma = sqrt(1/2 - y/t), in which the strips' width, vanishing at rho, is smooth.  Each node
    is taken in units of t: y as y_hi - (sigma - s_lo)(sigma + s_lo) from the window's end y_hi
    at sigma = s_lo, which does not cancel next to the wall, and t/2 - y as t sigma^2.

    The error is the last doubling delta plus the rounding bound 4 eps (1 + |log value| +
    sum_i p_i M_i), with M_i the summed magnitudes of node i's log terms and log weight and p_i
    that node's share of the sum."""
    t, n = domain.t, float(rs.simple_dual_norms[0])
    k = math.sqrt(3.0) * n
    lo, hi = (domain.regular_margin or 0.0, 0.5 * t) if domain.slab is None else (0.0, min(domain.slab, 0.5 * t))
    if not lo < hi:  # a margin of t/2, the largest wall distance, or more leaves nothing
        return _finish(LOG_ZERO, "quadrature", 0.0)
    s_lo = math.sqrt((0.5 * t - hi) / t)  # sigma runs over [s_lo, s_lo + width]
    width, mags = (hi - lo) / t / (s_lo + math.sqrt((0.5 * t - lo) / t)), []

    def evaluate(nodes):
        x, w = _gauss_legendre(nodes)
        z = 0.5 * width * (x + 1.0)  # sigma - s_lo
        sigma, y = s_lo + z, hi / t - z * (2.0 * s_lo + z)  # y / t
        gap = 2.0 * sigma * sigma * (1.0 + 2.0 * y) / (np.sqrt(1.0 - y * y) + math.sqrt(3.0) * y)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_val, mag = _log_strip(integrand, n * t * y, k * t * gap)  # gap = (X - sqrt 3 y) / t
            log_w = np.log(sigma * w * (2.0 * width / k)) + math.log(t)  # 2 dy / k, dy = 2 t sigma d sigma
            total = logsumexp(log_val + log_w)
            mags.append(float(np.sum(np.exp(log_val + log_w - total) * (mag + np.abs(log_w)))))
        return total

    log_value, error = _converge(evaluate)
    return _finish(log_value, "quadrature", error + 4.0 * math.ulp(1.0) * (1.0 + abs(log_value) + mags[-1]))


# ------------------------------------------------------------- ball volume


def closed_form_ball_d2(t: float) -> float:
    """Exact d=2 ball volume 2 sqrt 2 sinh(t / (2 sqrt 2))^2, inf past the float range."""
    try:
        return 2.0 * math.sqrt(2.0) * math.sinh(t / (2.0 * math.sqrt(2.0))) ** 2
    except OverflowError:
        return math.inf


def ball_volume(rs_or_d, t: float) -> VolumeResult:
    """Harish-Chandra volume of the chamber ball of Killing radius t: the closed form at
    d = 2, the rule in the wall distance over closed-form strip integrals at d = 3."""
    rs = _root_system(rs_or_d)
    return domain_volume(rs, Domain("ball", t))


def domain_volume(rs: RootSystemA, domain: Domain) -> VolumeResult:
    """Volume of a (possibly filtered) domain with the HC density."""
    return _region_volume(rs, domain, "hc")


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


def _log_s(w: float) -> float:
    """log (sinh w - w) / 2: w^3/12 (1 + sum_{k>=2} w^(2k-2) 3!/(2k+1)!) below w = 1,
    e^w/4 (1 - e^(-2w) - 2w e^(-w)) above."""
    if w >= 1.0:
        return w - math.log(4.0) + math.log1p(-math.exp(-2.0 * w) - 2.0 * w * math.exp(-w))
    q, rest = w * w, 0.0
    for k in range(9, 1, -1):  # Horner, to the k = 9 term 6/19! < 5e-17
        rest = q * (rest + 6.0 / math.factorial(2 * k + 1))
    return 3.0 * math.log(w) - math.log(12.0) + math.log1p(rest)


def box_volume(rs_or_d, t: float, edges) -> VolumeResult:
    """Harish-Chandra volume of the parallelotope, the closed form of ``domain_volume`` at
    d = 2 and 3, with delta_P (the sup of 2 rho over the parallelotope), the leading
    coefficient C_G, and the exponent delta_minus of the largest secondary term."""
    rs = _root_system(rs_or_d)
    edges = tuple(float(e) for e in edges)
    res = domain_volume(rs, Domain("box", t, edges))
    jac = _cell_area(rs)
    rho = [i * (rs.d - i) for i in range(1, rs.d)]  # 2 rho in the simple roots
    res.extras.update(
        C_G=jac / (2.0 ** len(rs.positive_roots) * math.prod(rho)),
        delta_P=float(sum(n * a for n, a in zip(rho, edges))),
        delta_minus=2.0 * max(edges) if rs.d == 3 else 0.0, jacobian=jac, rho_coefficients=rho,
    )
    return res


# ------------------------------------------------------------ slab volumes


def slab_volume(rs_or_d, t: float, s: float, kind: str = "ball", edges=None) -> VolumeResult:
    """Upper-bound mass of the almost-singular slab and its ratio to the volume.

    Integrates exp(2 rho) over the part of the domain within wall distance s
    (the integrand dominating the HC density there) and reports the ratio to
    the true domain volume.
    """
    rs = _root_system(rs_or_d)
    edges = tuple(edges) if edges else None
    res = _region_volume(rs, Domain(kind, t, edges, slab=s), "two_rho")
    vol = domain_volume(rs, Domain(kind, t, edges))
    log_ratio = res.log_value - vol.log_value
    res.extras.update(log_ratio=log_ratio, ratio=_exp(log_ratio), log_volume=vol.log_value)
    return res


def slab_decay_sweep(rs_or_d, epsilons, t_grid) -> dict:
    """Fit the decay of the ball's slab ratio at s = eps * t across a t sweep.

    The fitted exponent is the empirical counterpart of the (non-
    constructive) slab decay rate: log ratio regressed on -log volume.
    """
    rs = _root_system(rs_or_d)
    t_grid = list(t_grid)
    report = {"kind": "ball", "t_grid": t_grid, "per_epsilon": {}}
    for eps in epsilons:
        rows = []
        for t in t_grid:
            res = slab_volume(rs, t, eps * t)
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
