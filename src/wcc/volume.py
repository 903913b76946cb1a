"""Harish-Chandra volume engine for ball and parallelotope chamber domains.

The density integrated over a chamber region is  prod_roots sinh(alpha(Y)),
against the Lebesgue measure normalized by the Killing norm.  Everything is
computed in log space, so large t only costs exponent bookkeeping, never
overflow.  In the simple-root coordinates z_i = alpha_i(Y) every domain but the
d = 3 ball is a union of rectangles, over which the density integrates in closed
form, with a stated rounding bound as the error.  The d = 3 ball, with its margin
or slab, is polar: along each direction of the half chamber arc the radial integral
is in closed form, and one Gauss-Legendre rule with node doubling takes the angle.
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
    """Integral of the density over the domain with its filter: ``_ball_volume_d3`` on the
    d = 3 ball, a closed form on every other domain, which is rectangles in z_i = alpha_i(Y).

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
    terms = [math.log(_box_jacobian(rs, _dual_basis(rs)))] + [x for _, ts in pieces for x in ts]
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


# M(x) = (x cosh x - sinh x) / x^2 - x/3 = x^3 sum_(k>=2) 2k x^(2k-4) / (2k+1)! and P(x) =
# e^x (x - 1) + 1 = x^2 sum_(k>=2) (k-1) x^(k-2) / k!, to a next term below 1e-17 of the sum
_M_SERIES = [2 * k / math.factorial(2 * k + 1) for k in range(12, 1, -1)]
_P_SERIES = [(k - 1) / math.factorial(k) for k in range(19, 1, -1)]


def _log_m(x: np.ndarray) -> np.ndarray:
    """log M(x), x > 0: the series below 2, and above it x - log(2 x^2) +
    log(x - 1 + (x + 1) e^(-2x) - 2/3 x^3 e^(-x)), whose sum cancels at most a factor 3."""
    lo, hi = np.minimum(x, 2.0), np.maximum(x, 2.0)
    tail = hi - 1.0 + (hi + 1.0) * np.exp(-2.0 * hi) - np.exp(3.0 * np.log(hi) - hi) * (2.0 / 3.0)
    return np.where(x < 2.0, 3.0 * np.log(lo) + np.log(np.polyval(_M_SERIES, lo * lo)),
                    hi + np.log(tail) - 2.0 * np.log(hi) - math.log(2.0))


def _log_p(x: np.ndarray) -> np.ndarray:
    """log P(x), x > 0: the positive series below 1, and x + log(x - 1 + e^(-x)) above."""
    lo, hi = np.minimum(x, 1.0), np.maximum(x, 1.0)
    return np.where(x < 1.0, 2.0 * np.log(lo) + np.log(np.polyval(_P_SERIES, lo)),
                    hi + np.log(hi - 1.0 + np.exp(-hi)))


def _log_radial(integrand: str, a: np.ndarray, b: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """log of int_0^h r f(r) dr along directions whose simple roots take a and b, and the log of
    the largest term it subtracts: P(2(a + b)h) / (2(a + b))^2 for f = e^(2(a + b)r) (two_rho),
    and h^2/4 (M(2(a + b)h) - M(2ah) - M(2bh)) for f = sinh(ar) sinh(br) sinh((a + b)r) =
    (sinh 2(a + b)r - sinh 2ar - sinh 2br) / 4 (hc), which cancels only next to a wall."""
    if integrand == "two_rho":
        log_val = _log_p(2.0 * (a + b) * h) - 2.0 * np.log(2.0 * (a + b))
        return log_val, log_val
    log_h2 = 2.0 * np.log(h) - math.log(4.0)
    top, low_a, low_b = (_log_m(2.0 * x * h) + log_h2 for x in (a + b, a, b))
    return top + np.log1p(-np.minimum(np.exp(low_a - top) + np.exp(low_b - top), 1.0)), top


def _ball_volume_d3(rs: RootSystemA, domain: Domain, integrand: str) -> VolumeResult:
    """The d = 3 ball, or its part with wall distance above the margin or within the slab.

    The density is even about rho on the chamber arc [-pi/6, pi/6], so the volume is twice
    that over the half arc, where the unit direction at the angle phi from the wall has simple
    roots a = n sin(phi), b = n sin(pi/3 - phi) (n their dual norm) and wall distance sin(phi).
    Its radial window, [0, t], or [r, t] for a margin c and [0, r] for a slab c with
    r = c / sin(phi) < t (phi above asin(c/t)), is ``_log_radial`` in closed form (a margin
    the difference of two).  One Gauss-Legendre rule, doubled by ``_converge``, takes the arc
    in phi but a slab's side past asin(c/t) in r in [2c, t], where in phi it grows too fast.

    The error is the last doubling delta plus the rounding bound 4 eps (1 + |log value|) S / V,
    with S the rule over the magnitudes that the windows subtract and V the rule itself: a
    log term rounds to eps times its size, at most about |log value|, and a subtraction
    scales that by S / V."""
    t, n = domain.t, float(rs.simple_dual_norms[0])
    c = domain.regular_margin or domain.slab or 0.0
    edge = math.asin(c / t) if c < 0.5 * t else math.pi / 6  # where c / sin(phi) reaches t
    lo, hi = (0.0, edge) if domain.slab is not None else (edge, math.pi / 6)
    radii, ratios = domain.slab is not None and edge < math.pi / 6, []

    def evaluate(nodes):
        x, w = _gauss_legendre(nodes)
        u = 0.5 * (x + 1.0)  # the nodes on [0, 1], whose weights are w / 2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pieces = [(lo + (hi - lo) * u, np.log(0.5 * (hi - lo) * w), np.full(nodes, t))]
            if radii:  # phi = asin(q), q = c / r, and d phi = q dr / (r sqrt(1 - q^2))
                span = t - 2.0 * c
                r = 2.0 * c + span * u
                q = c / r
                pieces.append((np.arcsin(q), np.log(0.5 * span * w * q / np.sqrt(1.0 - q * q) / r), r))
            phi, log_w, h = map(np.concatenate, zip(*pieces))
            a, b = n * np.sin(phi), n * np.sin(math.pi / 3 - phi)
            log_val, log_mag = _log_radial(integrand, a, b, h)
            if domain.regular_margin:  # the window [c n / a, t]
                low, low_mag = _log_radial(integrand, a, b, np.minimum(t, c * n / a))
                log_val = log_val + np.log1p(-np.exp(np.minimum(low - log_val, 0.0)))
                log_mag = np.logaddexp(log_mag, low_mag)
            total = logsumexp(log_val + log_w)
            ratios.append(logsumexp(log_mag + log_w) - total)
        return math.log(2.0) + total

    log_value, error = _converge(evaluate)
    if log_value > LOG_ZERO:  # every window is empty for a margin of t/2 on (or just short, in floats)
        error += 4.0 * math.ulp(1.0) * (1.0 + abs(log_value)) * math.exp(ratios[-1])
    return _finish(log_value, "quadrature", error)


def _box_jacobian(rs: RootSystemA, duals) -> float:
    basis = _ortho_basis(rs)
    cols = np.array([[rs.killing_inner(u, b) for b in basis] for u in duals]).T
    return abs(float(np.linalg.det(cols)))


# ------------------------------------------------------------- ball volume


def closed_form_ball_d2(t: float) -> float:
    """Exact d=2 ball volume 2 sqrt 2 sinh(t / (2 sqrt 2))^2, inf past the float range."""
    try:
        return 2.0 * math.sqrt(2.0) * math.sinh(t / (2.0 * math.sqrt(2.0))) ** 2
    except OverflowError:
        return math.inf


def ball_volume(rs_or_d, t: float) -> VolumeResult:
    """Harish-Chandra volume of the chamber ball of Killing radius t: the closed form at
    d = 2, the angular rule over closed-form radial integrals at d = 3."""
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
    jac = _box_jacobian(rs, _dual_basis(rs))
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
    res.extras.update(log_ratio=log_ratio, ratio=math.exp(log_ratio) if log_ratio < 700 else math.inf,
                      log_volume=vol.log_value)
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
