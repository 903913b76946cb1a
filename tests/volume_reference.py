"""A uniform-box Monte-Carlo estimate of chamber-domain volumes, a test reference
for the quadratures and the closed forms of ``wcc.volume``; and the Lipschitz and
well-roundedness probes of the volume family, the largest wall distance of a
domain and the pointwise Harish-Chandra density, which no command or acceptance
criterion runs (they were ``wcc.volume.lipschitz_probe``, ``well_rounded_probe``,
``max_wall_distance`` and ``hc_integrand``, unchanged); the d = 3 box volume by a
2-D product rule with node doubling, one outer node at a time, which criterion 2 holds
against the closed form (``wcc.volume.box_volume_quadrature`` on the stacked
``_log_quad_2d``, whose floats it gives bit for bit, with ``log_hc_integrand``); the wall
distance of one direction at a time (``wcc.volume._wall_scale``, unchanged); the
membership of one Cartan vector (``wcc.volume.Domain.contains_cartan``, unchanged);
the 1-D quadrature, its e^(2 rho) density and the log difference that the closed forms
of ``wcc.volume`` replaced (``_log_quad_1d``, ``log_two_rho_integrand`` and ``_log_sub``,
unchanged); the oracles of the closed forms: the signed-exponential box expansion, the
integral over any rectangles in the simple-root coordinates at 50 digits, for both
densities, and the d = 3 ball, with its margin or slab, at 60 digits; the node
doubling up to 2 MAX_NODES nodes, the oracle of ``wcc.volume._converge``; and the Helmert
basis, the dual basis of the simple roots and the Gram determinant of the cell they span
(``wcc.volume._ortho_basis``, ``_dual_basis`` and ``_box_jacobian``, unchanged), the
oracles of ``wcc.volume._cell_area`` and of ``Domain.max_top_weight`` on a box."""

import decimal
import itertools
import math

import mpmath
import numpy as np

from wcc import projections as pj
from wcc.errors import NumericError, ParameterError, PreconditionError
from wcc.rootsys import CHAMBER_TOL, RootSystemA, root_system
from wcc.volume import (
    LOG_ZERO,
    MAX_NODES,
    QUAD_REL_TOL,
    Domain,
    _converge,
    _finish,
    _gauss_legendre,
    _log_sinh,
    _root_system,
    domain_volume,
    logsumexp,
)

from rootsys_reference import dual_vector, killing_inner


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


def _box_jacobian(rs: RootSystemA, duals) -> float:
    """The Killing area of the cell spanned by ``duals``: |det| of their coordinates in
    ``_ortho_basis``, the Gram-determinant oracle of ``wcc.volume._cell_area``."""
    basis = _ortho_basis(rs)
    cols = np.array([[killing_inner(rs, u, b) for b in basis] for u in duals]).T
    return abs(float(np.linalg.det(cols)))


def _log_sub(log_a: float, log_b: float) -> float:
    """log(exp(log_a) - exp(log_b)) with the usual guards (``wcc.volume._log_sub``, unchanged)."""
    if log_b == LOG_ZERO:
        return log_a
    if log_b >= log_a:
        return LOG_ZERO
    return log_a + math.log1p(-math.exp(log_b - log_a))


def log_two_rho_integrand(rs: RootSystemA, ys: np.ndarray) -> np.ndarray:
    """Log of e^(2 rho) at chamber points (rows of ys)."""
    return np.atleast_2d(ys) @ rs.two_rho


def log_quad_1d(log_density, lo: float, hi: float):
    """Gauss-Legendre with node doubling on [lo, hi] of a log density (``wcc.volume._log_quad_1d``,
    unchanged), the d = 2 quadrature that the closed forms replaced."""
    if hi <= lo:
        return LOG_ZERO, 0.0

    def evaluate(n):
        x, w = _gauss_legendre(n)
        u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        logw = np.log(0.5 * (hi - lo) * w)
        return float(logsumexp(log_density(u) + logw))

    return _converge(evaluate)


def _wall_scale(rs: RootSystemA, direction: np.ndarray) -> float:
    """Wall distance of a unit direction (wall(r u) = r * wall(u))."""
    return min(
        max(0.0, float(c @ direction)) / rs.dual_norm(c) for c in rs.simple_roots
    )


def contains_cartan(domain: Domain, rs: RootSystemA, a) -> bool:
    """Membership of a closed-chamber vector (checked): the one-row ``contains_rows``."""
    wall = rs.wall_distance(a)
    return bool(domain.contains_rows(rs, np.asarray(a, dtype=float)[None], np.array([wall]))[0])


def monte_carlo_volume(rs, domain, n_samples: int = 200000, seed: int = 3) -> dict:
    """Mean of the Harish-Chandra density over uniform samples of a box around an
    unfiltered ball or parallelotope domain, times the box volume, with its
    standard error.  Membership is the closed chamber (tolerance ``CHAMBER_TOL``,
    scaled as in ``RootSystemA.in_closed_chamber``) and the domain's own bound."""
    rng = np.random.default_rng(seed)
    basis = _ortho_basis(rs)
    if domain.kind == "ball":
        box_lo = np.full(rs.d - 1, -domain.t)
        box_hi = np.full(rs.d - 1, domain.t)
    else:
        duals = _dual_basis(rs)
        corners = np.array(
            [
                [np.dot(sum(c * u for c, u in zip(corner, duals)), b * rs.killing_scale) for b in basis]
                for corner in itertools.product(*[(0.0, domain.t * e) for e in domain.edges])
            ]
        )
        box_lo, box_hi = corners.min(axis=0), corners.max(axis=0)
    coords = rng.uniform(box_lo, box_hi, size=(n_samples, rs.d - 1))
    ys = coords @ basis
    scale = np.maximum(1.0, np.max(np.abs(ys), axis=1))
    inside = np.all(np.diff(ys, axis=1) <= CHAMBER_TOL * scale[:, None], axis=1)
    if domain.kind == "ball":
        inside &= np.sqrt(rs.killing_scale * np.sum(ys * ys, axis=1)) <= domain.t
    else:
        heights = ys @ np.array(rs.simple_roots).T
        inside &= np.all(heights <= domain.t * np.array(domain.edges), axis=1)
    vals = np.zeros(n_samples)
    if inside.any():
        vals[inside] = np.exp(log_hc_integrand(rs, ys[inside]))
    box_vol = float(np.prod(box_hi - box_lo))
    mean = vals.mean()
    std_err = vals.std(ddof=1) / math.sqrt(n_samples)
    return {"value": box_vol * mean, "std_err": box_vol * std_err, "n": n_samples}


def lipschitz_probe(rs_or_d, kind: str, t_grid, eps_grid, edges=None) -> dict:
    """Estimate the local Lipschitz constant of log volume in t (t > 1)."""
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    if any(t <= 1.0 for t in t_grid):
        raise ParameterError("the Lipschitz regime needs t > 1")
    rows = []
    for t in t_grid:
        base = domain_volume(rs, Domain(kind, t, tuple(edges) if edges else None)).log_value
        for eps in eps_grid:
            bumped = domain_volume(
                rs, Domain(kind, t + eps, tuple(edges) if edges else None)
            ).log_value
            rows.append({"t": t, "eps": eps, "slope": (bumped - base) / eps})
    slopes = [r["slope"] for r in rows]
    return {
        "kind": kind,
        "rows": rows,
        "C": max(slopes),
        "finite": all(np.isfinite(slopes)),
    }


def well_rounded_probe(
    rs_or_d,
    kind: str,
    delta: float,
    t: float,
    eps: float,
    edges=None,
    n_samples: int = 2000,
    seed: int = 11,
) -> dict:
    """Stability of the wall-trimmed family under group-ball perturbations.

    (a) products u g v with chamber displacements of u, v at most eps/2 land
    in the family fattened by eps in both the scale and the wall margin (an
    exact consequence of the Cartan comparison bound, re-verified here by
    sampling);  (b) the fattened-minus-shrunk volume is at most C eps times
    the volume, with the fitted C reported.
    """
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    if delta <= 0 or eps < 0:
        raise ParameterError("delta must be positive and eps nonnegative")
    edges_t = tuple(edges) if edges else None
    domain = Domain(kind, t, edges_t)

    def trimmed(t, margin):
        return domain_volume(rs, Domain(kind, t, edges_t, regular_margin=margin)).log_value

    vol_s = trimmed(t, delta)
    if eps == 0.0:
        return {"volume_sandwich_C": 0.0, "samples_ok": True, "vol_S": vol_s,
                "vol_plus": vol_s, "vol_minus": vol_s, "n_samples": 0, "failures": 0}
    vol_plus, vol_minus = trimmed(t + eps, max(delta - eps, 0.0)), trimmed(t - eps, delta + eps)
    diff = _log_sub(vol_plus, vol_minus)
    c_fit = math.exp(diff - vol_s) / eps if diff != LOG_ZERO else 0.0

    rng = np.random.default_rng(seed)
    failures = 0
    fat = Domain(kind, t + eps, edges_t)
    for _ in range(n_samples):
        y = _sample_chamber_point(rs, domain, delta, rng)
        g = pj.random_so(rs.d, rng) @ np.diag(np.exp(y)) @ pj.random_so(rs.d, rng)
        u = _small_displacement(rs, eps / 2.0, rng)
        v = _small_displacement(rs, eps / 2.0, rng)
        a = pj.cartan_vector(pj.GroupElement(u @ g @ v, check=False))
        if not (contains_cartan(fat, rs, a) and rs.wall_distance(a) >= delta - eps - 1e-9):
            failures += 1
    return {
        "volume_sandwich_C": c_fit,
        "vol_S": vol_s,
        "vol_plus": vol_plus,
        "vol_minus": vol_minus,
        "n_samples": n_samples,
        "failures": failures,
        "samples_ok": failures == 0,
    }


def _sample_chamber_point(rs: RootSystemA, domain: Domain, margin: float, rng) -> np.ndarray:
    basis = _ortho_basis(rs) if domain.kind == "ball" else _dual_basis(rs)
    for _ in range(10000):
        if domain.kind == "ball":
            u = rng.normal(size=rs.d - 1)
            u *= domain.t * rng.uniform() ** (1.0 / (rs.d - 1)) / np.linalg.norm(u)
            y = u @ basis
        else:
            y = sum(rng.uniform(0, domain.t * e) * u for e, u in zip(domain.edges, basis))
        y = np.asarray(y)
        y = np.sort(y)[::-1]
        if contains_cartan(domain, rs, y) and rs.wall_distance(y) >= margin:
            return y
    raise NumericError("failed to sample a chamber point inside the trimmed domain")


def _small_displacement(rs: RootSystemA, radius: float, rng) -> np.ndarray:
    y = rng.normal(size=rs.d)
    y -= y.mean()
    norm = rs.killing_norm(y)
    if norm > 0:
        y *= rng.uniform(0.0, radius) / norm
    return pj.random_so(rs.d, rng) @ np.diag(np.exp(np.sort(y)[::-1])) @ pj.random_so(rs.d, rng)


def max_wall_distance(rs: RootSystemA, domain: Domain) -> float:
    """Largest wall distance attained on the unfiltered domain."""
    if domain.kind == "ball":
        if rs.d == 2:
            return domain.t
        # alpha(rho) = 1 for every simple root alpha, so the rho ray is
        # equidistant from the walls and farthest from them
        return domain.t * _wall_scale(rs, dual_vector(rs, rs.two_rho))
    domain.for_dimension(rs.d)
    duals = _dual_basis(rs)
    corners = itertools.product(*[(0.0, domain.t * e) for e in domain.edges])
    best = 0.0
    for corner in corners:
        y = sum(c * u for c, u in zip(corner, duals))
        best = max(best, rs.wall_distance(np.asarray(y)))
    return best


def hc_integrand(rs_or_d, y) -> float:
    """Harish-Chandra density at one chamber point; zero on the walls."""
    rs = rs_or_d if isinstance(rs_or_d, RootSystemA) else root_system(rs_or_d)
    y = rs.check_traceless(y)
    if not rs.in_closed_chamber(y):
        raise PreconditionError(f"integrand is defined on the closed chamber, got {y}")
    val = log_hc_integrand(rs, y[None, :])[0]
    return 0.0 if val == LOG_ZERO else math.exp(val)


def log_hc_integrand(rs: RootSystemA, ys: np.ndarray) -> np.ndarray:
    """Log of the Harish-Chandra density at chamber points (rows of ys)."""
    ys = np.atleast_2d(ys)
    total = np.zeros(ys.shape[0])
    for root in rs.positive_roots:  # multiplicity 1 each
        total = total + _log_sinh(ys @ root)
    return total


def reference_log_quad_2d(log_density, hi1, hi2):
    """The product rule over [0, hi1] x [0, hi2], doubled by ``wcc.volume._converge``, with one
    inner rule and one ``logsumexp`` per outer node."""
    if not (hi1 > 0.0 and hi2 > 0.0):
        return LOG_ZERO, 0.0

    def evaluate(n):
        x, w = _gauss_legendre(n)
        u = 0.5 * hi1 * x + 0.5 * hi1
        logw_u = np.log(0.5 * hi1 * w)
        v = 0.5 * hi2 * x + 0.5 * hi2
        logw_v = np.log(0.5 * hi2 * w)
        pieces = [logsumexp(log_density(np.full_like(v, ui), v) + logw_v) + lwi for ui, lwi in zip(u, logw_u)]
        return float(logsumexp(pieces))

    return _converge(evaluate)


def box_volume_quadrature(rs_or_d, t: float, edges):
    """The d = 3 box volume by the 2-D rule over [0, t a_1] x [0, t a_2], to ``QUAD_REL_TOL``:
    an evaluation independent of the closed form of ``wcc.volume.box_volume``."""
    rs = _root_system(rs_or_d)
    Domain("box", t, tuple(float(e) for e in edges)).for_dimension(rs.d)
    if rs.d != 3:
        raise ParameterError("box quadrature is shipped for d = 3")
    his = [t * float(e) for e in edges]
    # the log value grows as t * edge, past what _converge resolves from QUAD_REL_TOL / eps on
    if max(his) * math.ulp(1.0) >= QUAD_REL_TOL:
        raise NumericError(f"box quadrature cannot resolve t * edge = {max(his)} to {QUAD_REL_TOL}")
    u0, u1 = duals = _dual_basis(rs)
    log_jac = math.log(_box_jacobian(rs, duals))

    def density(z0, z1):
        return log_hc_integrand(rs, np.outer(z0, u0) + np.outer(z1, u1)) + log_jac

    log_val, delta = reference_log_quad_2d(density, his[0], his[1])
    return _finish(log_val, "quadrature", delta)


def doubling_converge(evaluate, rel_tol: float = QUAD_REL_TOL):
    """``wcc.volume._converge`` before it stopped at MAX_NODES: it doubles up to 2 MAX_NODES
    nodes whatever the deltas do (unchanged otherwise)."""
    n = 24
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
        prev = cur
    raise NumericError(f"quadrature did not converge below {rel_tol} by {MAX_NODES} nodes")


def _expansion_terms(rs: RootSystemA):
    """Signed exponential terms of the sinh-product development.

    Yields (sign, coefficient vector in the simple-root basis) for
    2^(sum of multiplicities) terms; the all-plus term is 2 rho.
    """
    roots = [np.asarray(root) for root in rs.positive_roots]  # multiplicity 1 each
    simple = np.array(rs.simple_roots).T
    for signs in itertools.product((0, 1), repeat=len(roots)):
        omega = sum((-1.0 if s else 1.0) * r for s, r in zip(signs, roots))
        coeffs, *_ = np.linalg.lstsq(simple, omega, rcond=None)
        coeffs = np.round(coeffs).astype(int)
        if np.max(np.abs(simple @ coeffs - omega)) > 1e-9:
            raise NumericError("expansion term is not an integer root combination")
        yield (-1) ** sum(signs), coeffs


def expansion_box_volume(rs_or_d, t: float, edges):
    """Exact finite expansion of the parallelotope volume (``wcc.volume.box_volume``
    before the closed form replaced it, unchanged, with its error of 0.0).  Its
    signed pieces cancel on small or thin boxes: 0.52 in log at t = 0.01 on edges
    (1, 1e-3), 6.4e-10 at t = 1 there, at most 2.3e-13 at t >= 1 on fat boxes.

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
    n_mult = len(rs.positive_roots)
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


def decimal_log_volume(d: int, rects, integrand: str = "hc", prec: int = 120) -> decimal.Decimal:
    """The log of the integral of the density over rectangles in z_i = alpha_i(Y) at 50
    digits: each rectangle a list of d - 1 intervals (a, b) of Decimals (or floats, taken
    exactly), with the exact jacobian (sqrt 2 at d = 2, 2 sqrt 3 at d = 3).

    Each factor is the difference of its antiderivative at b and a, at ``prec`` digits:
    at d = 2, cosh b - cosh a (hc) and e^b - e^a (two_rho); at d = 3, with
    I(f) = f(b) - f(a), I(sinh(2z)/4 - z/2) I(sinh(z)^2/2) + the same swapped (hc), and
    prod I(e^(2z)/2) (two_rho).  The differences lose about 35 of the 120 digits on
    rectangles of side 1e-11 at the origin, and fewer on larger ones."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = prec

        def sinh(z):
            return (z.exp() - (-z).exp()) / 2

        def cosh(z):
            return (z.exp() + (-z).exp()) / 2

        def sq(z):  # int sinh^2
            return sinh(2 * z) / 4 - z / 2

        def sc(z):  # int sinh cosh
            return sinh(z) ** 2 / 2

        def e2(z):  # int e^(2z)
            return (2 * z).exp() / 2

        def diff(f, interval):
            a, b = interval
            return f(D(b)) - f(D(a))

        total = D(0)
        for rect in rects:
            if d == 2:
                total += D(2).sqrt() * diff(D.exp if integrand == "two_rho" else cosh, rect[0])
            elif integrand == "two_rho":
                total += 2 * D(3).sqrt() * diff(e2, rect[0]) * diff(e2, rect[1])
            else:
                x, y = rect
                total += 2 * D(3).sqrt() * (diff(sq, x) * diff(sc, y) + diff(sc, x) * diff(sq, y))
        ctx.prec = 50
        return +total.ln()


def exact_rectangles(d: int, domain: Domain):
    """The rectangles of ``decimal_log_volume`` for a domain, from the exact values of its
    floats and the exact dual norm of each simple root (1/sqrt 2 at d = 2, 1/sqrt 3 at
    d = 3): the ball at d = 2 is the interval of edge 1/sqrt 2, a margin m raises each lower
    end to m ||alpha_i||_*, and a slab s is z_0 <= c_0, or z_0 > c_0 and z_1 <= c_1, with
    c_i = min(s ||alpha_i||_*, t a_i)."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        norm = 1 / D(d).sqrt()
        edges = [norm] if domain.kind == "ball" else [D(e) for e in domain.edges]
        his = [D(domain.t) * e for e in edges]
        if domain.slab is None:
            rects = [[(D(domain.regular_margin or 0.0) * norm, hi) for hi in his]]
        else:
            c = [min(D(domain.slab) * norm, hi) for hi in his]
            rects = ([[(D(0), c[0])]] if d == 2 else
                     [[(D(0), c[0]), (D(0), his[1])], [(c[0], his[0]), (D(0), c[1])]])
        return [r for r in rects if all(a < b for a, b in r)]


def decimal_box_log_volume(d: int, t: float, edges) -> decimal.Decimal:
    """The log of the box volume at 50 digits: ``decimal_log_volume`` over [0, t a_i]."""
    return decimal_log_volume(d, exact_rectangles(d, Domain("box", t, tuple(edges))))


def mp_log_ball_volume(t: float, integrand: str = "hc", regular_margin=None, slab=None, dps: int = 60):
    """The log of the d = 3 ball volume, or of its part with wall distance above a margin or
    within a slab c, at ``dps`` digits (``integrand`` is "hc" or "two_rho").

    Along the direction at angle theta from the rho direction the simple roots take
    a = sin(pi/6 - theta) / sqrt 3 and b = sin(pi/6 + theta) / sqrt 3, and the wall distance
    is sqrt(3) a.  The radial integral of r f(r) over [0, h] is in closed form: for hc,
    h^2/4 (M(2(a + b)h) - M(2ah) - M(2bh)) with M(x) = (x cosh x - sinh x) / x^2 - x/3 (by
    sinh x sinh y sinh(x + y) = (sinh 2(x + y) - sinh 2x - sinh 2y) / 4), and for two_rho
    P(2(a + b)h) / (2(a + b))^2 with P(x) = e^x (x - 1) + 1, each summed as its positive
    series below x = 1.  The radial window is [0, t], [c / w, t] (margin) or
    [0, min(t, c / w)] (slab), which reaches t at theta_c = pi/6 - asin(c/t).  ``mpmath.quad``
    takes twice the angular integral over [0, theta_c, pi/6], split further around the
    largest of 64 samples and scaled by it, so that its tolerance is relative.  The working
    precision is dps + 20 digits; at dps = 60 and 75 the values of the test grid agree to
    5e-57."""
    with mpmath.workdps(dps + 20):
        t, n = mpmath.mpf(t), 1 / mpmath.sqrt(3)
        c = mpmath.mpf(regular_margin or slab or 0)
        edge = mpmath.pi / 6 - mpmath.asin(c / t) if c < t / 2 else mpmath.mpf(0)
        if regular_margin and edge == 0:
            return -mpmath.inf

        def series(term, ratio):
            total, k = term, 2
            while term > total * mpmath.eps:
                term *= ratio(k)
                total += term
                k += 1
            return total

        def m(x):
            if x < 1:
                return series(x**3 / 30, lambda k: (k + 1) * x * x / (k * (2 * k + 2) * (2 * k + 3)))
            return (x * mpmath.cosh(x) - mpmath.sinh(x)) / x**2 - x / 3

        def p(x):
            if x < 1:
                return series(x * x / 2, lambda k: k * x / ((k - 1) * (k + 1)))
            return mpmath.exp(x) * (x - 1) + 1

        def radial(a, b, h):
            if integrand == "two_rho":
                return p(2 * (a + b) * h) / (2 * (a + b)) ** 2
            return h**2 / 4 * (m(2 * (a + b) * h) - m(2 * a * h) - m(2 * b * h))

        def f(theta):
            a, b = n * mpmath.sin(mpmath.pi / 6 - theta), n * mpmath.sin(mpmath.pi / 6 + theta)
            if a <= 0 or (regular_margin and theta >= edge):
                return mpmath.mpf(0)
            if regular_margin:
                return radial(a, b, t) - radial(a, b, c / (a / n))
            return radial(a, b, min(t, c / (a / n)) if slab else t)

        top = edge if regular_margin else mpmath.pi / 6
        points = [mpmath.mpf(0), top] + ([edge] if slab and 0 < edge else [])
        grid = [top * j / 64 for j in range(64)]
        samples = [f(theta) for theta in grid]
        scale = max(samples)
        peak, width = grid[samples.index(scale)], 1 / mpmath.sqrt(1 + 2 * n * t)
        points = sorted(set(points + [peak + k * width for k in (-8, -2, 2, 8) if 0 < peak + k * width < top]))
        return mpmath.log(2 * scale * mpmath.quad(lambda theta: f(theta) / scale, points))
