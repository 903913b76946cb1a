"""A uniform-box Monte-Carlo estimate of chamber-domain volumes, a test reference
for the quadrature and the closed forms of ``wcc.volume``; and the Lipschitz and
well-roundedness probes of the volume family, the largest wall distance of a
domain and the pointwise Harish-Chandra density, which no command or acceptance
criterion runs (they were ``wcc.volume.lipschitz_probe``, ``well_rounded_probe``,
``max_wall_distance`` and ``hc_integrand``, unchanged); and the 2-D rule one outer
node at a time, the oracle of the stacked ``wcc.volume._log_quad_2d``."""

import itertools
import math

import numpy as np

from wcc import projections as pj
from wcc.errors import NumericError, ParameterError, PreconditionError
from wcc.rootsys import CHAMBER_TOL, RootSystemA, root_system
from wcc.volume import (
    LOG_ZERO,
    QUAD_REL_TOL,
    Domain,
    _converge,
    _dual_basis,
    _gauss_legendre,
    _log_sub,
    _ortho_basis,
    _region_log_integral,
    _wall_scale,
    domain_volume,
    log_hc_integrand,
    logsumexp,
)


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

    vol_s, _ = _region_log_integral(rs, domain, "hc", delta)
    if eps == 0.0:
        return {"volume_sandwich_C": 0.0, "samples_ok": True, "vol_S": vol_s,
                "vol_plus": vol_s, "vol_minus": vol_s, "n_samples": 0, "failures": 0}
    vol_plus, _ = _region_log_integral(rs, Domain(kind, t + eps, edges_t), "hc", max(delta - eps, 0.0))
    vol_minus, _ = _region_log_integral(rs, Domain(kind, t - eps, edges_t), "hc", delta + eps)
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
        if not (fat.contains_cartan(rs, a) and rs.wall_distance(a) >= delta - eps - 1e-9):
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
        if domain.contains_cartan(rs, y) and rs.wall_distance(y) >= margin:
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
        return domain.t * _wall_scale(rs, rs.dual_vector(rs.two_rho))
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


def reference_log_quad_2d(log_density, lo1, hi1, lo2_fn, hi2_fn, rel_tol=QUAD_REL_TOL):
    """Iterated integral with inner bounds depending on the outer variable, with one
    inner rule and one ``logsumexp`` per outer node (``wcc.volume._log_quad_2d`` before
    it became one stacked pass)."""
    if hi1 <= lo1:
        return LOG_ZERO, 0.0

    def evaluate(n):
        x, w = _gauss_legendre(n)
        u = 0.5 * (hi1 - lo1) * x + 0.5 * (hi1 + lo1)
        logw_u = np.log(0.5 * (hi1 - lo1) * w)
        pieces = []
        for ui, lwi in zip(u, logw_u):
            lo2, hi2 = lo2_fn(ui), hi2_fn(ui)
            if hi2 <= lo2:
                continue
            v = 0.5 * (hi2 - lo2) * x + 0.5 * (hi2 + lo2)
            logw_v = np.log(0.5 * (hi2 - lo2) * w)
            vals = log_density(np.full_like(v, ui), v)
            pieces.append(logsumexp(vals + logw_v) + lwi)
        if not pieces:
            return LOG_ZERO
        return float(logsumexp(pieces))

    return _converge(evaluate, rel_tol=rel_tol)
