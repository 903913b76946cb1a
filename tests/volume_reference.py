"""A uniform-box Monte-Carlo estimate of chamber-domain volumes, a test reference
for the quadrature and the closed forms of ``wcc.volume``."""

import itertools
import math

import numpy as np

from wcc.rootsys import CHAMBER_TOL
from wcc.volume import _dual_basis, _ortho_basis, log_hc_integrand


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
