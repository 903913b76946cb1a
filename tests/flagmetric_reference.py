"""Flag helpers that no command, acceptance criterion or library function runs,
kept for their tests: the transversality predicate and a representative with
given Hopf coordinates (they were ``wcc.flagmetric.is_transverse``, with its
default tolerance, and ``hopf_inverse``, unchanged), and the witness frames
with one SVD per subspace dimension k (``wcc.flagmetric._witness_frames``
before its d systems went into one stacked SVD), the oracle of its bits; and the
Radon-Nikodym factor of a translated boundary measure (``rn_derivative``, unchanged
from ``wcc.flagmetric``), which only the flag tests run."""

import math

import numpy as np

from wcc.errors import PreconditionError
from wcc.flagmetric import Flag, HopfPoint, dist_delta, eta0
from wcc.projections import GroupElement, iwasawa_cocycle
from wcc.rootsys import root_system

TRANSVERSE_TOL_DEFAULT = 1e-9


def is_transverse(xi, eta, tol: float = TRANSVERSE_TOL_DEFAULT) -> bool:
    if tol <= 0:
        raise PreconditionError("transversality tolerance must be positive")
    return dist_delta(xi, eta) > tol


def reference_witness_frames(plus: np.ndarray, minus: np.ndarray):
    n, d = plus.shape[:2]
    g = np.empty((n, d, d))
    s_min, norms = np.empty((n, d)), np.empty((n, d))
    for k in range(1, d + 1):
        a = plus[:, :, :k]
        _, s, vh = np.linalg.svd(np.concatenate([a, -minus[:, :, : d - k + 1]], axis=2))
        v = (a @ vh[:, -1, :k, None])[..., 0]
        s_min[:, k - 1], norms[:, k - 1] = s[:, -1], np.sqrt(np.vecdot(v, v))  # np.linalg.norm per row
        g[:, :, k - 1] = v
    g /= np.maximum(norms, 1e-300)[:, None, :]
    errors, scale = [], np.ones(n)
    for i, (det, row_s, row_n) in enumerate(zip(np.linalg.det(g), s_min.tolist(), norms.tolist())):
        k = next((k for k in range(d) if row_s[k] < 1e-7 or row_n[k] < 1e-12), None)
        if k is not None:
            errors.append(f"subspaces meet in more than a line (d-th singular value {row_s[k]:.2e})"
                          if row_s[k] < 1e-7 else "degenerate intersection in witness construction")
        elif abs(det) < 1e-12:
            errors.append("witness frame is singular")
        else:
            errors.append(None)
            if det < 0:
                g[i, :, -1] *= -1.0
            scale[i] = abs(det) ** (1.0 / d)  # a scalar power: the array power rounds differently
    return g / scale[:, None, None], errors


def hopf_inverse(point: HopfPoint) -> GroupElement:
    """A representative of the M-coset with the given Hopf coordinates."""
    w = point.pair.witness
    base = iwasawa_cocycle(w, eta0(w.d))
    shift = np.asarray(point.a_coord, dtype=float) - base
    return GroupElement(w.mat @ np.diag(np.exp(shift)), check=False)


def rn_derivative(g: GroupElement, xi: Flag) -> float:
    """Radon-Nikodym factor of the translated boundary measure at xi.

    exp(-2 rho sigma(g^-1, xi)): the Poisson kernel of the full flag
    variety.  Averaging it over the rotation-invariant measure returns total
    mass one (the change-of-variables oracle pins the factor two in the
    exponent).
    """
    rs = root_system(g.d)
    sigma = iwasawa_cocycle(g.inverse(), xi)
    return math.exp(-float(rs.two_rho @ sigma))
