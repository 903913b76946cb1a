"""Flag helpers that no command, acceptance criterion or library function runs,
kept for their tests: the transversality predicate and a representative with
given Hopf coordinates (they were ``wcc.flagmetric.is_transverse``, with its
default tolerance, and ``hopf_inverse``, unchanged), and the witness frames
with one SVD per subspace dimension k (the stacked ``wcc.flagmetric._witness_frames``
before its d systems went into one stacked SVD, then into a closed form, and at d = 3
into the one-pair ``_sl3_witness``), the oracle of its columns up to sign and of its
refusals; and the
Radon-Nikodym factor of a translated boundary measure (``rn_derivative``, unchanged
from ``wcc.flagmetric``), which only the flag tests run.  Also the witness of one pair
(``transverse_witness``, and ``witness`` for a ``TransversePair``), which only the tests
and references build: they were ``wcc.flagmetric.transverse_witness`` and the cached
``TransversePair.witness``; at d = 2 its witness is that of the stacked ``_witness_frames``
(columns xi_1 and eta_1), which the library no longer needs, as the d = 2 flat distance
is a closed form."""

import math

import numpy as np

from wcc.errors import PreconditionError, TransversalityError
from wcc.flagmetric import Flag, HopfPoint, TransversePair, _sl3_witness, dist_delta, eta0
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


def transverse_witness(xi: Flag, eta: Flag) -> GroupElement:
    """Unimodular g with g(eta0, zeta0) = (xi, eta), column by column as in
    ``_sl3_witness``; at d = 2 the columns xi_1 and eta_1, refused below |det| = 1e-12."""
    if xi.d == 3:
        g, error = _sl3_witness(*xi.lines, *eta.lines)
        if error:
            raise TransversalityError(error)
        return GroupElement(g, check=False)
    if xi.d != 2:
        raise PreconditionError(f"witness frames are built for d = 2 and 3, got d = {xi.d}")
    g = np.stack([xi.frame[:, 0], eta.frame[:, 0]], axis=1)
    det = np.linalg.det(g)
    if abs(det) < 1e-12:
        raise TransversalityError("witness frame is singular")
    if det < 0:
        g[:, -1] *= -1.0
    return GroupElement(g / abs(det) ** 0.5, check=False)


def witness(pair: TransversePair) -> GroupElement:
    return transverse_witness(pair.xi_plus, pair.xi_minus)


def hopf_inverse(point: HopfPoint) -> GroupElement:
    """A representative of the M-coset with the given Hopf coordinates."""
    w = witness(point.pair)
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
