"""The seeded fit of the certifier's comparison constants and its surrogate distances.

This was ``wcc.loxodromy``'s fitting code before the fitted values became a
pinned table for d = 2, 3; the tests keep it, unchanged, as the reference the
table is compared against.  ``dist_d1`` is the only user of ``scipy.linalg``.
"""

import math
import warnings

import numpy as np

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import NumericError, TransversalityError
from wcc.loxodromy import FittedConstants
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group

_FIT_SAMPLES = 350


def dist_d2(g1: GroupElement, g2: GroupElement) -> float:
    """Hopf-coordinate product distance between two Weyl chambers g1 M, g2 M."""
    rs = root_system(g1.d)
    h1, h2 = fm.hopf(g1), fm.hopf(g2)
    return max(
        fm.dist_d(h1.pair.xi_plus, h2.pair.xi_plus),
        fm.dist_d(h1.pair.xi_minus, h2.pair.xi_minus),
        rs.killing_norm(h1.a_coord - h2.a_coord),
    )


def _m_group(d: int):
    """Determinant-one sign matrices: the flag gauge group."""
    mats = []
    for bits in range(2**d):
        signs = [1.0 if (bits >> i) & 1 == 0 else -1.0 for i in range(d)]
        if np.prod(signs) > 0:
            mats.append(np.diag(signs))
    return mats


def dist_d1(g1: GroupElement, g2: GroupElement) -> float:
    """Local Riemannian surrogate on Weyl chambers: matrix-log length modulo M."""
    import scipy.linalg

    rel = np.linalg.inv(g1.mat) @ g2.mat
    with warnings.catch_warnings():
        # logm warns above an error estimate of 1000 eps, far below what the norm needs
        warnings.simplefilter("ignore", RuntimeWarning)
        return min(float(np.linalg.norm(scipy.linalg.logm(rel @ m))) for m in _m_group(g1.d))


def _fit_constants(d: int) -> FittedConstants:
    rs = root_system(d)
    c0 = 4.0 * rs.c_a()
    rng = np.random.default_rng(20240 + d)

    # C1: distortion envelope of the boundary metrics and the cocycle under
    # moderate group elements, relative to exp(C0 * displacement)
    worst = 1.0
    for _ in range(_FIT_SAMPLES):
        g = random_group(rng, d, rng.uniform(0.05, 0.6))
        dx = rs.killing_norm(pj.cartan_vector(g))
        damp = math.exp(c0 * dx)
        xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
        den_d = fm.dist_d(xi, eta)
        den_delta = fm.dist_delta(xi, eta)
        gxi, geta = xi.translate(g), eta.translate(g)
        if den_d > 1e-9:
            worst = max(worst, fm.dist_d(gxi, geta) / (damp * den_d))
            sig = np.linalg.norm(
                pj.iwasawa_cocycle(g, xi) - pj.iwasawa_cocycle(g, eta)
            ) * math.sqrt(rs.killing_scale)
            worst = max(worst, sig / (damp * den_d))
        if den_delta > 1e-9:
            worst = max(worst, fm.dist_delta(gxi, geta) / (damp * den_delta))
    c1 = 1.05 * worst

    # C2: local equivalence of the surrogate Riemannian distance and the
    # Hopf product distance on a fixed neighborhood of the base chamber
    eps0 = 0.1
    worst = 1.0
    for _ in range(_FIT_SAMPLES // 2):
        g1 = random_group(rng, d, rng.uniform(0.005, 0.04))
        g2 = random_group(rng, d, rng.uniform(0.005, 0.04))
        d1, d2 = dist_d1(g1, g2), dist_d2(g1, g2)
        if min(d1, d2) > 1e-8:
            worst = max(worst, d1 / d2, d2 / d1)
    c2 = 1.05 * worst

    # C3, C_prime: sandwich between the Gromov product norm and the distance
    # to the maximal flat of the pair
    ratios, excess = [1.0], [0.0]
    for trial in range(_FIT_SAMPLES // 2):
        if trial % 2 == 0:
            pair_flags = (fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng)))
        else:
            g = random_group(rng, d, rng.uniform(0.1, 0.8))
            pair_flags = (fm.eta0(d).translate(g), fm.zeta0(d).translate(g))
        try:
            pair = fm.TransversePair(*pair_flags)
            if pair.delta_value < 1e-4:
                continue
            gro = rs.killing_norm(fm.gromov_product(pair.xi_plus, pair.xi_minus))
            fd = fm.flat_distance(BasePoint.origin(d), pair)
        except (TransversalityError, NumericError):
            continue
        if fd > 1e-7:
            ratios.append(gro / fd)
        excess.append(fd - gro)
    c3 = 1.05 * max(ratios)
    c_prime = 1.05 * max(excess)

    r0 = _bisect_r0(max(c3, 2.0))
    return FittedConstants(d, c0, c1, c2, c3, c_prime, eps0, r0)


def _bisect_r0(slope: float) -> float:
    """Unique zero in (0,1) of r -> -log(r) - slope * r, to 1e-12."""
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -math.log(mid) - slope * mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)
