"""Projective contraction and the geometric configuration certifying loxodromy.

The certificate logic needs a handful of comparison constants (boundary
distortion, local metric equivalence, the Gromov-product vs flat-distance
sandwich).  They are not constructive, so ``_fit_constants`` fits deterministic
empirical envelopes on seeded samples; the values for d = 2, 3 are pinned (a test
refits them) and stamped into every certificate.  Soundness never rests on the
fits: each certified element is re-checked by an independent eigenvalue-gap test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    LoxodromyError,
    NumericError,
    ParameterError,
    PreconditionError,
    RegularityError,
    TransversalityError,
)
from . import flagmetric as fm
from . import projections as pj
from .projections import BasePoint, GroupElement
from .rootsys import root_system

T0_SAFETY = 1.05
_FIT_SAMPLES = 350


@dataclass(frozen=True)
class FittedConstants:
    """Empirically fitted comparison constants for one dimension.

    All values except c0 are engineering stand-ins measured on seeded
    samples; c0 = 4 * C_a comes from the norm-comparison constant of the
    root system.
    """

    d: int
    c0: float
    c1: float
    c2: float
    c3: float
    c_prime: float
    eps0: float
    r0: float

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "C0": self.c0,
            "C1": self.c1,
            "C2": self.c2,
            "C3": self.c3,
            "C_prime": self.c_prime,
            "eps0": self.eps0,
            "r0": self.r0,
            "provenance": "C0 analytic (4*C_a); C1,C2,C3,C_prime,eps0 pinned fitted envelopes",
        }


def _random_group(rng, d, scale) -> GroupElement:
    y = rng.normal(size=d) * scale
    y -= y.mean()
    y = np.sort(y)[::-1]
    k1 = pj.random_so(d, rng)
    k2 = pj.random_so(d, rng)
    return GroupElement(k1 @ np.diag(np.exp(y)) @ k2, check=False)


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


# _fit_constants for d = 2, 3: (c1, c2, c3, c_prime, eps0, r0), written with repr.  The
# fit costs seconds per process, so it is pinned here; a Tier-1 test refits and compares.
_PINNED_CONSTANTS = {
    2: (1.05, 2.3291146540522427, 1.809028672008994, 0.3884860036299408, 0.1, 0.42630275100660764),
    3: (1.05, 2.9912850638252486, 1.7520677345766242, 0.8687302697796185, 0.1, 0.42630275100660764),
}


@lru_cache(maxsize=None)
def fitted_constants(d: int) -> FittedConstants:
    """Comparison constants of dimension d: the pinned table for d = 2, 3, else a fresh fit."""
    if d in _PINNED_CONSTANTS:
        return FittedConstants(d, 4.0 * root_system(d).c_a(), *_PINNED_CONSTANTS[d])
    return _fit_constants(d)


def _fit_constants(d: int) -> FittedConstants:
    rs = root_system(d)
    c0 = 4.0 * rs.c_a()
    rng = np.random.default_rng(20240 + d)

    # C1: distortion envelope of the boundary metrics and the cocycle under
    # moderate group elements, relative to exp(C0 * displacement)
    worst = 1.0
    for _ in range(_FIT_SAMPLES):
        g = _random_group(rng, d, rng.uniform(0.05, 0.6))
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
        g1 = _random_group(rng, d, rng.uniform(0.005, 0.04))
        g2 = _random_group(rng, d, rng.uniform(0.005, 0.04))
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
            g = _random_group(rng, d, rng.uniform(0.1, 0.8))
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


def cx_constant(x: BasePoint) -> float:
    """Configuration constant 8 C2 C1 exp(C0 d_X(o, x))."""
    consts = fitted_constants(x.d)
    dx = pj.dist_x(BasePoint.origin(x.d), x)
    return 8.0 * consts.c2 * consts.c1 * math.exp(consts.c0 * dx)


def t_zero(x: BasePoint, epsilon: float, safety: float = T0_SAFETY) -> float:
    """Wall-margin threshold for the certificate, with the comparison slack.

    The contraction step needs every simple root of the chamber displacement
    to exceed 2 log C_x - 2 log(eps); wall distance and the root minimum
    differ by the exact factor sqrt(d) in type A, padded by ``safety``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0,1), got {epsilon}")
    cx = cx_constant(x)
    return safety * math.sqrt(x.d) * (2.0 * math.log(cx) - 2.0 * math.log(epsilon))


@dataclass
class ContractionResult:
    analytic: bool
    n_sampled: int
    n_contracted: int
    max_image_distance: float


def contraction_check(a, epsilon: float, n_samples: int = 1000, seed: int = 7) -> ContractionResult:
    """Analytic contraction criterion plus a sampled verification.

    Analytic flag: every simple root of ``a`` is at least -2 log(eps).  When
    sampling, flags at gauge distance at least eps from the repelling flag
    must be mapped into the eps-ball of the attracting one.
    """
    a = np.asarray(a, dtype=float)
    rs = root_system(len(a))
    rs.check_traceless(a)
    if not rs.in_closed_chamber(a):
        raise PreconditionError("contraction_check needs a closed-chamber vector")
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError(f"epsilon must be in (0,1), got {epsilon}")
    analytic = all(float(c @ a) >= -2.0 * math.log(epsilon) for c in rs.simple_roots)

    rng = np.random.default_rng(seed)
    d = len(a)
    g = np.diag(np.exp(a))
    target = fm.eta0(d)
    repeller = fm.zeta0(d)
    contracted, sampled = 0, 0
    worst = 0.0
    attempts = 0
    while sampled < n_samples and attempts < 50 * n_samples:
        attempts += 1
        xi = fm.Flag(pj.random_so(d, rng))
        if fm.dist_delta(xi, repeller) < epsilon:
            continue
        sampled += 1
        dist = fm.dist_d(xi.translate(g), target)
        worst = max(worst, dist)
        if dist <= epsilon:
            contracted += 1
    return ContractionResult(analytic, sampled, contracted, worst)


@dataclass
class LoxodromyCertificate:
    element: GroupElement
    base: BasePoint
    r: float
    epsilon: float
    conditions: dict
    certified: bool
    fixed_point_errors: tuple | None = None
    constants: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "epsilon": self.epsilon,
            "conditions": self.conditions,
            "certified": self.certified,
            "fixed_point_errors": self.fixed_point_errors,
            "constants": self.constants,
        }


def certify(
    gamma: GroupElement,
    x: BasePoint,
    r: float,
    epsilon: float,
    safety: float = T0_SAFETY,
) -> LoxodromyCertificate:
    """Certify loxodromy from the chamber-displacement configuration at x.

    Condition (i): the chamber displacement of x stays at least t0(x, eps)
    away from the walls.  Condition (ii): the two angular flags are
    transverse and their maximal flat passes within r of x.  On success the
    element is independently re-checked by eigenvalue gaps and the fixed
    points are located within eps of the angular flags.

    One-directional: an uncertified element may still be loxodromic.
    """
    d = gamma.d
    consts = fitted_constants(d)
    cx = cx_constant(x)
    if not 0.0 < r < consts.r0:
        raise ParameterError(f"r must lie in (0, r0={consts.r0:.6f}), got {r}")
    eps_cap = min(r / cx, consts.eps0)
    if not 0.0 < epsilon < eps_cap:
        raise ParameterError(
            f"epsilon must lie in (0, min(r/C_x, eps0)) = (0, {eps_cap:.6g}), got {epsilon}"
        )

    rs = root_system(d)
    t0 = t_zero(x, epsilon, safety)
    a_x = pj.cartan_at(gamma, x)
    wall = rs.wall_distance(a_x)
    conditions = {
        "wall_distance": wall,
        "t0": t0,
        "wall_margin_ok": bool(wall >= t0),
        "transverse_ok": False,
        "flat_dist": math.inf,
    }

    pair = None
    if conditions["wall_margin_ok"]:
        try:
            plus, minus = pj.angular_points(gamma, x, margin=0.0)
            pair = fm.TransversePair(plus, minus)
            conditions["transverse_ok"] = True
            conditions["flat_dist"] = fm.flat_distance(x, pair)
        except (RegularityError, TransversalityError, NumericError):
            pair = None

    certified = bool(
        conditions["wall_margin_ok"]
        and conditions["transverse_ok"]
        and conditions["flat_dist"] < r
    )

    fixed_point_errors = None
    if certified:
        _, independent_lox = pj.jordan_project(gamma)
        if not independent_lox:
            # the configuration misfired; never report an unsound certificate
            certified = False
        else:
            gp, gm = fm.fixed_points(gamma)
            fixed_point_errors = (
                fm.dist_d(gp, pair.xi_plus),
                fm.dist_d(gm, pair.xi_minus),
            )

    return LoxodromyCertificate(
        element=gamma,
        base=x,
        r=r,
        epsilon=epsilon,
        conditions=conditions,
        certified=certified,
        fixed_point_errors=fixed_point_errors,
        constants=consts.as_dict() | {"C_x": cx},
    )


def jordan_cartan_gap(gamma: GroupElement, x: BasePoint, slack: float = 1e-6) -> float:
    """Distance between the Jordan and x-Cartan projections of a loxodromic element.

    Also asserts the flat bound: the gap never exceeds twice the distance
    from x to the fixed-point flat (plus numeric slack).
    """
    lam, is_lox = pj.jordan_project(gamma)
    if not is_lox:
        raise LoxodromyError("jordan_cartan_gap needs a loxodromic element")
    rs = root_system(gamma.d)
    gap = rs.killing_norm(lam - pj.cartan_at(gamma, x))
    gp, gm = fm.fixed_points(gamma)
    bound = 2.0 * fm.flat_distance(x, fm.TransversePair(gp, gm)) + slack
    if gap > bound:
        raise NumericError(
            f"flat bound violated: gap {gap} exceeds 2*flat_distance + slack = {bound}"
        )
    return gap


def constants_report(d: int) -> dict:
    return fitted_constants(d).as_dict()
