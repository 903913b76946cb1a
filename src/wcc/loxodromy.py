"""Projective contraction and the geometric configuration certifying loxodromy.

The certificate logic needs a handful of comparison constants (boundary
distortion, local metric equivalence, the Gromov-product vs flat-distance
sandwich).  They are not constructive: deterministic empirical envelopes fitted
on seeded samples, pinned here for d = 2, 3 (other d raise ``PreconditionError``;
the fit is a test reference that a test reruns against the table) and stamped
into every certificate.  Soundness never rests on the fits: each certified
element is re-checked by an independent eigenvalue-gap test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    LoxodromyError,
    NumericError,
    ParameterError,
    PreconditionError,
    TransversalityError,
    WccError,
)
from . import flagmetric as fm
from . import projections as pj
from .projections import BasePoint, GroupElement
from .rootsys import root_system

T0_SAFETY = 1.05  # padding of the certificate's wall-margin threshold
GAP_SLACK = 1e-6  # numeric slack of the Jordan-Cartan flat bound


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


# The seeded fit of (c1, c2, c3, c_prime, eps0, r0) for d = 2, 3, written with repr.  The
# fit costs seconds per process, so only its values ship; the fit itself is the test
# reference tests/constants_reference.py, and a Tier-1 test refits and compares.
_PINNED_CONSTANTS = {
    2: (1.05, 2.3291146540522427, 1.809028672008994, 0.3884860036299408, 0.1, 0.42630275100660764),
    3: (1.05, 2.9912850638252486, 1.7520677345766242, 0.8687302697796185, 0.1, 0.42630275100660764),
}


@lru_cache(maxsize=None)
def fitted_constants(d: int) -> FittedConstants:
    """Comparison constants of dimension d: the pinned table, for d = 2, 3 only."""
    if d not in _PINNED_CONSTANTS:
        raise PreconditionError(f"comparison constants are pinned for d = 2, 3 only, got d = {d}")
    return FittedConstants(d, 4.0 * root_system(d).c_a(), *_PINNED_CONSTANTS[d])


@pj._base_point_memo
def cx_constant(x: BasePoint) -> float:
    """Configuration constant 8 C2 C1 exp(C0 d_X(o, x)), once per value of x."""
    consts = fitted_constants(x.d)
    dx = root_system(x.d).killing_norm(pj.cartan_vector(x.h))  # d_X(o, x)
    return 8.0 * consts.c2 * consts.c1 * math.exp(consts.c0 * dx)


def t_zero(x: BasePoint, epsilon: float) -> float:
    """Wall-margin threshold for the certificate, with the comparison slack.

    The contraction step needs every simple root of the chamber displacement
    to exceed 2 log C_x - 2 log(eps); wall distance and the root minimum
    differ by the exact factor sqrt(d) in type A, padded by ``T0_SAFETY``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0,1), got {epsilon}")
    return T0_SAFETY * math.sqrt(x.d) * (2.0 * math.log(cx_constant(x)) - 2.0 * math.log(epsilon))


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
    t0 = t_zero(x, epsilon)
    # one Cartan decomposition of the conjugate gives the wall distance and the flags
    k, a_x, l = pj.cartan_project(pj._conjugate(gamma, x))
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
            pair = fm.TransversePair(*pj._angular_flags(x, k, l))
            conditions["transverse_ok"] = True
            conditions["flat_dist"] = fm.flat_distance(x, pair)
        except (TransversalityError, NumericError):
            pair = None

    certified = bool(
        conditions["wall_margin_ok"]
        and conditions["transverse_ok"]
        and conditions["flat_dist"] < r
    )

    fixed_point_errors = None
    if certified:
        # one eigen-solve gives the independent re-check and the fixed flags
        _, independent_lox, eig = pj._jordan_solve(gamma, vectors=True)
        if not independent_lox:
            # the configuration misfired; never report an unsound certificate
            certified = False
        else:
            gp, gm = fm._eigen_flags(*eig)
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


def jordan_cartan_gap(gamma: GroupElement, x: BasePoint) -> float:
    """Distance between the Jordan and x-Cartan projections of a loxodromic element.

    Also asserts the flat bound: the gap never exceeds twice the distance
    from x to the fixed-point flat (plus ``GAP_SLACK``).  The one-row case of
    ``_flat_bound_rows``.
    """
    row = _flat_bound_rows(pj._one_row(gamma), x)[0]
    if isinstance(row, WccError):
        raise row
    return row


def _flat_bound_rows(mats: np.ndarray, x: BasePoint) -> list:
    """``jordan_cartan_gap`` of every matrix of a stack (n, d, d) in one stacked pass:
    per row its gap, or the library error ``jordan_cartan_gap`` raises for it.

    An integer stack (int64, or Python ints) has exact Jordan and Cartan rows, the
    latter of its exact conjugates when h_x is integer.  One eigen-solve gives the
    Jordan rows and the fixed flags, whose flat distances come from
    ``flagmetric._fixed_flat_distances``.
    """
    eigvals, eigvecs = pj._eig(mats.astype(float), vectors=True)
    lam, lox = pj._jordan_rows(mats, pj.TAU_LOX_DEFAULT, eigvals)
    diff = lam - pj._cartan_rows(pj._conjugate_stack(mats, x))
    gaps = np.sqrt(root_system(mats.shape[1]).killing_scale * np.vecdot(diff, diff))  # killing_norm
    flats = iter(fm._fixed_flat_distances(x, eigvals[lox], eigvecs[lox]))

    rows = []
    for is_lox, gap in zip(lox.tolist(), gaps.tolist()):
        flat = next(flats) if is_lox else LoxodromyError("jordan_cartan_gap needs a loxodromic element")
        if isinstance(flat, WccError):
            rows.append(flat)
        elif gap > (bound := 2.0 * flat + GAP_SLACK):
            rows.append(NumericError(
                f"flat bound violated: gap {gap} exceeds 2*flat_distance + slack = {bound}"))
        else:
            rows.append(gap)
    return rows
