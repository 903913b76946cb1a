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
from functools import cached_property, lru_cache

import numpy as np

from .errors import LoxodromyError, NumericError, ParameterError, PreconditionError, TransversalityError, WccError
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
        """A fresh copy of the constants dict, which is built once."""
        return dict(self._dict)

    @cached_property
    def _dict(self) -> dict:
        return {"d": self.d, "C0": self.c0, "C1": self.c1, "C2": self.c2, "C3": self.c3, "C_prime": self.c_prime,
                "eps0": self.eps0, "r0": self.r0,
                "provenance": "C0 analytic (4*C_a); C1,C2,C3,C_prime,eps0 pinned fitted envelopes"}


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


@lru_cache(maxsize=64)
def cx_constant(x: BasePoint) -> float:
    """Configuration constant 8 C2 C1 exp(C0 d_X(o, x)), once per base point: a frozen
    BasePoint hashes and compares its h, and GroupElement compares by identity."""
    consts = fitted_constants(x.d)
    dx = root_system(x.d).killing_norm(pj.cartan_vector(x.h))  # d_X(o, x)
    if math.log(8.0 * consts.c2 * consts.c1) + consts.c0 * dx > math.log(np.finfo(float).max):
        raise NumericError(f"C_x overflows a float at d_X(o, x) = {dx}")
    return 8.0 * consts.c2 * consts.c1 * math.exp(consts.c0 * dx)


@lru_cache(maxsize=64)
def t_zero(x: BasePoint, epsilon: float) -> float:
    """Wall-margin threshold for the certificate, with the comparison slack, once per (x, epsilon).

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


def certify(gamma: GroupElement, x: BasePoint, r: float, epsilon: float) -> LoxodromyCertificate:
    """Certify loxodromy from the chamber-displacement configuration at x.

    Condition (i): the chamber displacement of x stays at least t0(x, eps)
    away from the walls.  Condition (ii): the two angular flags are
    transverse and their maximal flat passes within r of x.  On success the
    element is independently re-checked by eigenvalue gaps and the fixed
    points are located within eps of the angular flags.  At d = 2 each is a
    closed form (``_sl2_certificate``).

    One-directional: an uncertified element may still be loxodromic.
    """
    d = gamma.d
    pj._same_dimension(d, x)  # before C_x and the epsilon cap, which read x.d
    consts = fitted_constants(d)
    cx = cx_constant(x)
    if not 0.0 < r < consts.r0:
        raise ParameterError(f"r must lie in (0, r0={consts.r0:.6f}), got {r}")
    eps_cap = min(r / cx, consts.eps0)
    if not 0.0 < epsilon < eps_cap:
        raise ParameterError(
            f"epsilon must lie in (0, min(r/C_x, eps0)) = (0, {eps_cap:.6g}), got {epsilon}"
        )
    try:
        conj = pj._conjugate(gamma, x)
    except NumericError as exc:  # a float conjugate that overflows
        raise PreconditionError(f"certify needs a finite conjugate: {exc}") from None
    if not all(map(math.isfinite, conj.mat.ravel().tolist())):  # as np.isfinite(...).all(), in a third of the time
        raise PreconditionError(f"certify needs a finite conjugate h_x^-1 g h_x, got {conj.mat.tolist()}")
    check = _sl2_certificate if d == 2 else _sl3_certificate
    conditions, certified, fixed_point_errors = check(gamma, x, conj, t_zero(x, epsilon), r)
    return LoxodromyCertificate(gamma, x, r, epsilon, conditions, certified, fixed_point_errors,
                                {**consts._dict, "C_x": cx})


def _conditions(wall: float, t0: float) -> dict:
    return {"wall_distance": wall, "t0": t0, "wall_margin_ok": bool(wall >= t0),
            "transverse_ok": False, "flat_dist": math.inf}


def _sl2_certificate(gamma: GroupElement, x: BasePoint, conj: GroupElement, t0: float, r: float):
    """Conditions, verdict and fixed-point errors of a d = 2 certificate from the entries of
    m = h_x^-1 gamma h_x = (a b; c d) and the trace and determinant of gamma (exact for an
    integer gamma, else rounded once), with no factorisation.  The wall distance is
    log(s_1^2 / |det|) / ||alpha||_*, s_1 = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2
    (an integer conjugate keeps the exact Frobenius mass of ``cartan_vector``).  The
    angular lines u_1, v_2 of m lie at the angles (A + B) / 2 and (A - B) / 2 + pi / 2,
    A = atan2(b + c, a - d), B = atan2(c - b, a + d); so their images under h_x meet at the
    sine |a + d| / (hypot(a + d, c - b) |h_x u_1| |h_x v_2|), refused below the witness's
    1e-12, and their flat passes sqrt(2) asinh(|b - c| / |a + d|) from x (Beardon, The
    Geometry of Discrete Groups, ch. 7).  Loxodromy is a positive discriminant
    (a + d)^2 - 4 det, with the gap test for a float gamma, and each fixed-point error the
    sine |u x e| / (|u| |e|) of an angular line u and its eigenline e of gamma."""
    (a, b), (c, d) = conj.mat.tolist()
    if gamma.int_mat is not None:
        (ga, gb), (gc, gd) = gamma.int_mat
        trace, det, disc = float(ga + gd), 1.0, (ga + gd) ** 2 - 4
    else:
        (ga, gb), (gc, gd) = gamma.mat.tolist()
        (na, da), (nb, db), (nc, dc), (nd, dd) = (v.as_integer_ratio() for v in (ga, gb, gc, gd))
        trace, det = ga + gd, (na * nd * db * dc - nb * nc * da * dd) / (da * dd * db * dc)  # int / int rounds once
        disc = trace * trace - 4.0 * det
    if det == 0.0:
        raise PreconditionError(f"certify needs an invertible element, got {gamma.mat.tolist()}")
    rs, q = root_system(2), math.hypot(trace, c - b)
    if conj.int_mat is not None:
        wall = float(rs.wall_distances(pj.cartan_vector(conj)))
    else:
        s1 = 0.5 * (q + math.hypot(a - d, b + c))
        wall = (2.0 * math.log(s1) - math.log(abs(det))) / float(rs.simple_dual_norms[0])
    conditions = _conditions(wall, t0)
    if not conditions["wall_margin_ok"]:
        return conditions, False, None
    spin, turn = math.atan2(b + c, a - d), math.atan2(c - b, trace)
    (h00, h01), (h10, h11) = x.h.mat.tolist()  # exactly I at the origin
    lines = [(h00 * v + h01 * w, h10 * v + h11 * w) for v, w in (
        (math.cos(0.5 * (spin + turn)), math.sin(0.5 * (spin + turn))),
        (-math.sin(0.5 * (spin - turn)), math.cos(0.5 * (spin - turn))))]
    if trace != 0.0 and abs(trace) >= 1e-12 * q * math.hypot(*lines[0]) * math.hypot(*lines[1]):
        conditions["transverse_ok"] = True
        conditions["flat_dist"] = math.sqrt(2.0) * math.asinh(abs(c - b) / abs(trace))
    root = math.sqrt(disc) if disc > 0 else 0.0
    lox = disc > 0 if gamma.int_mat is not None else (
        disc > 0.0 and 2.0 * math.log(0.5 * (abs(trace) + root)) - math.log(abs(det)) > pj.TAU_LOX_DEFAULT)
    if not (conditions["transverse_ok"] and conditions["flat_dist"] < r and lox):
        return conditions, False, None  # a misfired configuration is never certified
    # the eigenvector (lambda - d, c) or (b, lambda - a) whose free entry is
    # +-(|a - d| + sqrt(disc)) / 2, which does not cancel
    half, errors = 0.5 * (abs(ga - gd) + root), []
    for sign, (v, w) in zip((1.0, -1.0) if trace > 0 else (-1.0, 1.0), lines):
        e = (sign * half, gc) if (ga >= gd) == (sign > 0) else (gb, sign * half)
        errors.append(abs(e[0] * w - e[1] * v) / (math.hypot(*e) * math.hypot(v, w)))
    return conditions, True, tuple(errors)


def _sl3_certificate(gamma: GroupElement, x: BasePoint, conj: GroupElement, t0: float, r: float):
    """Conditions, verdict and fixed-point errors of a d = 3 certificate in one float pass over
    3-vectors, around one SVD of m = h_x^-1 gamma h_x = k exp(a) l^-1 (gamma itself at the shared
    origin, and its frames not multiplied by h_x; an integer m takes its logs from ``cartan_vector``),
    the Newton SVDs of ``flagmetric.flat_distance`` and, for an element that would be certified, one
    eigen-solve of gamma for its loxodromy (``_loxodromic``) and fixed flags.  Each flag is a unit line
    and plane normal, and each fixed-point error the larger sine between their lines and between
    their normals."""
    u, s, vh = pj._lapack("svd_f", conj.mat)
    if conj.int_mat is None:  # wall_distances(_robust_logs(s)) in floats, bit for bit (np.log: math.log differs)
        a1, a2, a3 = logs = np.log(s if s[2] >= 1e-300 else np.maximum(s, 1e-300)).tolist()  # s descends
        mean = sum(logs) / 3.0  # left to right, as numpy sums three values
        root = min((a1 - mean) - (a2 - mean), (a2 - mean) - (a3 - mean))  # the simple roots share one dual norm
        wall = (root if root > 0.0 else 0.0) / float(root_system(3).simple_dual_norms[0])  # clipped as np.where
    else:  # the exact logs of an integer conj
        wall = float(root_system(3).wall_distances(pj.cartan_vector(conj)))
    conditions = _conditions(wall, t0)
    if not conditions["wall_margin_ok"]:
        return conditions, False, None
    if x is BasePoint.origin(3):
        (k1, k2, _), (_, l2, l3) = u.T.tolist(), vh.tolist()
    else:
        (k1, k2), (l3, l2) = (x.h.mat @ u[:, :2]).T.tolist(), (vh[:0:-1] @ x.h.mat.T).tolist()
    p1, p3, m1, m3 = [(v0 / n, v1 / n, v2 / n) for v0, v1, v2 in (k1, fm._cross(k1, k2), l3, fm._cross(l3, l2))
                      for n in (math.hypot(v0, v1, v2),)]  # unit lines and plane normals
    delta = min(abs(fm._dot(p1, m3)), abs(fm._dot(p3, m1)))  # dist_delta
    conditions["transverse_ok"] = delta > 0.0
    if conditions["transverse_ok"]:
        pair = fm.TransversePair._of_flags(fm.Flag._of_lines(p1, p3), fm.Flag._of_lines(m1, m3), delta)
        try:
            conditions["flat_dist"] = fm.flat_distance(x, pair)
        except TransversalityError:  # the witness's refusal inside flat_distance
            conditions["transverse_ok"] = False
        except NumericError:
            pass
    if not (conditions["transverse_ok"] and conditions["flat_dist"] < r):
        return conditions, False, None
    eigvals, eigvecs = pj._eig(gamma.mat, vectors=True)
    eigvals, vecs = eigvals.tolist(), eigvecs.real.T.tolist()
    if not _loxodromic(gamma, eigvals):
        return conditions, False, None  # a misfired configuration is never certified
    if not max(abs(v.imag) for v in eigvals) <= 1e-8 * max(map(abs, eigvals)):
        raise LoxodromyError(fm._NON_REAL)
    b1, b2, b3 = (vecs[i] for i in sorted(range(3), key=lambda i: -abs(eigvals[i].real)))  # by decreasing modulus
    errors = (max(fm._sine(b1, p1), fm._sine(fm._cross(b1, b2), p3)),
              max(fm._sine(b3, m1), fm._sine(fm._cross(b3, b2), m3)))
    return conditions, True, errors


def _loxodromic(gamma: GroupElement, eigvals: list) -> bool:
    """``jordan_project(gamma)[1]`` from the three eigenvalues of gamma, in Python floats for a float gamma."""
    if gamma.int_mat is not None:
        return pj._int_char_discriminant(np.array(gamma.int_mat, dtype=object)) > 0
    l1, l2, l3 = [math.log(max(v, 1e-300)) for v in sorted(map(abs, eigvals), reverse=True)]
    return l1 - l2 > pj.TAU_LOX_DEFAULT and l2 - l3 > pj.TAU_LOX_DEFAULT


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
    """``jordan_cartan_gap`` of every matrix of a stack (n, d, d): per row its gap, or the
    library error ``jordan_cartan_gap`` raises for it.

    An integer stack (int64, or Python ints) has exact Jordan and Cartan rows, the
    latter of its exact conjugates when h_x is integer, and at d = 2 its flat distances
    are the closed forms of ``_sl2_axis_distances`` (about 1 us a row).  Otherwise one
    eigen-solve of the stack gives the Jordan rows, and each loxodromic row its own
    ``flat_distance(x, TransversePair(*fixed_points(g)))`` (about 0.1 ms a row at d = 2,
    0.2 ms at d = 3).
    """
    closed = mats.shape[1] == 2 and mats.dtype.kind != "f"
    eigvals = None if closed else pj._eig(mats.astype(float), vectors=True)[0]  # as fixed_points solves each row
    lam, lox = pj._jordan_rows(mats, pj.TAU_LOX_DEFAULT, eigvals)
    conj = pj._conjugate_stack(mats, x)
    diff = lam - pj._cartan_rows(conj)
    gaps = np.sqrt(root_system(mats.shape[1]).killing_scale * np.vecdot(diff, diff))  # killing_norm
    flats = iter(_sl2_axis_distances(conj[lox], pj._int_char_discriminant(mats[lox])).tolist() if closed
                 else (_fixed_flat_distance(pj._row_element(m), x) for m in mats[lox]))

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


def _fixed_flat_distance(g: GroupElement, x: BasePoint):
    """Distance from x to the flat of the fixed flags of a loxodromic g, or the library error it raises."""
    try:
        return fm.flat_distance(x, fm.TransversePair(*fm.fixed_points(g)))
    except WccError as exc:
        return exc


def _sl2_axis_distances(conj: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """Distance from o to the axis of each hyperbolic m = (a b; c d) of a stack, given its exact
    tr^2 - 4: sqrt(2) asinh(|b - c| / sqrt(tr^2 - 4)), as sinh(d(o, m o) / 2) = cosh rho sinh(l / 2)
    for the distance rho to the axis and the translation length l (Beardon, The Geometry of Discrete
    Groups, ch. 7), and d_X = sqrt(2) d_H in the Killing normalisation."""
    skew = np.abs((conj[:, 0, 1] - conj[:, 1, 0]).astype(float))
    return math.sqrt(2.0) * np.arcsinh(skew / np.sqrt(disc.astype(float)))
