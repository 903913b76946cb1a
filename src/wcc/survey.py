"""Statistical harness over the census: angular equidistribution, conjugacy
classes and periodic-torus bookkeeping, growth trends, Jordan-Cartan gaps.

SL(2,Z) caveats, stated once: the lattice is neither cocompact nor torsion
free, and -identity is central and acts trivially on the space of Weyl
chambers.  Conjugacy classes are therefore taken at positive trace (each
sign pair collapses to its positive representative), which is exactly the
quotient on which the class <-> (torus, regular period) correspondence is a
bijection.  All reported trends are exploratory in the non-cocompact regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bqf
from .errors import ParameterError, WccError
from .lattice import Census, LatticeSpec, _word_ball, enumerate_elements, restrict
from .projections import BasePoint, GroupElement, _integer_inverse, cartan_vector
from .rootsys import root_system
from .volume import Domain, domain_volume

SQRT8 = 2.0 * math.sqrt(2.0)


# ----------------------------------------------------- angular distribution


def sl2_angles(matrices):
    """Attracting/repelling boundary angles (mod pi) of an (n, 2, 2) matrix array.

    The attracting flag of a regular element is its top left-singular
    direction; the repelling one is the orthogonal complement of the top
    right-singular direction.
    """
    mats = np.asarray(matrices, dtype=float)
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    # top eigenvector angle of g^T g gives the right-singular direction
    theta_v = 0.5 * np.arctan2(2.0 * (a * b + c * d), (a * a + c * c) - (b * b + d * d))
    cos, sin = np.cos(theta_v), np.sin(theta_v)
    theta_plus = np.mod(np.arctan2(c * cos + d * sin, a * cos + b * sin), math.pi)
    theta_minus = np.mod(theta_v + 0.5 * math.pi, math.pi)
    return theta_plus, theta_minus


def ks_to_uniform(values, period: float = math.pi) -> float:
    """Kolmogorov-Smirnov distance of samples to the uniform law on [0, period)."""
    x = np.sort(np.asarray(values, dtype=float)) / period
    n = len(x)
    if n == 0:
        raise ParameterError("KS distance needs at least one sample")
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


def angular_statistics(
    census: Census,
    rs,
    domain: Domain,
    volume_log: float,
    bins: int = 36,
    psi=None,
    n_reference: int = 200000,
    seed: int = 5,
    regular_margin: float = 0.0,
) -> dict:
    """Empirical angular measure of a census against the rotation-invariant law.

    Needs a positive regularity margin (angular flags require chamber-regular
    displacements).  For sl2 the two boundary marginals live on the circle of
    lines, where the invariant law is uniform in angle; the report carries KS
    distances, histogram rows, and the normalized test-function sums.
    """
    if regular_margin < 0.0:
        raise ParameterError("angular statistics need a nonnegative regularity margin")
    kept = census.wall_margin > regular_margin
    n_regular = int(np.count_nonzero(kept))
    if rs.d != 2:
        raise ParameterError("angular statistics are shipped for sl2 censuses")
    if not n_regular:
        raise ParameterError("no regular census elements above the margin")
    theta_plus, theta_minus = sl2_angles(census.table[kept].reshape(-1, 2, 2))
    vol = math.exp(volume_log)
    out = {
        "n_regular": n_regular,
        "count_over_volume": n_regular / vol,
        "ks_plus": ks_to_uniform(theta_plus),
        "ks_minus": ks_to_uniform(theta_minus),
    }
    edges = np.linspace(0.0, math.pi, bins + 1)
    hist_plus, _ = np.histogram(theta_plus, bins=edges)
    hist_minus, _ = np.histogram(theta_minus, bins=edges)
    out["histogram"] = {
        "edges": edges.tolist(),
        "plus": hist_plus.tolist(),
        "minus": hist_minus.tolist(),
    }
    if psi is not None:
        empirical = float(np.sum(psi(theta_plus, theta_minus))) / vol
        rng = np.random.default_rng(seed)
        ref_plus = rng.uniform(0.0, math.pi, n_reference)
        ref_minus = rng.uniform(0.0, math.pi, n_reference)
        vals = np.asarray(psi(ref_plus, ref_minus), dtype=float)
        mean, err = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_reference))
        out["psi"] = {
            "empirical_sum_over_volume": empirical,
            "reference_mean": mean,
            "reference_std_err": err,
            "predicted_sum_over_volume": out["count_over_volume"] * mean,
        }
    return out


def angular_sweep(spec: LatticeSpec, t_grid, bins: int = 36, **enum_kwargs) -> dict:
    """KS distances across a sweep of balls plus the fitted decay exponent."""
    rs = root_system(spec.d)
    grid = [float(t) for t in t_grid]
    census, meta = enumerate_elements(spec, Domain("ball", max(grid)), **enum_kwargs)
    rows = []
    for t in grid:
        domain = Domain("ball", t)
        vol = domain_volume(rs, domain)
        ball = census if t == max(grid) else restrict(census.table, spec, domain)[0]
        stats = angular_statistics(ball, rs, domain, vol.log_value, bins=bins)
        row = {k: stats[k] for k in ("n_regular", "ks_plus", "ks_minus")}
        rows.append({"t": t, **row, "ks_max": max(row["ks_plus"], row["ks_minus"]),
                     "log_volume": vol.log_value, "complete": meta.complete})
    report = {"rows": rows}
    if len(rows) >= 2:
        logs_v = np.array([r["log_volume"] for r in rows])
        logs_ks = np.log(np.array([r["ks_max"] for r in rows]))
        A = np.vstack([logs_v, np.ones_like(logs_v)]).T
        (slope, _), *_ = np.linalg.lstsq(A, logs_ks, rcond=None)
        report["kappa_fit"] = float(-slope)
        tail = [r["ks_max"] for r in rows[-3:]]
        report["tail_nonincreasing"] = bool(all(x >= y for x, y in zip(tail, tail[1:])))
    return report


# -------------------------------------------- conjugacy classes and tori


@dataclass
class TorusRecord:
    """One positive-trace hyperbolic class with its periodic-torus data."""

    class_id: tuple
    trace: int
    primitive: bool
    power: int
    root_trace: int
    jordan: np.ndarray
    period_volume: float  # Killing covolume of the period grid = primitive length
    length: float  # Killing norm of this class's own Jordan projection
    root_key: tuple  # (trace, least form) of the primitive root class


def _length_of_trace(t: int) -> float:
    """Killing norm of the Jordan projection of a trace-t hyperbolic matrix."""
    eps = (t + math.sqrt(t * t - 4.0)) / 2.0
    return SQRT8 * math.log(eps)


def _length_of_pell(u: int, v: int, Dp: int) -> float:
    eta = (u + v * math.sqrt(Dp)) / 2.0
    return SQRT8 * math.log(eta)


def conjugacy_classes_sl2(trace_bound: int) -> list[TorusRecord]:
    """All positive-trace hyperbolic classes of SL(2,Z) with trace <= bound.

    Class identity is the canonical reduction cycle of the fixed-point form,
    an exact integer invariant; primitivity and the primitive length come
    from the Pell automorph (u1, v1) of the form's primitive part, which
    depends on the trace and the content m0 only.  That automorph is the root
    class; its form is v1/m0 times this one, and rho commutes with positive
    scaling, so v1/m0 * cid[0] is the least form of its cycle.
    """
    if trace_bound < 3:
        raise ParameterError(f"trace bound must be at least 3, got {trace_bound}")
    out = []
    for t in range(3, trace_bound + 1):
        D = t * t - 4
        eps = (t + math.sqrt(D)) / 2.0
        lam = np.array([math.log(eps), -math.log(eps)])
        splits = {}
        for cid in bqf.form_classes(D):
            f, m0 = cid[0], bqf.content(cid[0])
            if m0 not in splits:
                splits[m0] = bqf.primitive_split(t, f)
            k, root_trace, (u1, v1), Dp = splits[m0]
            out.append(
                TorusRecord(
                    class_id=(t, cid),
                    trace=t,
                    primitive=(k == 1),
                    power=k,
                    root_trace=root_trace,
                    jordan=lam,
                    period_volume=_length_of_pell(u1, v1, Dp),
                    length=_length_of_trace(t),
                    root_key=(root_trace, tuple(v1 * x // m0 for x in f)),
                )
            )
    return out


def class_id_of_matrix(m) -> tuple:
    """Conjugation-invariant id of a positive-trace hyperbolic integer matrix."""
    (a, b), (c, d) = m
    trace = int(a) + int(d)
    if trace < 3:
        raise ParameterError(f"class ids are issued for trace >= 3, got {trace}")
    return (trace, bqf.class_id(bqf.form_of_matrix(m)))


def trace_bound_for_length(T: float) -> int:
    """Largest trace whose Jordan length fits in the Killing ball of radius T."""
    return max(2, int(math.floor(2.0 * math.cosh(T / SQRT8))))


def torus_census(T: float, classes: list[TorusRecord] | None = None) -> dict:
    """Weighted torus sum at scale T with the exact regrouping check.

    Left side: the primitive length summed over all classes with Jordan
    length at most T.  Right side: over primitive classes, the number of
    chamber periods in the ball times the period covolume.  The two are the
    same data regrouped; the report carries both sums, the integer-level
    regrouping verdict, and per-torus rows.
    """
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(T))
    in_ball = [rec for rec in classes if rec.length <= T]
    # group classes by their primitive torus: the class of the automorph of
    # the primitive part of the form is the primitive root of the tower
    groups = {}
    for rec in in_ball:
        groups.setdefault(rec.root_key, []).append(rec.power)

    left_sum = math.fsum(rec.period_volume for rec in in_ball)
    right_sum = 0.0
    rows = []
    regroup_exact = True
    primitives = [rec for rec in in_ball if rec.primitive]
    for rec in primitives:
        mult = int(math.floor(T / rec.period_volume + 1e-12))
        right_sum += mult * rec.period_volume
        if sorted(groups.get((rec.trace, rec.class_id[1][0]), [])) != list(range(1, mult + 1)):
            regroup_exact = False
        rows.append(
            {
                "trace": rec.trace,
                "class_id": rec.class_id,
                "period_volume": rec.period_volume,
                "multiplicity": mult,
            }
        )
    # every non-primitive class must belong to some primitive group
    covered = sum(len(groups[(r.trace, r.class_id[1][0])]) for r in primitives)
    if covered != len(in_ball):
        regroup_exact = False
    return {
        "T": T,
        "classes_in_ball": len(in_ball),
        "primitive_tori": len(primitives),
        "left_sum": left_sum,
        "right_sum": right_sum,
        "regroup_exact": regroup_exact and abs(left_sum - right_sum) <= 1e-9 * max(1.0, left_sum),
        "rows": rows,
    }


def torus_sweep(T_grid, classes: list[TorusRecord] | None = None) -> dict:
    """Ratio of the weighted torus sum to the ball volume across a T sweep."""
    rs = root_system(2)
    T_grid = [float(t) for t in T_grid]
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(max(T_grid)))
    rows = []
    for T in T_grid:
        census = torus_census(T, classes)
        vol = domain_volume(rs, Domain("ball", T))
        ratio = census["right_sum"] / math.exp(vol.log_value)
        rows.append(
            {
                "T": T,
                "weighted_sum": census["right_sum"],
                "log_volume": vol.log_value,
                "ratio": ratio,
                "regroup_exact": census["regroup_exact"],
            }
        )
    report = {"rows": rows}
    if len(rows) >= 2:
        last, prev = rows[-1]["ratio"], rows[-2]["ratio"]
        report["tail_relative_change"] = abs(last - prev) / max(abs(prev), 1e-300)
    return report


def conjugacy_growth(T_grid, classes: list[TorusRecord] | None = None) -> dict:
    """Loxodromic class counts over a T sweep and the growth-rate fit.

    Fits log count = rate * T + p * log T + c; the reported rate targets the
    volume growth exponent, and p is the empirical polynomial correction,
    reported with a standard error and no pass/fail attached.  Only
    positive-trace hyperbolic classes are counted: the parabolic classes of
    SL(2,Z) form an infinite family with zero Jordan projection, an artifact
    of non-cocompactness.
    """
    T_grid = [float(t) for t in T_grid]
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(max(T_grid)))
    lengths = np.sort(np.array([rec.length for rec in classes]))
    counts = np.array([int(np.searchsorted(lengths, T, side="right")) for T in T_grid])
    if np.any(counts == 0):
        raise ParameterError("T grid starts below the shortest class length")
    ys = np.log(counts.astype(float))
    A = np.vstack([T_grid, np.log(T_grid), np.ones_like(T_grid)]).T
    coef, residuals, *_ = np.linalg.lstsq(A, ys, rcond=None)
    dof = max(1, len(T_grid) - 3)
    resid = ys - A @ coef
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return {
        "rows": [{"T": T, "count": int(n)} for T, n in zip(T_grid, counts)],
        "rate_fit": float(coef[0]),
        "poly_exponent_fit": float(coef[1]),
        "poly_exponent_std_err": float(math.sqrt(max(cov[1, 1], 0.0))),
        "rate_std_err": float(math.sqrt(max(cov[0, 0], 0.0))),
        "monotone": bool(np.all(np.diff(counts) >= 0)),
    }


# ------------------------------------------------------ Jordan-Cartan survey


def jordan_cartan_survey(trace_bound: int, radii=(0, 2, 4, 6)) -> dict:
    """Minimal conjugate Cartan-vs-Jordan gap per class over word balls.

    For each positive-trace class, minimizes the Killing distance between
    the Jordan projection and the origin-based displacement of conjugated
    representatives over conjugator balls of growing radius.  The largest
    minimum is the empirical conjugation constant of the lattice.
    """
    classes = conjugacy_classes_sl2(trace_bound)
    generators = (((0, -1), (1, 0)), ((1, 1), (0, 1)))  # S and T
    balls = {r: _word_ball(generators, r) for r in radii}
    rows = []
    for rec in classes:
        t, cid = rec.class_id
        rep = np.array(bqf.matrix_of_form(cid[0], t))
        gaps = {}
        for r in radii:
            conjs = balls[r] @ rep @ _integer_inverse(balls[r])
            # both vectors are (s, -s): the gap is the norm difference
            gaps[r] = float(np.min(np.abs(SQRT8 * cartan_vector(conjs)[:, 0] - rec.length)))
        rows.append({"trace": t, "class_id": cid, "gaps": gaps})
    max_radius = max(radii)
    c_gamma = max(row["gaps"][max_radius] for row in rows)
    monotone = all(
        row["gaps"][r1] >= row["gaps"][r2] - 1e-12
        for row in rows
        for r1, r2 in zip(radii, radii[1:])
    )
    return {"rows": rows, "C_Gamma": c_gamma, "radii": list(radii), "monotone": monotone}


def flat_bound_survey(records, x: BasePoint | None = None) -> dict:
    """Jordan-Cartan flat bound over the loxodromic part of a census; elements
    whose gap raises a library error are violations, listed under ``failures``."""
    from .loxodromy import jordan_cartan_gap

    rows, failures = [], []
    for rec in records:
        if not rec.loxodromic:
            continue
        g = GroupElement.from_integer([list(r) for r in rec.matrix])
        base = x if x is not None else BasePoint.origin(g.d)
        try:
            gap = jordan_cartan_gap(g, base)
        except WccError as exc:
            failures.append({"matrix": rec.matrix, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"matrix": rec.matrix, "gap": gap})
    return {"checked": len(rows), "violations": len(failures), "failures": failures,
            "max_gap": max((r["gap"] for r in rows), default=0.0)}


def balanced_split(census: Census, T: float, kappa: float) -> dict:
    """Balanced/unbalanced split of sampled loxodromic elements at T / kappa.

    Sample-mode report (word-ball censuses are not exhaustive): an element
    counts as balanced when its Jordan length exceeds the threshold.
    """
    threshold = T / kappa
    jordan = census.jordan[census.loxodromic]
    length = np.sqrt(root_system(jordan.shape[1]).killing_scale * np.vecdot(jordan, jordan))
    length = length[length <= T]
    return {
        "T": T,
        "kappa": kappa,
        "threshold": threshold,
        "balanced": int(np.count_nonzero(length > threshold)),
        "unbalanced": int(np.count_nonzero(length <= threshold)),
        "exhaustive": False,
    }
