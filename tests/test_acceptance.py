"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere.  Every expected value
is either computed by an in-test oracle (brute force, closed form, BFS
conjugation closure) or asserted against an independently derived constant.
"""

import math
import time
from collections import deque

import numpy as np

from wcc import lattice as lt
from wcc import loxodromy as lx
from wcc import projections as pj
from wcc import survey as sv
from wcc import volume as V
from wcc.lattice import LatticeSpec
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system
from wcc.volume import Domain

from volume_reference import box_volume_quadrature

N_IDENTITY = 10_000
SQRT8 = 2.0 * math.sqrt(2.0)


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _sample_groups(rng, d, n, scale=0.6):
    ys = rng.normal(size=(n, d)) * scale
    ys -= ys.mean(axis=1, keepdims=True)
    ys = -np.sort(-ys, axis=1)
    k1 = pj.random_so(d, rng, size=n)
    k2 = pj.random_so(d, rng, size=n)
    return k1 @ (np.exp(ys)[:, :, None] * k2)


def _sample_frames(rng, d, n):
    return pj.random_so(d, rng, size=n)


def _wedge2(cols):
    """Plucker coordinates of two stacked columns (N, 3, 2)."""
    u, v = cols[:, :, 0], cols[:, :, 1]
    return np.stack(
        [
            u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
            u[:, 0] * v[:, 2] - u[:, 2] * v[:, 0],
            u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
        ],
        axis=1,
    )


def _gromov_batch(rs, xi_frames, eta_frames):
    """Stacked chamber-valued products for d = 2 or 3."""
    d = xi_frames.shape[-1]
    if d == 2:
        delta1 = np.abs(np.einsum("ni,ni->n", eta_frames[:, :, 0], xi_frames[:, :, 1]))
        w1 = -np.log(delta1)
        return np.stack([w1, -w1], axis=1)
    w_eta1 = eta_frames[:, :, 0]
    w_xi_perp1 = xi_frames[:, :, 2]
    delta1 = np.abs(np.einsum("ni,ni->n", w_eta1, w_xi_perp1))
    w_eta2 = _wedge2(eta_frames[:, :, :2])
    w_xi_perp2 = _wedge2(xi_frames[:, :, 1:])
    delta2 = np.abs(np.einsum("ni,ni->n", w_eta2, w_xi_perp2))
    c1, c2 = -np.log(delta1), -np.log(delta2)
    return np.stack([c1, c2 - c1, -c2], axis=1)


def _killing_norms(rs, vectors):
    return np.sqrt(rs.killing_scale * np.einsum("ni,ni->n", vectors, vectors))


class TestCriterion1AlgebraicIdentities:
    def test_identity_suite(self):
        start = time.time()
        worst_overall = 0.0
        for d in (2, 3):
            rs = root_system(d)
            rng = np.random.default_rng(1000 + d)
            n = N_IDENTITY

            g1 = _sample_groups(rng, d, n)
            g2 = _sample_groups(rng, d, n)
            frames = _sample_frames(rng, d, n)

            # cocycle relation
            lhs = pj.iwasawa_batch(g1 @ g2, frames)
            moved = pj.flag_frame_action(g2, frames)
            rhs = pj.iwasawa_batch(g1, moved) + pj.iwasawa_batch(g2, frames)
            v_cocycle = float(np.max(np.abs(lhs - rhs)))

            # Gromov transformation identity
            eta_frames = _sample_frames(rng, d, n)
            gx = pj.flag_frame_action(g1, frames)
            ge = pj.flag_frame_action(g1, eta_frames)
            lhs = _gromov_batch(rs, gx, ge) - _gromov_batch(rs, frames, eta_frames)
            rhs = pj.iwasawa_batch(g1, frames)[:, ::-1] * -1.0 + pj.iwasawa_batch(g1, eta_frames)
            v_gromov = float(np.max(np.abs(lhs - rhs)))

            # Busemann additivity and norm bound
            hx = _sample_groups(rng, d, n, 0.5)
            hy = _sample_groups(rng, d, n, 0.5)
            hz = _sample_groups(rng, d, n, 0.5)
            hx_inv, hy_inv, hz_inv = (np.linalg.inv(m) for m in (hx, hy, hz))

            def buse(h_from_inv, h_from, h_to):
                rel = h_from_inv @ h_to
                return pj.iwasawa_batch(rel, pj.flag_frame_action(np.linalg.inv(h_to), frames))

            bxy = buse(hx_inv, hx, hy)
            byz = buse(hy_inv, hy, hz)
            bxz = buse(hx_inv, hx, hz)
            v_buse_add = float(np.max(np.abs(bxy + byz - bxz)))
            dxy = _killing_norms(rs, pj.cartan_batch(hx_inv @ hy)[1])
            v_buse_bound = float(
                np.max(_killing_norms(rs, bxy) - rs.c_a() * dxy)
            )

            # Cartan comparison lemmas
            a_h = pj.cartan_batch(g1)[1]
            a_hp = pj.cartan_batch(g2)[1]
            a_prod = pj.cartan_batch(g1 @ g2)[1]
            a_prod2 = pj.cartan_batch(g2 @ g1)[1]
            norms_hp = _killing_norms(rs, a_hp)
            v_compare = float(
                max(
                    np.max(_killing_norms(rs, a_prod - a_h) - norms_hp),
                    np.max(_killing_norms(rs, a_prod2 - a_h) - norms_hp),
                )
            )
            a_x = pj.cartan_batch(hx_inv @ g1 @ hx)[1]
            a_y = pj.cartan_batch(hy_inv @ g1 @ hy)[1]
            v_base = float(np.max(_killing_norms(rs, a_x - a_y) - 2.0 * dxy))

            # inverse is the opposition
            a_inv = pj.cartan_batch(np.linalg.inv(g1))[1]
            v_opp = float(np.max(np.abs(a_inv - (-a_h[:, ::-1]))))

            # Jordan projection is conjugation invariant
            lam = np.sort(np.log(np.abs(np.linalg.eigvals(g1))), axis=1)[:, ::-1]
            lam -= lam.mean(axis=1, keepdims=True)
            conj = hx @ g1 @ hx_inv
            lam_c = np.sort(np.log(np.abs(np.linalg.eigvals(conj))), axis=1)[:, ::-1]
            lam_c -= lam_c.mean(axis=1, keepdims=True)
            v_jordan = float(np.max(np.abs(lam - lam_c)))

            worst = max(
                v_cocycle, v_gromov, v_buse_add, max(v_buse_bound, 0.0),
                max(v_compare, 0.0), max(v_base, 0.0), v_opp, v_jordan,
            )
            worst_overall = max(worst_overall, worst)
        elapsed = time.time() - start
        _report(
            "criterion 1 (identities, 1e4 samples, SL2+SL3)",
            worst_overall < 1e-7 and elapsed < 60.0,
            f"max violation {worst_overall:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2VolumeEngine:
    def test_volume_engine(self):
        start = time.time()
        rs2, rs3 = root_system(2), root_system(3)

        worst_closed = 0.0
        for t in (0.5, 1.0, 4.0, 8.0):
            res = V.ball_volume(rs2, t)
            worst_closed = max(worst_closed, abs(res.value / V.closed_form_ball_d2(t) - 1.0))

        box_exact = V.box_volume(rs3, 5.0, (1.0, 1.0))
        box_quad = box_volume_quadrature(rs3, 5.0, (1.0, 1.0))  # the 2-D rule kept in the tests
        box_err = abs(box_exact.value / box_quad.value - 1.0)

        # growth-exponent fits (the asymptotic regime needs t above the
        # chamber-arc crossover, see the decisions ledger)
        grid = [16.0, 18.0, 20.0, 22.0, 24.0]
        slope_errs = {}
        for rs in (rs2, rs3):
            logs = [V.ball_volume(rs, t).log_value for t in grid]
            fit = V.fit_growth(rs, grid, logs)
            slope_errs[rs.d] = abs(fit["delta_fit"] / rs.delta_zero() - 1.0)

        # independent re-derivation of the exponents by the optimization path
        d0_err = max(
            abs(rs2.delta_zero() - 1.0 / math.sqrt(2.0)),
            abs(rs3.delta_zero() - 2.0 / math.sqrt(3.0)),
        )
        elapsed = time.time() - start
        ok = (
            worst_closed < 1e-6
            and box_err < 1e-6
            and slope_errs[2] < 0.02
            and slope_errs[3] < 0.02
            and d0_err < 1e-9
            and elapsed < 120.0
        )
        _report(
            "criterion 2 (volume engine)",
            ok,
            f"closed-form {worst_closed:.1e}, box {box_err:.1e}, "
            f"slopes {slope_errs[2]:.3f}/{slope_errs[3]:.3f}, delta0 {d0_err:.1e}, {elapsed:.0f}s",
        )


class TestCriterion3SlabDecay:
    def test_slab_decay(self):
        start = time.time()
        ok = True
        details = []
        for d in (2, 3):
            rep = V.slab_decay_sweep(d, [0.05, 0.1, 0.2], [5.0, 6.5, 8.0, 9.5])
            for eps, data in rep["per_epsilon"].items():
                ok &= data["strictly_decreasing"] and data["kappa_fit"] > 0.0
                details.append(f"d{d}/eps{eps}: kappa {data['kappa_fit']:.3f}")
        elapsed = time.time() - start
        ok &= elapsed < 120.0
        _report("criterion 3 (slab decay)", ok, "; ".join(details) + f", {elapsed:.0f}s")


class TestCriterion4LoxodromyCertifier:
    def test_certifier_soundness(self):
        start = time.time()
        rng = np.random.default_rng(4)
        certified, fp_ok = 0, True
        for d in (2, 3):
            rs = root_system(d)
            consts = lx.fitted_constants(d)
            o = BasePoint.origin(d)
            r = 0.98 * consts.r0
            eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
            margin = 1.05 * lx.t_zero(o, eps) / math.sqrt(d)
            y = margin * (np.arange(d)[::-1] - (d - 1) / 2.0)
            for _ in range(500):
                yh = rng.normal(size=d)
                yh -= yh.mean()
                yh *= rng.uniform(0.0, 0.3 * r) / max(rs.killing_norm(yh), 1e-12)
                h = pj.random_so(d, rng) @ np.diag(np.exp(np.sort(yh)[::-1])) @ pj.random_so(d, rng)
                signs = rng.choice([1.0, -1.0], size=d)
                if np.prod(signs) < 0:
                    signs[0] *= -1
                g = GroupElement(
                    h @ (np.diag(np.exp(y)) @ np.diag(signs)) @ np.linalg.inv(h), check=False
                )
                cert = lx.certify(g, o, r, eps)
                if cert.certified:
                    certified += 1
                    fp_ok &= max(cert.fixed_point_errors) < eps

        false_positives = 0
        for d in (2, 3):
            consts = lx.fitted_constants(d)
            o = BasePoint.origin(d)
            r = 0.98 * consts.r0
            eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
            adversarial = []
            for nval in (1, 7, 100, 10**4, 10**6):
                u = np.eye(d)
                u[0, -1] = float(nval)
                adversarial.append(GroupElement(u))
            for _ in range(10):
                adversarial.append(GroupElement(pj.random_so(d, rng), check=False))
            for w in (1e-4, 0.1, 1.0, 3.0):
                yv = np.zeros(d)
                yv[0], yv[-1] = w, -w
                adversarial.append(GroupElement.from_cartan_vector(yv))
            for g in adversarial:
                if lx.certify(g, o, r, eps).certified:
                    false_positives += 1
        elapsed = time.time() - start
        ok = certified == 1000 and fp_ok and false_positives == 0 and elapsed < 120.0
        _report(
            "criterion 4 (loxodromy certifier)",
            ok,
            f"{certified}/1000 certified, localization ok {fp_ok}, "
            f"{false_positives} false positives, {elapsed:.0f}s",
        )


class TestCriterion5CensusExactness:
    def test_census_exactness(self):
        start = time.time()
        # entry bound 3 against the independent quadruple loop
        t3 = SQRT8 * math.log(3.0)
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t3))
        cap = 3.0**2 + 3.0**-2
        oracle = []
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    for dd in range(-3, 4):
                        if a * dd - b * c == 1 and a * a + b * b + c * c + dd * dd <= cap:
                            oracle.append(((a, b), (c, dd)))
        exact_match = sorted(r.matrix for r in records) == sorted(oracle)

        small, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 1e-9))
        orthogonal_core = sorted(r.matrix for r in small) == [
            ((-1, 0), (0, -1)),
            ((0, -1), (1, 0)),
            ((0, 1), (-1, 0)),
            ((1, 0), (0, 1)),
        ]

        r1, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.5), shards=1)
        r7, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.5), shards=7)
        byte_exact = lt.records_blob(r1) == lt.records_blob(r7)
        elapsed = time.time() - start
        ok = exact_match and orthogonal_core and byte_exact and elapsed < 60.0
        _report(
            "criterion 5 (census exactness)",
            ok,
            f"oracle {exact_match}, core {orthogonal_core}, shards byte-exact {byte_exact}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion6AngularEquidistribution:
    def test_angular_equidistribution(self):
        start = time.time()
        sweep = sv.angular_sweep(LatticeSpec("sl2"), [9.0, 10.0, 11.0, 12.0, 13.0])
        rows = sweep["rows"]
        top = rows[-1]
        enough = top["n_regular"] >= 10_000
        ks_ok = top["ks_plus"] < 0.02 and top["ks_minus"] < 0.02
        tail = [r["ks_max"] for r in rows[-3:]]
        monotone = all(a >= b for a, b in zip(tail, tail[1:]))
        elapsed = time.time() - start
        ok = enough and ks_ok and monotone and elapsed < 600.0
        _report(
            "criterion 6 (angular equidistribution)",
            ok,
            f"n={top['n_regular']}, KS=({top['ks_plus']:.4f},{top['ks_minus']:.4f}), "
            f"tail {['%.4f' % x for x in tail]}, {elapsed:.0f}s",
        )


def _bfs_class_count(trace, entry_bound=40, expand_bound=160):
    mats = set()
    for a in range(-entry_bound, entry_bound + 1):
        dd = trace - a
        bc = a * dd - 1
        for b in range(-entry_bound, entry_bound + 1):
            if b != 0 and bc % b == 0:
                c = bc // b
                if abs(c) <= entry_bound:
                    mats.add(((a, b), (c, dd)))
            if b == 0 and bc == 0:
                for c in range(-entry_bound, entry_bound + 1):
                    mats.add(((a, 0), (c, dd)))
    conjugators = [
        (np.array([[0, -1], [1, 0]]), np.array([[0, 1], [-1, 0]])),
        (np.array([[0, 1], [-1, 0]]), np.array([[0, -1], [1, 0]])),
        (np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]])),
        (np.array([[1, -1], [0, 1]]), np.array([[1, 1], [0, 1]])),
    ]
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    frontier = deque(mats)
    explored = set(mats)
    while frontier:
        key = frontier.popleft()
        m = np.array(key)
        for g, gi in conjugators:
            nxt = tuple(map(tuple, g @ m @ gi))
            if max(abs(x) for row in nxt for x in row) <= expand_bound:
                union(key, nxt)
                if nxt not in explored:
                    explored.add(nxt)
                    frontier.append(nxt)
    return len({find(m) for m in mats})


class TestCriterion7ConjugacyBookkeeping:
    def test_conjugacy_and_torus_bookkeeping(self):
        start = time.time()
        classes = sv.conjugacy_classes_sl2(10)
        by_trace = {}
        for rec in classes:
            by_trace[rec.trace] = by_trace.get(rec.trace, 0) + 1
        oracle_ok = all(by_trace[t] == _bfs_class_count(t) for t in range(3, 11))

        census = sv.torus_census(12.0)
        regroup_ok = census["regroup_exact"]

        golden = [c for c in classes if c.trace == 3][0]
        d0 = root_system(2).delta_zero()
        # primitive length in entropy-normalized units: 2 arccosh(3/2),
        # equivalently twice the log of the trace-3 fundamental automorph
        # (3 + sqrt 5)/2, the square of the golden ratio
        length_ok = abs(d0 * golden.period_volume - 2.0 * math.acosh(1.5)) < 1e-12
        elapsed = time.time() - start
        ok = oracle_ok and regroup_ok and length_ok and elapsed < 300.0
        _report(
            "criterion 7 (conjugacy/torus bookkeeping)",
            ok,
            f"classes {sum(by_trace.values())} (oracle {oracle_ok}), regroup {regroup_ok}, "
            f"golden length {d0 * golden.period_volume:.6f}, {elapsed:.0f}s",
        )


class TestCriterion8GrowthTrends:
    def test_growth_trends(self):
        start = time.time()
        classes = sv.conjugacy_classes_sl2(sv.trace_bound_for_length(14.0))
        sweep = sv.torus_sweep([10.0, 11.0, 12.0, 13.0, 14.0], classes)
        stabilization = sweep["tail_relative_change"]

        growth = sv.conjugacy_growth([10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0])
        d0 = root_system(2).delta_zero()
        rate_err = abs(growth["rate_fit"] / d0 - 1.0)
        elapsed = time.time() - start
        ok = (
            stabilization < 0.25
            and rate_err < 0.10
            and growth["monotone"]
            and np.isfinite(growth["poly_exponent_fit"])
            and elapsed < 600.0
        )
        _report(
            "criterion 8 (growth trends)",
            ok,
            f"torus ratio tail change {stabilization:.3f}, rate err {rate_err:.3f}, "
            f"poly exp {growth['poly_exponent_fit']:.2f} "
            f"+- {growth['poly_exponent_std_err']:.2f} (reported, no pass/fail), {elapsed:.0f}s",
        )


class TestCriterion9JordanCartanSurvey:
    def test_jordan_cartan_survey(self):
        start = time.time()
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 8.0))
        lox = [r for r in records if r.loxodromic]
        flat = sv.flat_bound_survey(lox)
        bound_ok = flat["violations"] == 0 and flat["checked"] == len(lox)

        survey = sv.jordan_cartan_survey(10, radii=(0, 2, 4, 6))
        c_gamma_ok = np.isfinite(survey["C_Gamma"]) and survey["monotone"]
        elapsed = time.time() - start
        ok = bound_ok and c_gamma_ok and elapsed < 300.0
        _report(
            "criterion 9 (Jordan-Cartan survey)",
            ok,
            f"flat bound {flat['checked']}/{len(lox)} (violations {flat['violations']}), "
            f"C_Gamma {survey['C_Gamma']:.4f}, monotone {survey['monotone']}, {elapsed:.0f}s",
        )
