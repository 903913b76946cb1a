import math

import numpy as np
import pytest

from wcc import flagmetric as fm
from wcc import loxodromy as lx
from wcc import projections as pj
from wcc.errors import LoxodromyError, ParameterError, PreconditionError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group
from constants_reference import _fit_constants, dist_d2


def admissible_parameters(d):
    consts = lx.fitted_constants(d)
    o = BasePoint.origin(d)
    r = 0.98 * consts.r0
    eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
    return o, r, eps


def deep_regular_vector(d, o, eps, factor=1.05):
    margin = factor * lx.t_zero(o, eps) / math.sqrt(d)
    y = margin * (np.arange(d)[::-1] - (d - 1) / 2.0)
    return y


class TestFittedConstants:
    def test_deterministic_and_positive(self):
        for d in (2, 3):
            a = lx.fitted_constants(d)
            assert a.c1 >= 1.0 and a.c2 >= 1.0 and a.c3 >= 1.0
            assert 0.0 < a.r0 < 1.0
            assert a.c0 == pytest.approx(4.0 * root_system(d).c_a(), abs=1e-12)

    def test_pinned_table_matches_refit(self):
        for d in (2, 3):
            pinned, refit = lx.fitted_constants(d), _fit_constants(d)
            for name, value in vars(refit).items():
                assert getattr(pinned, name) == pytest.approx(value, rel=1e-12), name

    def test_unpinned_dimension_raises(self):
        with pytest.raises(PreconditionError, match="d = 4"):
            lx.fitted_constants(4)

    def test_r0_is_the_root(self):
        for d in (2, 3):
            consts = lx.fitted_constants(d)
            slope = max(consts.c3, 2.0)
            assert -math.log(consts.r0) - slope * consts.r0 == pytest.approx(0.0, abs=1e-10)

    def test_distortion_envelopes_hold(self):
        rng = np.random.default_rng(100)
        for d in (2, 3):
            consts = lx.fitted_constants(d)
            rs = root_system(d)
            for _ in range(200):
                g = random_group(rng, d, 0.5)
                dx = rs.killing_norm(pj.cartan_vector(g))
                cap = consts.c1 * math.exp(consts.c0 * dx)
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                if fm.dist_d(xi, eta) > 1e-9:
                    assert fm.dist_d(xi.translate(g), eta.translate(g)) <= cap * fm.dist_d(xi, eta) * (1 + 1e-9)
                if fm.dist_delta(xi, eta) > 1e-9:
                    assert fm.dist_delta(xi.translate(g), eta.translate(g)) <= cap * fm.dist_delta(xi, eta) * (1 + 1e-9)

    def test_cx_monotone_in_distance(self):
        o = BasePoint.origin(3)
        near = BasePoint(GroupElement.from_cartan_vector([0.1, 0.0, -0.1]))
        far = BasePoint(GroupElement.from_cartan_vector([0.4, 0.0, -0.4]))
        assert lx.cx_constant(o) < lx.cx_constant(near) < lx.cx_constant(far)
        # doubling the displacement squares the exponential factor
        base = lx.cx_constant(o)
        ratio_near = lx.cx_constant(near) / base
        ratio_far = lx.cx_constant(far) / base
        assert ratio_far == pytest.approx(ratio_near**4, rel=1e-9)


class TestContraction:
    def test_deep_vector_contracts_samples(self):
        res = lx.contraction_check(np.array([10.0, 0.0, -10.0]), 0.1, n_samples=300)
        assert res.analytic
        assert res.n_contracted == res.n_sampled == 300

    def test_zero_vector_fails_analytic(self):
        res = lx.contraction_check(np.array([0.0, 0.0]), 0.5, n_samples=5)
        assert not res.analytic

    def test_boundary_gap_matches_wedge_norm(self):
        # the top singular gap of the standard representation equals the
        # exponential of minus the simple root
        rs = root_system(2)
        for s in (0.6, 1.5, 2.3):
            a = np.array([s, -s])
            g = np.diag(np.exp(a))
            top = np.linalg.svd(g, compute_uv=False)[0]
            wedge = abs(np.linalg.det(g))
            gamma12 = wedge / top**2
            assert gamma12 == pytest.approx(math.exp(-float(rs.simple_roots[0] @ a)), rel=1e-12)
            eps = math.exp(-float(rs.simple_roots[0] @ a) / 2.0) * 1.05
            if eps < 1.0:
                res = lx.contraction_check(a, eps, n_samples=200)
                assert res.analytic
                assert res.n_contracted == res.n_sampled

    def test_chamber_precondition(self):
        with pytest.raises(PreconditionError):
            lx.contraction_check(np.array([-1.0, 1.0]), 0.1)


class TestCertify:
    def test_diagonal_deep_element(self):
        for d in (2, 3):
            o, r, eps = admissible_parameters(d)
            g = GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps))
            cert = lx.certify(g, o, r, eps)
            assert cert.certified
            assert max(cert.fixed_point_errors) < 1e-9

    def test_constructed_family_certified(self):
        rng = np.random.default_rng(101)
        for d in (2, 3):
            rs = root_system(d)
            o, r, eps = admissible_parameters(d)
            y = deep_regular_vector(d, o, eps)
            ok = 0
            for _ in range(60):
                yh = rng.normal(size=d)
                yh -= yh.mean()
                yh *= rng.uniform(0.0, 0.3 * r) / max(rs.killing_norm(yh), 1e-12)
                h = pj.random_so(d, rng) @ np.diag(np.exp(np.sort(yh)[::-1])) @ pj.random_so(d, rng)
                signs = rng.choice([1.0, -1.0], size=d)
                if np.prod(signs) < 0:
                    signs[0] *= -1
                g = GroupElement(h @ (np.diag(np.exp(y)) @ np.diag(signs)) @ np.linalg.inv(h), check=False)
                cert = lx.certify(g, o, r, eps)
                assert cert.certified, cert.conditions
                assert max(cert.fixed_point_errors) < eps
                # certified elements keep their Jordan projection within 4r
                # of the chamber displacement
                lam, _ = pj.jordan_project(g)
                gap = rs.killing_norm(lam - pj.cartan_at(g, o))
                assert gap <= 4.0 * r + 1e-6
                ok += 1
            assert ok == 60

    def test_adversarial_rejected(self):
        rng = np.random.default_rng(102)
        for d in (2, 3):
            o, r, eps = admissible_parameters(d)
            adversarial = []
            for n in (1, 7, 10**3, 10**6):
                u = np.eye(d)
                u[0, -1] = float(n)
                adversarial.append(GroupElement(u))
            adversarial.append(GroupElement(pj.random_so(d, rng), check=False))
            for w in (1e-3, 0.5, 2.0):
                y = np.zeros(d)
                y[0], y[-1] = w, -w
                adversarial.append(GroupElement.from_cartan_vector(y))
            for g in adversarial:
                assert not lx.certify(g, o, r, eps).certified

    def test_large_unipotent_fails_corridor_condition(self):
        # the shear is chamber-regular with a large wall margin, but both
        # angular flags collapse toward the first coordinate line, so the
        # flat misses every small ball around the origin
        o, r, eps = admissible_parameters(2)
        u = GroupElement(np.array([[1.0, 1e6], [0.0, 1.0]]))
        cert = lx.certify(u, o, r, eps)
        assert not cert.certified
        assert cert.conditions["wall_margin_ok"]
        assert not (cert.conditions["flat_dist"] < r)

    def test_parameter_validation(self):
        o, r, eps = admissible_parameters(2)
        g = GroupElement.from_cartan_vector(deep_regular_vector(2, o, eps))
        with pytest.raises(ParameterError):
            lx.certify(g, o, 0.99, eps)  # r above r0
        with pytest.raises(ParameterError):
            lx.certify(g, o, r, 0.9)  # eps above the cap

    def test_certificate_soundness_invariant(self):
        # every certified element passes the independent eigenvalue test
        rng = np.random.default_rng(103)
        o, r, eps = admissible_parameters(2)
        y = deep_regular_vector(2, o, eps)
        for _ in range(40):
            h = random_group(rng, 2, 0.02)
            g = GroupElement(h.mat @ np.diag(np.exp(y)) @ np.linalg.inv(h.mat), check=False)
            cert = lx.certify(g, o, r, eps)
            if cert.certified:
                assert pj.is_loxodromic(g)


class TestJordanCartanGap:
    def test_diagonal_gap_zero(self):
        g = GroupElement(np.diag([2.0, 1.0, 0.5]))
        assert lx.jordan_cartan_gap(g, BasePoint.origin(3)) < 1e-9

    def test_conjugate_bounded_by_grid_flat(self):
        rng = np.random.default_rng(104)
        rs = root_system(3)
        o = BasePoint.origin(3)
        for _ in range(15):
            y = np.sort(rng.uniform(0.4, 1.5, size=3))[::-1]
            y -= y.mean()
            h = random_group(rng, 3, 0.4)
            g = GroupElement(h.mat @ np.diag(np.exp(y)) @ np.linalg.inv(h.mat), check=False)
            gap = lx.jordan_cartan_gap(g, o)  # raises if the flat bound fails
            assert gap >= 0.0

    def test_rejects_non_loxodromic(self):
        with pytest.raises(LoxodromyError):
            lx.jordan_cartan_gap(GroupElement([[1, 1], [0, 1]]), BasePoint.origin(2))


class TestDistanceSurrogates:
    def test_d2_metric_distortion_bound(self):
        rng = np.random.default_rng(105)
        consts = lx.fitted_constants(2)
        rs = root_system(2)
        for _ in range(50):
            g = random_group(rng, 2, 0.4)
            z1, z2 = random_group(rng, 2, 0.3), random_group(rng, 2, 0.3)
            lhs = dist_d2(
                GroupElement(g.mat @ z1.mat, check=False),
                GroupElement(g.mat @ z2.mat, check=False),
            )
            cap = consts.c1 * math.exp(consts.c0 * rs.killing_norm(pj.cartan_vector(g)))
            assert lhs <= cap * dist_d2(z1, z2) * (1 + 1e-6) + 1e-12

    def test_constants_report_stable(self):
        a = lx.fitted_constants(2).as_dict()
        b = lx.fitted_constants(2).as_dict()
        assert a == b
        assert "provenance" in a
