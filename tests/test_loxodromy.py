import json
import math
from pathlib import Path

import numpy as np
import pytest

from wcc import flagmetric as fm
from wcc import loxodromy as lx
from wcc import projections as pj
from wcc.errors import LoxodromyError, NumericError, ParameterError, PreconditionError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group
from constants_reference import _fit_constants, dist_d2
from loxodromy_reference import contraction_check, reference_jordan_cartan_gap
from projection_reference import dist_x, is_loxodromic

VERDICTS = Path(__file__).with_name("certify_verdicts.json")


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


def _det_one_sl2(rng, top):
    """A det-one integer 2x2 matrix, entries of size up to about ``top``, random sign."""
    while True:
        a, c = (int(v) for v in rng.integers(1, top, size=2))
        if math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c) if c > 1 else 1  # a d = 1 (mod c)
    b = (a * d - 1) // c
    k = int(rng.integers(0, max(1, (top - d) // a)))
    m = [[a, b + k * a], [c, d + k * c]]
    return [[-v for v in row] for row in m] if rng.choice([1, -1]) < 0 else m


def certify_cases():
    """160 seeded certify inputs (label, g, x, r, eps): float elements built about the
    wall-margin threshold, integer sl2 elements with entries up to 1e9, integer sl3
    words, elements at an integer and at a float base point, and the adversarial family."""
    rng = np.random.default_rng(2026)
    cases = []
    for d in (2, 3):
        rs = root_system(d)
        consts = lx.fitted_constants(d)
        o = BasePoint.origin(d)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
        step = lx.t_zero(o, eps) / math.sqrt(d)
        for _ in range(40):
            y = rng.uniform(0.9, 1.2) * step * (np.arange(d)[::-1] - (d - 1) / 2.0)
            yh = rng.normal(size=d)
            yh -= yh.mean()
            yh *= rng.uniform(0.0, 0.6 * r) / max(rs.killing_norm(yh), 1e-12)
            h = pj.random_so(d, rng) @ np.diag(np.exp(np.sort(yh)[::-1])) @ pj.random_so(d, rng)
            signs = rng.choice([1.0, -1.0], size=d)
            if np.prod(signs) < 0:
                signs[0] *= -1
            g = h @ (np.diag(np.exp(y)) @ np.diag(signs)) @ np.linalg.inv(h)
            cases.append((f"float d={d}", GroupElement(g, check=False), o, r, eps))
    o2 = BasePoint.origin(2)
    for _ in range(40):
        top = int(10 ** rng.uniform(1.0, 9.0))
        g = GroupElement.from_integer(_det_one_sl2(rng, top))
        cases.append(("integer d=2", g, o2, 0.4, 0.0005))
    gens = [np.eye(3, dtype=int) for _ in range(6)]
    for i, (p, q) in enumerate([(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]):
        gens[i][p, q] = 1
    o3 = BasePoint.origin(3)
    eps3 = 0.5 * min(0.4 / lx.cx_constant(o3), lx.fitted_constants(3).eps0)
    for _ in range(10):
        m = np.eye(3, dtype=object)
        for j in rng.integers(0, 6, size=int(rng.integers(20, 60))):
            m = m @ gens[j].astype(object)
        cases.append(("integer d=3", GroupElement.from_integer(m), o3, 0.4, eps3))
    xi = BasePoint(GroupElement.from_integer([[2, 1], [1, 1]]))
    eps_i = 0.5 * min(0.4 / lx.cx_constant(xi), lx.fitted_constants(2).eps0)
    for _ in range(5):
        g = GroupElement.from_integer(_det_one_sl2(rng, int(10 ** rng.uniform(2.0, 9.0))))
        cases.append(("integer at integer x", g, xi, 0.4, eps_i))
    xf = BasePoint(GroupElement.from_cartan_vector([0.04, -0.04]))
    consts = lx.fitted_constants(2)
    r = 0.98 * consts.r0
    eps_f = 0.9 * min(r / lx.cx_constant(xf), consts.eps0)
    step = lx.t_zero(xf, eps_f) / math.sqrt(2)
    for _ in range(5):
        y = rng.uniform(0.95, 1.3) * step * np.array([0.5, -0.5])
        h = xf.h.mat @ pj.random_so(2, rng)
        g = h @ np.diag(np.exp(y)) @ np.linalg.inv(h)
        cases.append(("float at float x", GroupElement(g, check=False), xf, r, eps_f))
    for d in (2, 3):
        consts = lx.fitted_constants(d)
        o = BasePoint.origin(d)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
        for n in (1, 7, 100, 10**4, 10**6):
            u = np.eye(d)
            u[0, -1] = float(n)
            cases.append((f"unipotent d={d}", GroupElement(u), o, r, eps))
        for _ in range(3):
            cases.append((f"rotation d={d}", GroupElement(pj.random_so(d, rng), check=False), o, r, eps))
        for w in (0.1, 3.0):
            yv = np.zeros(d)
            yv[0], yv[-1] = w, -w
            cases.append((f"near wall d={d}", GroupElement.from_cartan_vector(yv), o, r, eps))
    return cases


def verdict_row(cert) -> dict:
    c = cert.conditions
    return {"certified": cert.certified, "wall_distance": c["wall_distance"], "t0": c["t0"],
            "wall_margin_ok": c["wall_margin_ok"], "transverse_ok": c["transverse_ok"],
            "flat_dist": c["flat_dist"],
            "fixed_point_errors": None if cert.fixed_point_errors is None else list(cert.fixed_point_errors)}


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

    def test_cx_reads_the_cartan_vector_of_the_representative(self):
        # the old formula: the Killing distance from the origin through dist_x
        def old_cx(x):
            consts = lx.fitted_constants(x.d)
            dx = dist_x(BasePoint.origin(x.d), x)
            return 8.0 * consts.c2 * consts.c1 * math.exp(consts.c0 * dx)

        rng = np.random.default_rng(107)
        for d in (2, 3):
            assert lx.cx_constant(BasePoint.origin(d)) == old_cx(BasePoint.origin(d))
            for _ in range(200):
                x = BasePoint(random_group(rng, d, rng.uniform(0.01, 0.5)))
                assert lx.cx_constant(x) == old_cx(x)
        # an integer representative takes the exact Cartan vector
        x = BasePoint(GroupElement.from_integer([[2, 1], [1, 1]]))
        assert lx.cx_constant(x) == pytest.approx(old_cx(x), rel=1e-12)

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
        res = contraction_check(np.array([10.0, 0.0, -10.0]), 0.1, n_samples=300)
        assert res.analytic
        assert res.n_contracted == res.n_sampled == 300

    def test_zero_vector_fails_analytic(self):
        res = contraction_check(np.array([0.0, 0.0]), 0.5, n_samples=5)
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
                res = contraction_check(a, eps, n_samples=200)
                assert res.analytic
                assert res.n_contracted == res.n_sampled

    def test_chamber_precondition(self):
        with pytest.raises(PreconditionError):
            contraction_check(np.array([-1.0, 1.0]), 0.1)


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
                assert is_loxodromic(g)


class TestVerdictTable:
    """certify on 160 seeded inputs against the table recorded before the certificate
    took one Cartan decomposition and one eigen-solve per element."""

    def test_verdicts_and_conditions_unchanged(self):
        table = json.loads(VERDICTS.read_text())
        cases = certify_cases()
        assert [label for label, *_ in cases] == [label for label, _ in table]
        for (label, g, x, r, eps), (_, old) in zip(cases, table):
            new = verdict_row(lx.certify(g, x, r, eps))
            if g.int_mat is not None:
                # the wall distance of an integer element is now that of its exact conjugate
                conj = GroupElement.from_integer(
                    pj._integer_inverse(x.h.int_mat) @ np.array(g.int_mat, dtype=object)
                    @ np.array(x.h.int_mat, dtype=object)) if x.h.int_mat is not None else g
                old["wall_distance"] = root_system(g.d).wall_distance(pj.cartan_vector(conj))
            assert new == old, label

    def test_wide_integer_wall_distance_is_exact(self):
        o, g = BasePoint.origin(2), GroupElement.from_integer(
            [[74329081, 28229880], [47049800, 17869321]])
        cert = lx.certify(g, o, 0.4, 0.0005)
        assert cert.conditions["wall_distance"] == 51.929538344805906

    def test_one_eigen_solve_per_certificate(self, monkeypatch):
        calls = []
        for name in ("eig", "eigvals"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, _s=solve, _n=name: calls.append(_n) or _s(m))
        for d in (2, 3):
            o, r, eps = admissible_parameters(d)
            calls.clear()
            cert = lx.certify(GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps)), o, r, eps)
            assert cert.certified
            assert calls == ["eig"]

    def test_one_determinant_per_frame(self, monkeypatch):
        # Cartan frame, two angular flags, the witness, and the two fixed flags in the one
        # stacked det of _eigen_frames; for d = 3 also the five 2 x 2 minor stacks
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(np.shape(m)) or det(m))
        for d, n_calls in ((2, 5), (3, 10)):
            o, r, eps = admissible_parameters(d)
            calls.clear()
            cert = lx.certify(GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps)), o, r, eps)
            assert cert.certified
            assert len(calls) == n_calls
            assert calls.count((2, d, d)) == 1  # the forward and backward eigenflag frames


def _clear_base_point_caches():
    lx.cx_constant.cache_clear()
    pj._h_inverse.cache_clear()


class TestBasePointCaches:
    """C_x and h_x^-1 are memoised on the value of the base point, the zero-sum basis
    once per d; every certificate reads them."""

    def test_verdicts_cold_and_warm_are_identical(self):
        cases = certify_cases()  # its parameters come through cx_constant

        def rows():
            return [verdict_row(lx.certify(g, x, r, eps)) for _, g, x, r, eps in cases]

        _clear_base_point_caches()
        fm._zero_sum_basis.cache_clear()
        cold = rows()
        assert rows() == cold
        assert lx.cx_constant.cache_info().hits >= len(cases)

    def test_integer_and_float_base_points_do_not_share_an_entry(self):
        def exact():
            return BasePoint(GroupElement.from_integer([[5, 2], [2, 1]]))

        def floats():
            return BasePoint(GroupElement([[5, 2], [2, 1]]))

        # the exact and float paths round differently here, so a shared entry would show
        assert lx.cx_constant.__wrapped__(exact()) != lx.cx_constant.__wrapped__(floats())
        assert not np.array_equal(exact().h.inverse().mat, floats().h.inverse().mat)
        for order in ((exact, floats), (floats, exact)):
            _clear_base_point_caches()
            for make in order + order:  # a miss, then a hit on a fresh but equal point
                x = make()
                assert lx.cx_constant(x) == lx.cx_constant.__wrapped__(x)
                assert pj._h_inverse(x).tobytes() == x.h.inverse().mat.tobytes()

    def test_cached_arrays_refuse_writes(self):
        inverse = pj._h_inverse(BasePoint(GroupElement.from_cartan_vector([0.1, 0.0, -0.1])))
        for cached in (inverse, fm._zero_sum_basis(3)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0

    def test_a_seen_base_point_takes_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        _clear_base_point_caches()
        y = [0.2, -0.05, -0.15]
        first = lx.cx_constant(BasePoint(GroupElement.from_cartan_vector(y)))
        assert len(calls) == 1
        calls.clear()
        assert lx.cx_constant(BasePoint(GroupElement.from_cartan_vector(y))) == first
        assert calls == []


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_failure_is_a_numeric_error(self, bad):
        g = GroupElement(np.array([[bad, 0.0], [0.0, 1.0]]), check=False)
        with pytest.raises(NumericError, match="eigenvalue solver failed"):
            lx.jordan_cartan_gap(g, BasePoint.origin(2))

    def test_matches_the_per_element_reference(self):
        rng = np.random.default_rng(106)
        for d in (2, 3):
            o, x = BasePoint.origin(d), BasePoint(random_group(rng, d, 0.2))
            for _ in range(10):
                y = np.sort(rng.uniform(0.4, 1.5, size=d))[::-1]
                y -= y.mean()
                h = random_group(rng, d, 0.4)
                g = GroupElement(h.mat @ np.diag(np.exp(y)) @ np.linalg.inv(h.mat), check=False)
                for base in (o, x):
                    assert lx.jordan_cartan_gap(g, base) == pytest.approx(
                        reference_jordan_cartan_gap(g, base), rel=1e-9)


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
