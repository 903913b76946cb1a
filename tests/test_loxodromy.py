import json
import math
from pathlib import Path

import numpy as np
import pytest

from wcc import flagmetric as fm
from wcc import loxodromy as lx
from wcc import projections as pj
from wcc import survey as sv
from wcc.errors import LoxodromyError, NumericError, ParameterError, PreconditionError
from wcc.lattice import LatticeSpec, enumerate_elements
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import RootSystemA, root_system
from wcc.volume import Domain

from conftest import criterion4_elements, random_group
from constants_reference import _fit_constants, dist_d2
from loxodromy_reference import (
    contraction_check,
    decimal_sl2_certificate,
    decimal_sl3_certificate,
    reference_certify,
    reference_jordan_cartan_gap,
)
from projection_reference import dist_x, is_loxodromic

VERDICTS = Path(__file__).with_name("certify_verdicts.json")
# bound on |value - 50-digit value| / max(1, |value|) of the d = 2 closed form; over the grid
# of TestSl2ClosedForm (the d = 2 pinned cases, criterion 4's d = 2 family at the three base
# points of sl2_base_points, and sl2_edge_cases) its largest error was 2.8 eps, on a wall distance
SL2_VALUE_BOUND = 4.0 * np.finfo(float).eps
# bound on |error - 50-digit error| of a d = 3 fixed-point error, in units of eps s_1 / s_2 for
# the singular values of h_x^-1 g h_x: a float SVD or eigen-solve resolves the vectors of the
# smaller values only to about that.  Over the d = 3 pinned cases and criterion 4's d = 3
# family (1,054 errors) the largest was 1.8
SL3_ERROR_BOUND = 4.0


def sl3_error_bound(g, x):
    s = np.linalg.svd(pj._conjugate(g, x).mat, compute_uv=False)
    return SL3_ERROR_BOUND * np.finfo(float).eps * s[0] / s[1]


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


def sl2_base_points():
    return (BasePoint.origin(2), BasePoint(GroupElement.from_integer([[2, 1], [1, 1]])),
            BasePoint(GroupElement.from_cartan_vector([0.04, -0.04])))


def criterion4_family(x):
    """Criterion 4's d = 2 construction (seed 4, 500 elements) at a base point x: each
    element just past t_zero(x, eps), conjugated by h_x; the family itself at the origin.
    Returns the elements and their (r, eps)."""
    rs, consts = root_system(2), lx.fitted_constants(2)
    r = 0.98 * consts.r0
    eps = 0.9 * min(r / lx.cx_constant(x), consts.eps0)
    y = 1.05 * lx.t_zero(x, eps) / math.sqrt(2) * np.array([0.5, -0.5])
    rng, out = np.random.default_rng(4), []
    for _ in range(500):
        yh = rng.normal(size=2)
        yh -= yh.mean()
        yh *= rng.uniform(0.0, 0.3 * r) / max(rs.killing_norm(yh), 1e-12)
        h = x.h.mat @ pj.random_so(2, rng) @ np.diag(np.exp(np.sort(yh)[::-1])) @ pj.random_so(2, rng)
        signs = rng.choice([1.0, -1.0], size=2)
        if np.prod(signs) < 0:
            signs[0] *= -1
        out.append(GroupElement(h @ (np.diag(np.exp(y)) @ np.diag(signs)) @ np.linalg.inv(h), check=False))
    return out, r, eps


def sl2_edge_cases():
    """d = 2 elements past the wall margin at the origin with a + d = 0, b = 0 or c = 0."""
    o, r, eps = admissible_parameters(2)
    s = math.exp(1.05 * lx.t_zero(o, eps) / (2.0 * math.sqrt(2)))  # diag(s, 1 / s) is 1.05 t0 from the walls
    mats = [GroupElement.from_integer([[50, 2501], [-1, -50]]),  # a + d = 0: not transverse
            GroupElement.from_integer([[1, 0], [3000, 1]]), GroupElement.from_integer([[1, 3000], [0, 1]]),
            GroupElement([[0.0, s], [-1.0 / s, 0.0]]), GroupElement([[s, s], [-1.0 / s, 0.0]])]
    for off in (0.0, 0.01, 1.0, s):
        mats += [GroupElement([[s, off], [0.0, 1.0 / s]]), GroupElement([[s, 0.0], [off, 1.0 / s]]),
                 GroupElement([[-1.0 / s, off], [0.0, -s]]), GroupElement([[1.0 / s, 0.0], [off, s]])]
    return [(g, o, r, eps) for g in mats]


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


    def test_as_dict_is_fresh_per_call_and_per_certificate(self):
        consts = lx.fitted_constants(3)
        mutated = consts.as_dict()
        mutated["C1"] = -1.0
        assert consts.as_dict()["C1"] == consts.c1 and consts.as_dict() is not consts.as_dict()
        o, r, eps = admissible_parameters(3)
        g = criterion4_elements()[3][0]
        first, second = lx.certify(g, o, r, eps), lx.certify(g, o, r, eps)
        assert first.constants is not second.constants
        first.constants["C1"] = -1.0
        assert second.constants["C1"] == consts.c1 and second.constants["C_x"] == lx.cx_constant(o)
        assert lx.certify(g, o, r, eps).constants == {**consts.as_dict(), "C_x": lx.cx_constant(o)}

    def test_t_zero_is_its_formula_once_per_base_point_and_epsilon(self):
        rng = np.random.default_rng(109)
        for d in (2, 3):
            for x in (BasePoint.origin(d), BasePoint(random_group(rng, d, 0.3))):
                for eps in (1e-6, 0.01, 0.5):
                    want = lx.T0_SAFETY * math.sqrt(d) * (2.0 * math.log(lx.cx_constant(x)) - 2.0 * math.log(eps))
                    assert lx.t_zero(x, eps) == want
                    hits = lx.t_zero.cache_info().hits
                    assert lx.t_zero(x, eps) == want and lx.t_zero.cache_info().hits == hits + 1
                for eps in (0.0, 1.0, -0.1, 1.5, math.nan):
                    for _ in range(2):  # a refusal is not cached
                        with pytest.raises(ParameterError, match="epsilon must be in"):
                            lx.t_zero(x, eps)


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
                # the wall distance of an integer element is that of its exact conjugate, which
                # moved off the pinned value at d = 3: within 4 eps of the 50-digit one
                ref = (decimal_sl2_certificate if g.d == 2 else decimal_sl3_certificate)(g, x)[0]
                value, _ = new.pop("wall_distance"), old.pop("wall_distance")
                assert abs(value - ref) <= 4.0 * np.finfo(float).eps * max(1.0, ref), label
            new_flat, old_flat = new.pop("flat_dist"), old.pop("flat_dist")
            if g.d == 2:
                # the closed form: each float value within SL2_VALUE_BOUND of the 50-digit one,
                # and nearer to it than the pinned value wherever that one is not
                ref_wall, ref_flat, ref_errors = decimal_sl2_certificate(g, x)
                values = [(new_flat, old_flat, ref_flat)] if math.isfinite(old_flat) else []
                if g.int_mat is None:
                    values.append((new.pop("wall_distance"), old.pop("wall_distance"), ref_wall))
                if old["fixed_point_errors"] is not None:
                    values += zip(new.pop("fixed_point_errors"), old.pop("fixed_point_errors"), ref_errors)
                for value, pinned, ref in values:
                    err, bound = abs(value - ref), SL2_VALUE_BOUND * max(1.0, abs(ref))
                    assert err <= bound and (err <= abs(pinned - ref) or abs(pinned - ref) <= bound), label
            else:
                # the flat distance is Newton's method at d = 3, so it moves in the last digits;
                # each fixed-point error within sl3_error_bound of the 50-digit one, and nearer
                # to it than the pinned value wherever that one is not
                assert new_flat == old_flat or abs(new_flat - old_flat) <= 1e-13 * max(1.0, old_flat), label
                if old["fixed_point_errors"] is not None:
                    bound, (_, ref_errors) = sl3_error_bound(g, x), decimal_sl3_certificate(g, x)
                    for value, pinned, ref in zip(new.pop("fixed_point_errors"), old.pop("fixed_point_errors"),
                                                  ref_errors, strict=True):
                        err = abs(value - ref)
                        assert err <= bound and (err <= abs(pinned - ref) or abs(pinned - ref) <= bound), label
            assert new_flat == math.inf if old_flat == math.inf else math.isfinite(new_flat), label
            assert new == old, label

    def test_wide_integer_wall_distance_is_exact(self):
        o, g = BasePoint.origin(2), GroupElement.from_integer(
            [[74329081, 28229880], [47049800, 17869321]])
        cert = lx.certify(g, o, 0.4, 0.0005)
        assert cert.conditions["wall_distance"] == 51.929538344805906

    def test_one_eigen_solve_per_certificate(self, linalg_calls):
        # and none at d = 2, which makes no np.linalg call at all
        for d, expected in ((2, []), (3, ["eig"])):
            o, r, eps = admissible_parameters(d)
            linalg_calls.clear()
            cert = lx.certify(GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps)), o, r, eps)
            assert cert.certified
            assert [name for name, _ in linalg_calls if name in ("eig", "eigvals")] == expected
            assert bool(linalg_calls) == (d == 3)

    def test_one_determinant_per_frame(self, linalg_calls):
        # none at either d: at d = 3 the flags are cross products, the transversality gauge
        # two inner products and the witness determinant a triple product; d = 2 makes no
        # np.linalg call at all
        for d in (2, 3):
            o, r, eps = admissible_parameters(d)
            linalg_calls.clear()
            cert = lx.certify(GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps)), o, r, eps)
            assert cert.certified
            assert [name for name, _ in linalg_calls if name in ("det", "qr", "solve")] == []
            assert bool(linalg_calls) == (d == 3)

    def test_one_frame_action_per_certificate(self, linalg_calls, monkeypatch):
        # d = 3: one SVD of the conjugate, one eigen-solve and one SVD per Newton evaluation
        # of the flat distance, each of one 3 x 3 matrix, and no QR; d = 2: none of them.
        # At the shared origin neither builds an identity, compares with one or computes h_x^-1
        evaluations, set_up = [], []
        flat_row = fm._flat_row
        monkeypatch.setattr(fm, "_flat_row", lambda m: evaluations.append(1) or flat_row(m))
        cases = []
        for d in (2, 3):
            o, r, eps = admissible_parameters(d)
            for g in (GroupElement.from_cartan_vector(deep_regular_vector(d, o, eps)), criterion4_elements()[d][0]):
                cases.append((g, o, r, eps))
        for name in ("eye", "array_equal"):
            monkeypatch.setattr(np, name, lambda *a, _fn=getattr(np, name), _name=name, **k:
                                set_up.append(_name) or _fn(*a, **k))
        for g, o, r, eps in cases:
            o.__dict__.pop("h_inverse", None)  # the shared origin: another test may have read it
            linalg_calls.clear()
            evaluations.clear()
            set_up.clear()
            assert lx.certify(g, o, r, eps).certified
            expected = [] if g.d == 2 else [("eig", (3, 3))] + [("svd", (3, 3))] * (1 + len(evaluations))
            assert sorted(linalg_calls) == expected
            assert bool(evaluations) == (g.d == 3)
            assert set_up == []
            assert "h_inverse" not in o.__dict__

    def test_lapack_calls_of_a_d3_certificate(self, linalg_calls, monkeypatch):
        # a float conjugate's wall distance comes from the certificate's own SVD: rejected at
        # the wall margin it makes that one SVD and no eigen-solve, certified it makes 1 + n
        # SVDs for n Newton evaluations and one eigen-solve, and neither goes through
        # cartan_vector or wall_distances; an integer conjugate keeps the exact logs
        o, r, eps = admissible_parameters(3)  # C_x of the origin before the counters
        rejected = [GroupElement.from_cartan_vector([w, 0.0, -w]) for w in (1e-4, 3.0)]
        rejected.append(GroupElement(pj.random_so(3, np.random.default_rng(108)), check=False))
        certified = [criterion4_elements()[3][0],
                     GroupElement.from_cartan_vector(deep_regular_vector(3, o, eps))]
        integer = next(g for label, g, *_ in certify_cases() if label == "integer d=3")
        calls = []
        for owner, name in ((pj, "cartan_vector"), (RootSystemA, "wall_distances"), (fm, "_flat_row")):
            monkeypatch.setattr(owner, name, lambda *a, _fn=getattr(owner, name), _name=name:
                                calls.append(_name) or _fn(*a))
        for g in rejected + certified + [integer]:
            linalg_calls.clear()
            calls.clear()
            cert = lx.certify(g, o, r, eps)
            if g is integer:
                assert calls.count("cartan_vector") == calls.count("wall_distances") == 1
                continue
            n = calls.count("_flat_row")
            assert calls == ["_flat_row"] * n
            if g in rejected:
                assert not cert.conditions["wall_margin_ok"] and n == 0
                assert linalg_calls == [("svd", (3, 3))]
            else:
                assert cert.certified and n > 0
                assert sorted(linalg_calls) == [("eig", (3, 3))] + [("svd", (3, 3))] * (1 + n)

    def test_eigen_solver_failure_raises_only_when_certified(self, monkeypatch):
        # the solve runs only for an element that would be certified, so only there does
        # its failure reach the caller
        o, r, eps = admissible_parameters(3)
        y = deep_regular_vector(3, o, eps, factor=1.3)
        h = random_group(np.random.default_rng(107), 3, 0.4).mat  # its flat misses o by 1.14
        far = GroupElement(h @ np.diag(np.exp(y)) @ np.linalg.inv(h), check=False)
        near = criterion4_elements()[3][0]
        conditions = lx.certify(far, o, r, eps).conditions
        assert conditions["wall_margin_ok"] and conditions["transverse_ok"] and conditions["flat_dist"] > r

        lapack = pj._lapack

        def failing(name, m):
            if name == "eig":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return lapack(name, m)

        monkeypatch.setattr(pj, "_lapack", failing)
        with pytest.raises(NumericError, match="eigenvalue solver failed"):
            lx.certify(near, o, r, eps)
        cert = lx.certify(far, o, r, eps)
        assert cert.conditions == conditions and not cert.certified


class TestSharedOrigin:
    """``BasePoint.origin(d)`` is one read-only base point per d, at which a certificate
    conjugates nothing; any other identity representative keeps the general path, its oracle."""

    def test_one_read_only_origin_per_d(self):
        for d in (2, 3):
            o = BasePoint.origin(d)
            assert BasePoint.origin(d) is o and np.array_equal(o.h.mat, np.eye(d))
            with pytest.raises(ValueError, match="read-only"):
                o.h.mat[0, 0] = 2.0
            g = GroupElement.from_cartan_vector([0.5] + [0.0] * (d - 2) + [-0.5])
            assert pj._conjugate(g, o) is g

    def test_a_fresh_identity_gives_the_same_certificates(self):
        origin_rows = 0
        for label, g, x, r, eps in certify_cases():
            if x is BasePoint.origin(g.d):
                fresh = BasePoint(GroupElement(np.eye(g.d), check=False))
                assert pj._conjugate(g, fresh) is not g
                assert lx.certify(g, fresh, r, eps).as_dict() == lx.certify(g, x, r, eps).as_dict(), label
                origin_rows += 1
        assert origin_rows == 150


class TestLoxodromyGate:
    """A d = 3 certificate re-checks loxodromy on the eigenvalues of its one eigen-solve, in
    Python floats for a float element (``_loxodromic``); ``_jordan_solve`` is its oracle."""

    @staticmethod
    def elements():
        yield from criterion4_elements()[3]
        yield from (g for _, g, *_ in certify_cases() if g.d == 3)
        rng = np.random.default_rng(110)
        for n in (1, 7, 100, 10**4, 10**6):
            u = np.eye(3)
            u[0, -1] = float(n)
            yield GroupElement(u)
        for _ in range(10):
            yield GroupElement(pj.random_so(3, rng), check=False)
        for w in (1e-3, 0.1, 0.5, 2.0, 3.0):
            yield GroupElement.from_cartan_vector([w, 0.0, -w])

    @staticmethod
    def near_threshold():
        """Elements whose smallest log gap is TAU_LOX_DEFAULT (1 +- 1e-3), at either pair, with
        negative eigenvalues and conjugated by a rotation, each with its expected verdict."""
        rng = np.random.default_rng(111)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            small = factor * pj.TAU_LOX_DEFAULT
            for gaps in ((small, 0.7), (0.7, small), (small, 2.5)):
                y = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
                diag = GroupElement.from_cartan_vector(y - y.mean()).mat
                k = pj.random_so(3, rng)
                for mat in (diag, diag @ np.diag([-1.0, -1.0, 1.0]), k @ diag @ k.T):
                    yield GroupElement(mat, check=False), factor > 1.0

    def test_the_gate_matches_the_jordan_solve(self):
        verdicts = []
        for g in self.elements():
            verdicts.append(lx._loxodromic(g, pj._eig(g.mat).tolist()))
            assert verdicts[-1] == pj._jordan_solve(g)[1], g
        assert 0 < sum(verdicts) < len(verdicts)

    def test_gaps_at_the_threshold(self):
        for g, expected in self.near_threshold():
            assert lx._loxodromic(g, pj._eig(g.mat).tolist()) == pj._jordan_solve(g)[1] == expected, g


class TestSl2ClosedForm:
    """The d = 2 certificate is a closed form; the frame path it replaced
    (``reference_certify``) is the oracle of its verdicts and flags, and a 50-digit
    evaluation of the same matrices that of its values."""

    @staticmethod
    def grid():
        yield from ((g, x, r, eps) for _, g, x, r, eps in certify_cases() if g.d == 2)
        for x in sl2_base_points():
            elements, r, eps = criterion4_family(x)
            yield from ((g, x, r, eps) for g in elements)
        yield from sl2_edge_cases()

    def test_flags_match_the_frame_path(self):
        for g, x, r, eps in self.grid():
            new, old = lx.certify(g, x, r, eps), reference_certify(g, x, r, eps)
            assert new.certified == old.certified, g
            for key in ("wall_margin_ok", "transverse_ok", "t0"):
                assert new.conditions[key] == old.conditions[key], (key, g)
            assert (new.fixed_point_errors is None) == (old.fixed_point_errors is None), g

    def test_values_within_the_bound_of_the_50_digit_reference(self):
        certified = 0
        for g, x, r, eps in self.grid():
            cert, (wall, flat, errors) = lx.certify(g, x, r, eps), decimal_sl2_certificate(g, x)
            values = [(cert.conditions["wall_distance"], wall)]
            if cert.conditions["transverse_ok"]:
                values.append((cert.conditions["flat_dist"], flat))
            if cert.certified:
                certified += 1
                values += zip(cert.fixed_point_errors, errors)
            for value, ref in values:
                assert abs(value - ref) <= SL2_VALUE_BOUND * max(1.0, abs(ref)), (g, value, ref)
        assert certified >= 1000

    def test_edge_entries(self):
        # a + d = 0 is refused as the witness refuses it; b = 0 and c = 0 give exact eigenlines
        rows = [lx.certify(*case) for case in sl2_edge_cases()]
        assert [c.conditions["transverse_ok"] for c in rows[:5]] == [False, True, True, False, True]
        assert rows[0].conditions["flat_dist"] == math.inf and not rows[0].certified
        assert all(c.certified and max(c.fixed_point_errors) < 1e-9 for c in rows[5:9])
        with pytest.raises(PreconditionError, match="invertible"):
            lx.certify(GroupElement([[1.0, 1.0], [1.0, 1.0]], check=False), *admissible_parameters(2))


class TestSl3Pass:
    """The d = 3 certificate is one float pass over 3-vectors; the frame path it replaced
    (``reference_certify``) is the oracle of its verdicts and conditions, and a 50-digit
    evaluation of the same matrices that of its fixed-point errors."""

    @staticmethod
    def grid():
        yield from ((g, x, r, eps) for _, g, x, r, eps in certify_cases() if g.d == 3)
        o, r, eps = admissible_parameters(3)
        yield from ((g, o, r, eps) for g in criterion4_elements()[3])

    def test_conditions_match_the_frame_path(self):
        for g, x, r, eps in self.grid():
            new, old = lx.certify(g, x, r, eps), reference_certify(g, x, r, eps)
            assert new.certified == old.certified, g
            new_flat, old_flat = new.conditions.pop("flat_dist"), old.conditions.pop("flat_dist")
            assert new_flat == old_flat or abs(new_flat - old_flat) <= 1e-13 * max(1.0, old_flat), g
            assert new.conditions == old.conditions, g
            assert (new.fixed_point_errors is None) == (old.fixed_point_errors is None), g

    def test_errors_within_the_bound_of_the_50_digit_reference(self):
        # the first 100 of criterion 4's family: the 50-digit solve takes about 10 ms an element
        o, r, eps = admissible_parameters(3)
        for g in criterion4_elements()[3][:100]:
            cert, (_, errors) = lx.certify(g, o, r, eps), decimal_sl3_certificate(g, o)
            bound = sl3_error_bound(g, o)
            for value, ref in zip(cert.fixed_point_errors, errors, strict=True):
                assert abs(value - ref) <= bound, (g, value, ref)

    def test_float_wall_distance_is_the_kernel_of_its_logs(self):
        # a float conjugate's wall distance, in Python floats from the logs of the
        # certificate's SVD, is wall_distances(_robust_logs(s)) of that SVD bit for bit: over
        # the float pinned cases, criterion 4's family, and at the origin and a float base
        # point the benchmark's adversarial shapes and two elements with a repeated singular
        # value, whose zero root clips to +0.0.  One division serves both simple roots
        rs = root_system(3)
        assert rs.simple_dual_norms[0] == rs.simple_dual_norms[1]
        rng = np.random.default_rng(109)
        o, r, _ = admissible_parameters(3)
        shapes = [GroupElement(np.eye(3) + n * np.eye(3, k=2)) for n in (1, 7, 100, 10**4, 10**6)]
        shapes += [GroupElement(pj.random_so(3, rng), check=False) for _ in range(10)]
        shapes += [GroupElement.from_cartan_vector([w, 0.0, -w]) for w in (1e-4, 0.1, 1.0, 3.0)]
        repeated = [GroupElement(np.eye(3)), GroupElement.from_cartan_vector([1.0, 1.0, -2.0])]
        cases = [case for case in self.grid() if case[0].int_mat is None]
        for x in (o, BasePoint(random_group(rng, 3, 0.3))):
            eps = 0.5 * min(r / lx.cx_constant(x), lx.fitted_constants(3).eps0)
            cases += [(g, x, r, eps) for g in shapes + repeated]
        assert len(cases) == 50 + 500 + 2 * 21  # 40 built about t_zero and 10 adversarial pinned
        for g, x, r, eps in cases:
            wall = lx.certify(g, x, r, eps).conditions["wall_distance"]
            s = np.linalg.svd(pj._conjugate(g, x).mat)[1]
            assert type(wall) is float and wall == float(rs.wall_distances(pj._robust_logs(s))), g
            assert math.copysign(1.0, wall) == 1.0, g
            if g in repeated and x is o:
                assert wall == 0.0, g

    def test_decimal_wall_distance_is_within_the_float_resolution(self):
        # the bisection against the wall distance of every d = 3 pinned case but the float
        # ones, and of a diagonal element: the float SVD of a float element resolves s_3 only
        # to eps s_1, while an integer element's logs come from its exact compounds, each to
        # eps relative
        o, r, eps = admissible_parameters(3)
        cases = [(g, x) for label, g, x, *_ in certify_cases() if g.d == 3 and not label.startswith("float")]
        cases.append((GroupElement.from_cartan_vector(deep_regular_vector(3, o, eps)), o))
        assert sum(g.int_mat is not None for g, _ in cases) == 10
        for g, x in cases:
            (wall, _), s = decimal_sl3_certificate(g, x), np.linalg.svd(g.mat, compute_uv=False)
            value = lx.certify(g, x, 0.4, eps).conditions["wall_distance"]
            eps64 = np.finfo(float).eps
            float_resolution = 0.0 if g.int_mat is not None else eps64 * s[0] / s[-1]
            assert abs(wall - value) <= max(float_resolution, 4.0 * eps64 * max(1.0, wall)), g


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("d", [2, 3])
def test_non_finite_entries_are_refused(alarm, value, d):
    o, r, eps = admissible_parameters(d)
    mat = np.eye(d)
    mat[0, -1] = value
    with pytest.raises(PreconditionError, match="finite, got") as exc:
        GroupElement(mat)
    assert str(value) in str(exc.value)
    y, frame = np.zeros(d), np.eye(d)
    y[0], y[-1], frame[0, -1] = value, -value, value
    for build in (GroupElement.from_cartan_vector, fm.Flag):
        with pytest.raises(PreconditionError, match="finite, got") as exc:
            build(frame if build is fm.Flag else y)
        assert str(value) in str(exc.value)
    with pytest.raises(PreconditionError, match="and their exp must be finite, got 710.0"):
        GroupElement.from_cartan_vector([710.0] + [0.0] * (d - 2) + [-710.0])  # exp(y) overflows
    with pytest.raises(PreconditionError, match="finite conjugate"):
        lx.certify(GroupElement(mat, check=False), o, r, eps)
    x = BasePoint(GroupElement.from_cartan_vector(np.linspace(5.0, -5.0, d)))
    big = np.eye(d)
    big[-1, 0] = 1e305  # finite, but e^10 times that entry of h_x^-1 g h_x is not
    with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="finite conjugate"):
        lx.certify(GroupElement(big, check=False), x, 0.4, 0.1 / lx.cx_constant(x))


def test_overflowing_conjugate_is_refused_before_an_svd(alarm):
    # h_x^-1 g h_x of a loxodromic g overflows to inf at (2, 0): a NumericError naming the
    # entry, where an SVD of it would not return
    g = GroupElement([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    x = BasePoint(GroupElement.from_cartan_vector([700.0, 0.0, -700.0]))
    with pytest.raises(NumericError, match=r"is not finite in floats: entry \(0, 2, 0\) is inf"):
        lx.jordan_cartan_gap(g, x)


def test_overflowing_configuration_constant_is_refused():
    # d_X(o, x) = 800 sqrt 2 at the base point diag(e^400, e^-400): e^(c0 d_X) overflows
    far = BasePoint(GroupElement.from_cartan_vector([400.0, -400.0]))
    with pytest.raises(NumericError, match="d_X\\(o, x\\) = 1131.37") as exc:
        lx.cx_constant(far)
    assert str(root_system(2).killing_norm(pj.cartan_vector(far.h))) in str(exc.value)
    with pytest.raises(NumericError, match="C_x overflows"):
        lx.certify(GroupElement([[2.0, 1.0], [1.0, 1.0]]), far, 0.4, 1e-3)


class TestFlatDistanceWork:
    """What a certificate's flat distance runs: the closed form at d = 2, and at d = 3
    Newton's method on the exact Hessian."""

    def test_sl2_runs_no_witness_and_no_optimizer(self, monkeypatch):
        calls = []
        for name in ("_flat_minimum", "_sl3_witness"):
            fn = getattr(fm, name)
            monkeypatch.setattr(fm, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        o, r, eps = admissible_parameters(2)
        for g in criterion4_elements()[2][:50]:
            assert lx.certify(g, o, r, eps).certified
        census = enumerate_elements(LatticeSpec("sl2"), Domain("ball", 6.0))[0]
        for x in (None, BasePoint(GroupElement.from_integer([[2, 1], [1, 1]]))):
            assert sv.flat_bound_survey(census, x)["checked"] > 0
        assert calls == []
        o, r, eps = admissible_parameters(3)  # the wrappers do see the d = 3 calls
        assert lx.certify(criterion4_elements()[3][0], o, r, eps).certified
        assert sorted(calls) == ["_flat_minimum", "_sl3_witness"]

    def test_sl3_certificate_and_fixed_flags_share_one_kernel(self, monkeypatch):
        # the certificate and the float flat-bound rows of the fixed flags run the same one-pair
        # witness and Newton solve, once per pair
        calls = []
        for name in ("_sl3_witness", "_flat_minimum"):
            fn = getattr(fm, name)
            monkeypatch.setattr(fm, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        o, r, eps = admissible_parameters(3)
        elements = criterion4_elements()[3][:5]
        assert lx.certify(elements[0], o, r, eps).certified
        assert calls == ["_sl3_witness", "_flat_minimum"]
        rows = lx._flat_bound_rows(np.array([g.mat for g in elements]), o)
        assert all(isinstance(row, float) for row in rows)
        assert calls == ["_sl3_witness", "_flat_minimum"] * 6

    def test_sl3_certificate_hands_flat_distance_unbuilt_frames(self, monkeypatch):
        # the pair's flags are their unit lines and plane normals: no SO(3) frame is built
        pairs, flat_distance = [], fm.flat_distance
        monkeypatch.setattr(fm, "flat_distance", lambda x, pair: pairs.append(pair) or flat_distance(x, pair))
        o, r, eps = admissible_parameters(3)
        for g in criterion4_elements()[3]:
            assert lx.certify(g, o, r, eps).certified
        assert len(pairs) == len(criterion4_elements()[3])
        for pair in pairs:
            assert all("frame" not in vars(flag) for flag in (pair.xi_plus, pair.xi_minus))
            assert pair.delta_value == min(abs(fm._dot(pair.xi_plus.lines[0], pair.xi_minus.lines[1])),
                                           abs(fm._dot(pair.xi_plus.lines[1], pair.xi_minus.lines[0])))

    def test_sl3_certificate_makes_one_flat_distance_call(self, monkeypatch):
        # on a pair of flags built from their lines and normals, whose SO(3) frames are built when read
        pairs, flat_distance = [], fm.flat_distance
        monkeypatch.setattr(fm, "flat_distance", lambda x, pair: pairs.append(pair) or flat_distance(x, pair))
        o, r, eps = admissible_parameters(3)
        for g in criterion4_elements()[3][:20]:
            pairs.clear()
            assert lx.certify(g, o, r, eps).certified
            assert len(pairs) == 1
            for frame in (pairs[0].xi_plus.frame, pairs[0].xi_minus.frame):
                line, normal = frame.T[::2].tolist()
                assert np.array_equal(frame, np.array([line, fm._cross(normal, line), normal]).T)
                assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-14)
        pairs.clear()
        cert = lx.certify(GroupElement.from_cartan_vector([1.0, 0.0, -1.0]), o, r, eps)
        assert not cert.conditions["wall_margin_ok"] and pairs == []

    def test_sl3_optimizer_evaluations(self, monkeypatch):
        solves, evaluations = [], []
        for name, log in (("_flat_minimum", solves), ("_flat_row", evaluations)):
            fn = getattr(fm, name)
            monkeypatch.setattr(fm, name, lambda *args, _fn=fn, _log=log: _log.append(1) or _fn(*args))
        o, r, eps = admissible_parameters(3)
        for g in criterion4_elements()[3]:
            assert lx.certify(g, o, r, eps).certified
        assert len(solves) == 500
        assert len(evaluations) / len(solves) <= 2.5  # 6.0 for the BFGS from I, 3.5 from I / (2k)

    def test_sl3_witness_takes_no_svd(self, monkeypatch):
        # the witness is a closed form in 3-vectors: no SVD of its systems [a, -b], 3 x 4;
        # every SVD of the certificate is of one 3 x 3 matrix
        calls, witnesses = [], []
        lapack, witness = pj._lapack, fm._sl3_witness
        monkeypatch.setattr(pj, "_lapack", lambda name, m:
                            (name.startswith("svd") and calls.append(np.shape(m))) or lapack(name, m))
        monkeypatch.setattr(fm, "_sl3_witness", lambda *args: witnesses.append(args) or witness(*args))
        o, r, eps = admissible_parameters(3)
        assert lx.certify(criterion4_elements()[3][0], o, r, eps).certified
        assert len(witnesses) == 1 and all(len(v) == 3 for v in witnesses[0])
        assert calls and set(calls) == {(3, 3)}

    def test_witness_refusal_is_not_transverse(self):
        # the angular flags meet at an angle of 1e-13: transverse (delta > 0), but the
        # witness refuses them, so condition (ii) fails at transversality
        o, r, eps = admissible_parameters(2)
        s, phi = lx.t_zero(o, eps), math.pi / 2 + 1e-13
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        g = GroupElement(np.diag([math.exp(s), math.exp(-s)]) @ rot.T, check=False)
        cert = lx.certify(g, o, r, eps)
        assert cert.conditions["wall_margin_ok"]
        assert not cert.conditions["transverse_ok"]
        assert cert.conditions["flat_dist"] == math.inf
        assert not cert.certified


def _clear_base_point_caches(*points):
    lx.cx_constant.cache_clear()
    for x in points:
        x.__dict__.pop("h_inverse", None)


class TestBasePointCaches:
    """C_x and h_x^-1 are computed once per base point object; every certificate
    reads them."""

    def test_verdicts_cold_and_warm_are_identical(self):
        cases = certify_cases()  # its parameters come through cx_constant

        def rows():
            return [verdict_row(lx.certify(g, x, r, eps)) for _, g, x, r, eps in cases]

        _clear_base_point_caches(*(x for _, _, x, _, _ in cases))
        cold = rows()
        assert rows() == cold
        assert lx.cx_constant.cache_info().hits >= len(cases)

    def test_integer_and_float_base_points_do_not_share_an_entry(self):
        exact = BasePoint(GroupElement.from_integer([[5, 2], [2, 1]]))
        floats = BasePoint(GroupElement([[5, 2], [2, 1]]))
        # the exact and float paths round differently here, so a shared entry would show
        assert lx.cx_constant.__wrapped__(exact) != lx.cx_constant.__wrapped__(floats)
        assert not np.array_equal(exact.h.inverse().mat, floats.h.inverse().mat)
        for order in ((exact, floats), (floats, exact)):
            _clear_base_point_caches(exact, floats)
            for x in order + order:  # a miss, then a hit on the same object
                assert lx.cx_constant(x) == lx.cx_constant.__wrapped__(x)
                assert x.h_inverse.tobytes() == x.h.inverse().mat.tobytes()
        assert lx.cx_constant.cache_info().hits == 2

    def test_cached_arrays_refuse_writes(self):
        x = BasePoint(GroupElement.from_cartan_vector([0.1, 0.0, -0.1]))
        with pytest.raises(ValueError, match="read-only"):
            x.h_inverse[0, 0] = 1.0
        with pytest.raises(AttributeError):  # the frozen dataclass refuses both
            x.h_inverse = np.eye(3)
        with pytest.raises(AttributeError):
            del x.h_inverse

    def test_a_seen_base_point_takes_no_svd(self, monkeypatch):
        # C_x takes the one SVD of h_x itself; a second certificate at the same object
        # takes every other SVD again but not that one
        x = BasePoint(GroupElement.from_cartan_vector([0.2, -0.05, -0.15]))
        consts = lx.fitted_constants(3)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant.__wrapped__(x), consts.eps0)
        g = criterion4_elements()[3][0]
        calls, lapack = [], pj._lapack
        monkeypatch.setattr(pj, "_lapack", lambda name, m: (name.startswith("svd") and calls.append(
            np.asarray(m).tobytes() == x.h.mat.tobytes())) or lapack(name, m))
        _clear_base_point_caches(x)
        lx.certify(g, x, r, eps)
        first = list(calls)
        calls.clear()
        lx.certify(g, x, r, eps)
        assert first.count(True) == 1 and calls == [c for c in first if not c]


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


class TestDimensionMismatch:
    """An element, or a flag pair, and a base point of another dimension are refused by name, also
    where the base point is the shared origin or another representative of it."""

    @pytest.mark.parametrize("entry", ["certify", "cartan_at", "angular_points", "jordan_cartan_gap",
                                       "flat_distance"])
    @pytest.mark.parametrize("d, e", [(2, 3), (3, 2)])
    def test_refused(self, entry, d, e):
        g = GroupElement.from_integer([[2, 1], [1, 1]]) if d == 2 else criterion4_elements()[3][0]
        # an epsilon above the cap of either dimension: the dimension is refused first
        call = {"certify": lambda x: lx.certify(g, x, 0.4, 0.05), "cartan_at": lambda x: pj.cartan_at(g, x),
                "angular_points": lambda x: pj.angular_points(g, x),
                "jordan_cartan_gap": lambda x: lx.jordan_cartan_gap(g, x),
                "flat_distance": lambda x: fm.flat_distance(x, fm.TransversePair(*fm.fixed_points(g)))}[entry]
        shear = np.eye(e, dtype=int) + np.eye(e, k=1, dtype=int)
        for x in (BasePoint.origin(e), BasePoint(GroupElement.from_integer(np.eye(e, dtype=int))),
                  BasePoint(GroupElement.from_integer(shear)),
                  BasePoint(GroupElement.from_cartan_vector(np.linspace(0.3, -0.3, e)))):
            with pytest.raises(PreconditionError, match=rf"(d = {d} element|R\^{d}).* base point .*got d = {e}$"):
                call(x)


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
