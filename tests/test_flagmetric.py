import math
import re

import numpy as np
import pytest

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import LoxodromyError, NumericError, PreconditionError, TransversalityError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group
from flagmetric_reference import hopf_inverse, is_transverse, reference_witness_frames, rn_derivative
from flat_reference import (
    reference_flat_distance,
    reference_flat_objective,
    scipy_bfgs_flat_distance,
)
from projection_reference import is_loxodromic

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def m_gauges(d):
    out = []
    for bits in range(2**d):
        signs = [(-1.0) ** ((bits >> i) & 1) for i in range(d)]
        if np.prod(signs) > 0:
            out.append(np.diag(signs))
    return out


class TestDistances:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            xi = fm.Flag(pj.random_so(d, rng))
            # exact zero up to the metric's sqrt(eps) floor
            assert fm.dist_d(xi, xi) < 1e-7

    def test_sl2_rotation_sine(self):
        for theta in (0.1, 0.4, 1.0, 1.5):
            assert fm.dist_d(fm.eta0(2), fm.Flag(rotation(theta))) == pytest.approx(
                abs(math.sin(theta)), abs=1e-12
            )

    def test_standard_pair_values(self):
        assert fm.dist_d(fm.eta0(2), fm.zeta0(2)) == 1.0
        for d in (2, 3):
            assert fm.dist_delta(fm.eta0(d), fm.zeta0(d)) == pytest.approx(1.0, abs=1e-12)
            assert fm.dist_delta(fm.eta0(d), fm.eta0(d)) == 0.0

    def test_delta_symmetry(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            for _ in range(100):
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                assert fm.dist_delta(xi, eta) == pytest.approx(fm.dist_delta(eta, xi), abs=1e-12)

    def test_range_and_symmetry_of_d(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            for _ in range(100):
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                val = fm.dist_d(xi, eta)
                assert 0.0 <= val <= 1.0
                assert val == pytest.approx(fm.dist_d(eta, xi), abs=1e-12)

    def test_m_gauge_invariance(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for _ in range(30):
                f1, f2 = pj.random_so(d, rng), pj.random_so(d, rng)
                base_d = fm.dist_d(fm.Flag(f1), fm.Flag(f2))
                base_delta = fm.dist_delta(fm.Flag(f1), fm.Flag(f2))
                for m1 in m_gauges(d):
                    for m2 in m_gauges(d):
                        assert fm.dist_d(fm.Flag(f1 @ m1), fm.Flag(f2 @ m2)) == pytest.approx(
                            base_d, abs=1e-10
                        )
                        assert fm.dist_delta(
                            fm.Flag(f1 @ m1), fm.Flag(f2 @ m2)
                        ) == pytest.approx(base_delta, abs=1e-10)

    def test_left_k_invariance(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            for _ in range(100):
                k = pj.random_so(d, rng)
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                assert fm.dist_d(xi.translate(k), eta.translate(k)) == pytest.approx(
                    fm.dist_d(xi, eta), abs=1e-10
                )
                assert fm.dist_delta(xi.translate(k), eta.translate(k)) == pytest.approx(
                    fm.dist_delta(xi, eta), abs=1e-10
                )

    def test_frame_validation(self):
        with pytest.raises(PreconditionError):
            fm.Flag(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestTransversality:
    def test_standard_examples(self):
        assert is_transverse(fm.eta0(3), fm.zeta0(3), 1e-6)
        assert not is_transverse(fm.eta0(3), fm.eta0(3), 1e-6)

    def test_random_pairs_generically_transverse(self):
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(1000):
            xi, eta = fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng))
            count += is_transverse(xi, eta, 1e-6)
        assert count == 1000

    def test_witness_reconstructs_pair(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(50):
                pair = fm.TransversePair(fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng)))
                w = pair.witness
                assert abs(np.linalg.det(w.mat) - 1.0) < 1e-9
                assert fm.dist_d(fm.eta0(d).translate(w), pair.xi_plus) < 1e-7
                assert fm.dist_d(fm.zeta0(d).translate(w), pair.xi_minus) < 1e-7

    def test_non_transverse_pair_rejected(self):
        with pytest.raises(TransversalityError):
            fm.TransversePair(fm.eta0(3), fm.eta0(3))

    def test_stacked_witnesses_fail_row_by_row(self):
        rng = np.random.default_rng(9)
        a, b = pj.random_so(3, rng, size=3), pj.random_so(3, rng, size=3)
        a[1], b[1] = np.eye(3), np.eye(3)  # the second and third forward subspaces meet in a plane
        w, errors = fm._witness_frames(a, b)
        assert errors[0] is None and errors[2] is None
        with pytest.raises(TransversalityError) as err:
            fm.transverse_witness(fm.eta0(3), fm.eta0(3))
        assert errors[1] == str(err.value)
        assert errors[1].startswith("subspaces meet in more than a line")
        for i in (0, 2):
            assert np.array_equal(w[i], fm.transverse_witness(fm.Flag(a[i]), fm.Flag(b[i])).mat)


    def test_stacked_witness_solve_is_the_per_dimension_reference(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for n in (1, 1, 1, 4, 40):
                a, b = pj.random_so(d, rng, size=n), pj.random_so(d, rng, size=n)
                if n > 1:  # a non-transverse row and an opposite pair
                    a[0], b[-1] = b[0], a[-1][:, ::-1]
                w, errors = fm._witness_frames(a, b)
                ref, ref_errors = reference_witness_frames(a, b)
                assert errors == ref_errors
                assert w.tobytes() == ref.tobytes()


class TestGromov:
    def test_standard_pair_zero(self):
        for d in (2, 3):
            assert np.max(np.abs(fm.gromov_product(fm.eta0(d), fm.zeta0(d)))) < 1e-12

    def test_transformation_identity(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            rs = root_system(d)
            worst = 0.0
            for _ in range(300):
                g = random_group(rng, d)
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                lhs = fm.gromov_product(xi.translate(g), eta.translate(g)) - fm.gromov_product(xi, eta)
                rhs = rs.opposition(pj.iwasawa_cocycle(g, xi)) + pj.iwasawa_cocycle(g, eta)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            assert worst < 1e-9

    def test_k_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = pj.random_so(3, rng)
            xi, eta = fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng))
            assert np.max(np.abs(
                fm.gromov_product(xi.translate(k), eta.translate(k)) - fm.gromov_product(xi, eta)
            )) < 1e-10

    def test_non_transverse_raises(self):
        with pytest.raises(TransversalityError):
            fm.gromov_product(fm.eta0(3), fm.eta0(3))


class TestBMS:
    def test_standard_weight_one(self):
        assert fm.bms_weight(fm.eta0(3), fm.zeta0(3)) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_below_by_one(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            for _ in range(300):
                xi, eta = fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng))
                assert fm.bms_weight(xi, eta) >= 1.0 - 1e-12

    def test_base_change_identity(self):
        # the pair density transforms through the two boundary cocycles
        rng = np.random.default_rng(10)
        rs = root_system(3)
        o = BasePoint.origin(3)
        for _ in range(100):
            x = BasePoint(random_group(rng, 3, 0.6))
            xi, eta = fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng))
            lhs = fm.bms_weight(xi, eta, x)
            correction = math.exp(float(rs.two_rho @ (pj.busemann(xi, x, o) + pj.busemann(eta, x, o))))
            rhs = fm.bms_weight(xi, eta, o) * correction
            assert lhs == pytest.approx(rhs, rel=1e-7)


class TestRadonNikodym:
    def test_compact_gives_one(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = GroupElement(pj.random_so(3, rng), check=False)
            xi = fm.Flag(pj.random_so(3, rng))
            assert rn_derivative(k, xi) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_on_standard_flag(self):
        rs = root_system(3)
        y = np.array([0.6, -0.1, -0.5])
        g = GroupElement.from_cartan_vector(y)
        assert rn_derivative(g, fm.eta0(3)) == pytest.approx(
            math.exp(float(rs.two_rho @ y)), rel=1e-12
        )

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(12)
        g = random_group(rng, 3, 0.7)
        n = 20000
        frames = pj.random_so(3, rng, size=n)
        vals = np.array([rn_derivative(g, fm.Flag(f, check=False)) for f in frames])
        err = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0) < 3.0 * err

    def test_pushforward_change_of_variables(self):
        # reweighting uniform samples by the density reproduces integrals
        # against the translated measure
        rng = np.random.default_rng(13)
        g = random_group(rng, 2, 0.5)
        n = 40000
        frames = pj.random_so(2, rng, size=n)

        def f(flag_frames):
            # smooth gauge-invariant test function of the line direction
            c = flag_frames[:, 0, 0]
            s = flag_frames[:, 1, 0]
            return (c * s) ** 2 + 0.3 * (c**2 - s**2)

        weights = np.array([rn_derivative(g, fm.Flag(fr, check=False)) for fr in frames])
        lhs = float(np.mean(f(frames) * weights))
        moved = np.array([fm.Flag(fr, check=False).translate(g).frame for fr in frames])
        rhs = float(np.mean(f(moved)))
        scale = np.std(f(frames) * weights) / math.sqrt(n) + np.std(f(moved)) / math.sqrt(n)
        assert abs(lhs - rhs) < 4.0 * scale


class TestHopf:
    def test_identity_and_diagonal(self):
        hp = fm.hopf(GroupElement(np.eye(3), check=False))
        assert fm.dist_d(hp.pair.xi_plus, fm.eta0(3)) < 1e-12
        assert fm.dist_d(hp.pair.xi_minus, fm.zeta0(3)) < 1e-12
        assert np.allclose(hp.a_coord, 0.0)
        y = np.array([0.5, 0.1, -0.6])
        hp2 = fm.hopf(GroupElement.from_cartan_vector(y))
        assert np.allclose(hp2.a_coord, y)

    def test_right_action_translates(self):
        rng = np.random.default_rng(14)
        g = random_group(rng, 3)
        y = np.array([0.3, -0.1, -0.2])
        hp = fm.hopf(g)
        hp2 = fm.hopf(GroupElement(g.mat @ np.diag(np.exp(y)), check=False))
        assert np.max(np.abs(hp2.a_coord - hp.a_coord - y)) < 1e-9
        assert fm.dist_d(hp2.pair.xi_plus, hp.pair.xi_plus) < 1e-7

    def test_left_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            g, h = random_group(rng, 3), random_group(rng, 3)
            hp = fm.hopf(g)
            hph = fm.hopf(GroupElement(h.mat @ g.mat, check=False))
            shift = pj.iwasawa_cocycle(h, hp.pair.xi_plus)
            assert np.max(np.abs(hph.a_coord - hp.a_coord - shift)) < 1e-8
            assert fm.dist_d(hph.pair.xi_plus, hp.pair.xi_plus.translate(h)) < 1e-7

    def test_bijection_on_samples(self):
        rng = np.random.default_rng(16)
        for d in (2, 3):
            for _ in range(50):
                g = random_group(rng, d)
                rebuilt = hopf_inverse(fm.hopf(g))
                rel = np.linalg.inv(rebuilt.mat) @ g.mat
                best = min(
                    float(np.max(np.abs(rel - m))) for m in m_gauges(d)
                )
                assert best < 1e-7


class TestFixedPoints:
    def test_diagonal(self):
        plus, minus = fm.fixed_points(GroupElement(np.diag([2.0, 1.0, 0.5])))
        assert fm.dist_d(plus, fm.eta0(3)) < 1e-12
        assert fm.dist_d(minus, fm.zeta0(3)) < 1e-12

    def test_golden_eigenbasis(self):
        plus, minus = fm.fixed_points(GroupElement([[2, 1], [1, 1]]))
        v_plus = np.array([PHI, 1.0]) / math.hypot(PHI, 1.0)
        v_minus = np.array([1.0, -PHI]) / math.hypot(1.0, PHI)
        assert min(np.linalg.norm(plus.frame[:, 0] - v_plus), np.linalg.norm(plus.frame[:, 0] + v_plus)) < 1e-9
        assert min(np.linalg.norm(minus.frame[:, 0] - v_minus), np.linalg.norm(minus.frame[:, 0] + v_minus)) < 1e-9

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(40):
            # generic real matrices often have complex eigenvalues; build
            # loxodromic ones by conjugating a regular diagonal
            y = np.sort(rng.uniform(0.3, 1.2, size=3))[::-1]
            y -= y.mean()
            hh = random_group(rng, 3, 0.4)
            g = GroupElement(hh.mat @ np.diag(np.exp(y)) @ np.linalg.inv(hh.mat), check=False)
            if not is_loxodromic(g, 1e-3):
                continue
            hits += 1
            h = random_group(rng, 3)
            conj = GroupElement(h.mat @ g.mat @ np.linalg.inv(h.mat), check=False)
            plus, _ = fm.fixed_points(g)
            cplus, _ = fm.fixed_points(conj)
            assert fm.dist_d(cplus, plus.translate(h)) < 1e-6
        assert hits > 30

    def test_iterates_converge(self):
        rng = np.random.default_rng(18)
        g = GroupElement([[2, 1], [1, 1]])
        plus, _ = fm.fixed_points(g)
        cur = fm.Flag(pj.random_so(2, rng))
        for _ in range(40):
            cur = cur.translate(g)
        assert fm.dist_d(cur, plus) < 1e-9

    def test_rejects_non_loxodromic(self):
        with pytest.raises(LoxodromyError):
            fm.fixed_points(GroupElement([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solver_failure_is_a_numeric_error(self, bad):
        with pytest.raises(NumericError, match="eigenvalue solver failed"):
            fm.fixed_points(GroupElement(np.array([[bad, 0.0], [0.0, 1.0]]), check=False))


class TestFlatDistance:
    def test_zero_on_the_flat(self):
        pair = fm.TransversePair(fm.eta0(3), fm.zeta0(3))
        assert fm.flat_distance(BasePoint.origin(3), pair) < 1e-8
        x = BasePoint(GroupElement.from_cartan_vector([1.0, 0.0, -1.0]))
        assert fm.flat_distance(x, pair) < 1e-8

    def test_unipotent_translate_vs_grid_oracle(self):
        rs = root_system(3)
        pair = fm.TransversePair(fm.eta0(3), fm.zeta0(3))
        n = np.eye(3)
        n[0, 1] = 0.7
        x = BasePoint(GroupElement(n))
        val = fm.flat_distance(x, pair)
        basis = fm._zero_sum_basis(3)
        f = reference_flat_objective(np.linalg.inv(n) @ pair.witness.mat, basis, rs)
        grid = min(
            f(np.array([u, v]))
            for u in np.linspace(-2.0, 2.0, 201)
            for v in np.linspace(-2.0, 2.0, 201)
        )
        assert val <= grid + 1e-10
        assert abs(val - grid) < 1e-4

    def test_gromov_sandwich_shape(self):
        # the distance vanishes exactly when the product does, and the two
        # stay comparable on translated standard pairs
        rng = np.random.default_rng(19)
        rs = root_system(3)
        o = BasePoint.origin(3)
        for _ in range(20):
            g = random_group(rng, 3, 0.5)
            pair = fm.TransversePair(fm.eta0(3).translate(g), fm.zeta0(3).translate(g))
            dist = fm.flat_distance(o, pair)
            gro = rs.killing_norm(fm.gromov_product(pair.xi_plus, pair.xi_minus))
            assert dist <= 10.0 * gro + 1.0
            assert gro <= 10.0 * dist + 1.0


class TestFlatDistanceReference:
    """The numpy BFGS against the grid + Nelder-Mead + finite-difference solver and
    against the same convex solve on SciPy's BFGS."""

    @pytest.mark.parametrize("d, reference", [
        (2, reference_flat_distance),
        (3, reference_flat_distance),
        (2, scipy_bfgs_flat_distance),
        (3, scipy_bfgs_flat_distance),
    ], ids=["2", "3", "2-scipy_bfgs", "3-scipy_bfgs"])
    def test_matches_reference_solver(self, d, reference):
        rng = np.random.default_rng(300 + d)
        compared = 0
        for scale in (0.0, 0.3, 1.0, 2.0):
            for i in range(16):
                x = BasePoint.origin(d) if scale == 0.0 else BasePoint(random_group(rng, d, scale))
                if i % 2:
                    pair = fm.TransversePair(fm.Flag(pj.random_so(d, rng)), fm.Flag(pj.random_so(d, rng)))
                else:
                    g = random_group(rng, d, 0.6)
                    pair = fm.TransversePair(fm.eta0(d).translate(g), fm.zeta0(d).translate(g))
                new, ref = fm.flat_distance(x, pair), reference(x, pair)
                assert new <= ref + 1e-10
                assert abs(new - ref) <= 1e-9 * max(ref, 1e-3)
                compared += 1
        assert compared >= 56

    @pytest.mark.parametrize("d", [2, 3])
    def test_analytic_gradient_vs_central_differences(self, d):
        rng = np.random.default_rng(310 + d)
        rs = root_system(d)
        basis = fm._zero_sum_basis(d)
        step = 1e-6
        for _ in range(10):
            m = random_group(rng, d, 1.0).mat
            fg = fm._flat_value_and_grad(m, basis, rs)
            coords = rng.normal(size=d - 1)
            _, grad = fg(coords)
            fd = np.array([
                (fg(coords + step * e)[0] - fg(coords - step * e)[0]) / (2.0 * step)
                for e in np.eye(d - 1)
            ])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(grad))))

    def test_solves_a_pair_the_reference_stalls_on(self):
        # base point at scale 2.5: the reference stops with a non-vanishing
        # gradient; the convex solve returns the reference's last value
        rng = np.random.default_rng(13)
        x = BasePoint(random_group(rng, 3, 2.5))
        pair = fm.TransversePair(fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng)))
        with pytest.raises(NumericError, match="did not converge") as stalled:
            reference_flat_distance(x, pair)
        last = float(re.search(r"value (\S+),", str(stalled.value)).group(1))
        assert abs(fm.flat_distance(x, pair) - last) <= 1e-9 * last

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("tilted", [True, False], ids=["iteration_cap", "no_descent"])
    def test_stall_raises_with_measured_value_and_gradient(self, monkeypatch, d, tilted):
        # a tilted plane never levels off, so the iteration cap stops the solve;
        # a flat value under a nonzero gradient leaves backtracking no descent
        tilt = 1.0 if tilted else 0.0

        def plane(m, basis, rs):
            return lambda coords: (1e3 + tilt * float(coords.sum()), np.ones(d - 1))

        monkeypatch.setattr(fm, "_flat_value_and_grad", plane)
        pair = fm.TransversePair(fm.eta0(d), fm.zeta0(d))
        with pytest.raises(NumericError, match="did not converge") as stalled:
            fm.flat_distance(BasePoint.origin(d), pair)
        value, grad = map(float, re.search(r"value (\S+), gradient (\S+)$", str(stalled.value)).groups())
        expected = math.sqrt(1e3 - 200 * (d - 1) ** 2) if tilted else math.sqrt(1e3)
        assert value == pytest.approx(expected, rel=1e-12)
        assert grad == pytest.approx(math.sqrt(d - 1) / (2.0 * value), rel=1e-12)


class TestCorridors:
    def test_membership_stability(self):
        # pairs whose flat passes within r of x keep flats within 2r after
        # boundary perturbations of size below r / C_x
        from wcc.loxodromy import cx_constant

        rng = np.random.default_rng(20)
        d = 3
        o = BasePoint.origin(d)
        r = 0.25
        eps = 0.8 * r / cx_constant(o)
        checked = 0
        for _ in range(20):
            g = random_group(rng, d, 0.05)
            pair = fm.TransversePair(fm.eta0(d).translate(g), fm.zeta0(d).translate(g))
            if fm.flat_distance(o, pair) >= r:
                continue
            checked += 1
            for _ in range(5):
                p1 = _perturb_flag(pair.xi_plus, eps, rng)
                p2 = _perturb_flag(pair.xi_minus, eps, rng)
                moved = fm.TransversePair(p1, p2)
                assert fm.flat_distance(o, moved) < 2.0 * r
        assert checked >= 10


def _perturb_flag(flag, eps, rng):
    for _ in range(200):
        delta = rng.normal(size=(flag.d, flag.d)) * eps * 0.3
        q, _ = np.linalg.qr(flag.frame + delta)
        cand = fm.Flag(q, check=False)
        if fm.dist_d(cand, flag) < eps:
            return cand
    return flag
