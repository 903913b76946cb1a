import math
import re

import numpy as np
import pytest

from wcc import flagmetric as fm
from wcc import loxodromy as lx
from wcc import projections as pj
from wcc.errors import LoxodromyError, NumericError, PreconditionError, TransversalityError, WccError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import criterion4_elements, random_group
from flagmetric_reference import (
    hopf_inverse,
    is_transverse,
    reference_witness_frames,
    rn_derivative,
    transverse_witness,
    witness,
)
from flat_reference import (
    _zero_sum_basis,
    decimal_sl2_flat_distance,
    flat_value_and_grad,
    reference_flat_distance,
    reference_flat_minimum,
    reference_flat_objective,
    scaled_bfgs_flat_minimum,
    scipy_bfgs_flat_distance,
    stacked_flat_rows,
)
from projection_reference import busemann, is_loxodromic

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def split_measured(message):
    """A witness refusal message, and the singular value it reports (0.0 where none)."""
    head, _, value = message.partition(" (d-th singular value ")
    return head, float(value.rstrip(")") or 0.0)


def one_pair_witness(plus, minus):
    """The witness of one frame pair and its refusal message (None where it has one): the
    library's ``_sl3_witness`` of the lines and plane normals at d = 3, and at d = 2 the
    test reference ``transverse_witness``."""
    if plus.shape[-1] == 3:
        w, error = fm._sl3_witness(*(f[:, col].tolist() for f in (plus, minus) for col in (0, 2)))
        return (None if error else np.array(w)), error
    try:
        return transverse_witness(fm.Flag._of_so_frame(plus), fm.Flag._of_so_frame(minus)).mat, None
    except TransversalityError as exc:
        return None, str(exc)


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def near_coplanar_frames(rng, s):
    """SO(3) frames whose second subspaces give the system [p_1 p_2 -m_1 -m_2] the d-th
    singular value s, s^2 = 1 - cos(theta) for the angle theta between the normals p_3, m_3."""
    plus = pj.random_so(3, rng)
    axis = plus @ np.array([0.6, 0.8, 0.0])  # in the plane of p_1 and p_2
    theta = 2.0 * math.asin(s / math.sqrt(2.0))
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    turn = np.eye(3) + math.sin(theta) * cross + (1.0 - math.cos(theta)) * cross @ cross
    spin = np.eye(3)
    spin[:2, :2] = rotation(1.0)  # keeps m_3 = turn p_3 and moves m_1 off the line p_1
    return plus, turn @ plus @ spin


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

    @pytest.mark.parametrize("g", [np.eye(3), np.stack([np.eye(2)] * 4), [[1.0, 1.0]]])
    def test_translate_refuses_a_matrix_of_another_shape(self, g):
        with pytest.raises(PreconditionError, match="a flag of R\\^2 needs a 2 x 2 matrix"):
            fm.eta0(2).translate(g)

    @pytest.mark.parametrize("call", [
        lambda xi, eta: fm.TransversePair(xi, eta), fm.dist_d, fm.dist_delta, fm.gromov_product, fm.bms_weight,
    ], ids=["TransversePair", "dist_d", "dist_delta", "gromov_product", "bms_weight"])
    def test_flags_of_two_dimensions_are_refused(self, call):
        for xi, eta, dims in ((fm.eta0(2), fm.zeta0(3), "R^2 and R^3"), (fm.eta0(3), fm.eta0(2), "R^3 and R^2"),
                              (fm.Flag._of_lines([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), fm.zeta0(2), "R^3 and R^2")):
            with pytest.raises(PreconditionError, match=f"one dimension, got {re.escape(dims)}$"):
                call(xi, eta)


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
                w = witness(pair)
                assert abs(np.linalg.det(w.mat) - 1.0) < 1e-9
                assert fm.dist_d(fm.eta0(d).translate(w), pair.xi_plus) < 1e-7
                assert fm.dist_d(fm.zeta0(d).translate(w), pair.xi_minus) < 1e-7

    def test_non_transverse_pair_rejected(self):
        with pytest.raises(TransversalityError):
            fm.TransversePair(fm.eta0(3), fm.eta0(3))

    def test_witnesses_fail_pair_by_pair(self):
        # flat_distance refuses pair by pair, with the error class and message of the witness, at
        # the origin, a float and an integer base point, and the x at which the seeded pair of
        # test_refuses_a_distance_beyond_float64_resolution is refused (e = 7)
        rng = np.random.default_rng(9)
        a, b = pj.random_so(3, rng, size=5), pj.random_so(3, rng, size=5)
        a[1], b[1] = np.eye(3), np.eye(3)  # the second and third forward subspaces meet in a plane
        a[3], b[3] = near_coplanar_frames(np.random.default_rng(11), 0.99e-7)  # transverse, refused
        seeded = np.random.default_rng(1)
        a[4], b[4] = (fm.Flag(pj.random_so(3, seeded)).frame for _ in range(2))
        far = BasePoint(GroupElement.from_cartan_vector(np.array([7, -3.5, -3.5]) * math.log(10)))
        points = (BasePoint.origin(3), BasePoint(random_group(rng, 3, 0.5)),
                  BasePoint(GroupElement.from_integer([[1, 1, 0], [0, 1, 0], [0, 0, 1]])), far)
        with pytest.raises(TransversalityError) as err:
            transverse_witness(fm.eta0(3), fm.eta0(3))
        with pytest.raises(TransversalityError, match="not transverse"):
            fm.TransversePair(fm.Flag(a[1]), fm.Flag(b[1]))
        for x in points:
            rows = []
            for plus, minus in zip(a, b):  # a gauge of 1 leaves the refusal to the witness
                try:
                    rows.append(fm.flat_distance(x, fm.TransversePair._of_flags(fm.Flag(plus), fm.Flag(minus), 1.0)))
                except WccError as exc:
                    rows.append(exc)
            assert isinstance(rows[1], TransversalityError) and str(rows[1]) == str(err.value)
            assert str(rows[1]).startswith("subspaces meet in more than a line")
            assert isinstance(rows[3], TransversalityError)
            assert str(rows[3]).startswith("subspaces meet in more than a line (d-th singular value 9.9")
            if x is not far:
                assert all(isinstance(rows[i], float) for i in (0, 2, 4))
        assert isinstance(rows[4], NumericError) and "beyond float64 resolution" in str(rows[4])

    def test_stacked_witness_solve_is_the_per_dimension_reference(self):
        # the closed form against one SVD per subspace dimension, row by row on the stacks
        # the stacked witness took: the same columns up to their signs and the same
        # refusals, whose measured values differ only in rounding (identical planes read 0
        # here and about 1e-16 from the SVD)
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for n in (1, 1, 1, 4, 40):
                a, b = pj.random_so(d, rng, size=n), pj.random_so(d, rng, size=n)
                if n > 1:  # a non-transverse row and an opposite pair
                    a[0], b[-1] = b[0], a[-1][:, ::-1]
                w, errors = zip(*map(one_pair_witness, a, b))
                ref, ref_errors = reference_witness_frames(a, b)
                for error, ref_error in zip(errors, ref_errors, strict=True):
                    assert (error is None) == (ref_error is None)
                    if error:
                        (head, value), (ref_head, ref_value) = map(split_measured, (error, ref_error))
                        assert head == ref_head and abs(value - ref_value) <= 1e-12
                good = [error is None for error in errors]
                w = np.array([v for v in w if v is not None])
                signs = np.sign(np.vecdot(w, ref[good], axis=1))[:, None, :]
                assert np.max(np.abs(w * signs - ref[good])) <= 1e-12

    @pytest.mark.parametrize("s, refused", [(0.99e-7, True), (1.01e-7, False)])
    def test_witness_threshold_is_the_reference_threshold(self, s, refused):
        # second subspaces whose system [p_1 p_2 -m_1 -m_2] has d-th singular value s,
        # s^2 = 1 - cos(theta) for the angle theta between the normals p_3 and m_3
        plus, minus = near_coplanar_frames(np.random.default_rng(11), s)
        w, error = one_pair_witness(plus, minus)
        ref, ref_errors = reference_witness_frames(plus[None], minus[None])
        assert (error is not None) == (ref_errors[0] is not None) == refused
        if refused:
            assert error.startswith("subspaces meet in more than a line (d-th singular value 9.9")
        else:  # unit columns at an angle of about s: the witness is ill-conditioned
            assert np.linalg.det(w) == pytest.approx(1.0, rel=1e-6)

    def test_witness_of_rank_four_is_refused(self):
        rng = np.random.default_rng(12)
        pair = fm.TransversePair(fm.Flag(pj.random_so(4, rng)), fm.Flag(pj.random_so(4, rng)))
        with pytest.raises(PreconditionError, match="d = 2 and 3"):
            fm.flat_distance(BasePoint.origin(4), pair)


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

    @pytest.mark.parametrize("e", [1e-6, 1e-7])
    def test_base_point_near_the_origin_is_not_the_origin(self, e):
        # the product at x is the product at o of the pair carried by h_x^-1, however
        # close h_x is to the identity
        rng = np.random.default_rng(14)
        xi, eta = fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng))
        x = BasePoint(GroupElement.from_cartan_vector([e, 0.0, -e]))
        hinv = x.h_inverse
        moved = fm.gromov_product(xi.translate(hinv), eta.translate(hinv))
        assert np.array_equal(fm.gromov_product(xi, eta, x), moved)
        assert not np.array_equal(moved, fm.gromov_product(xi, eta))


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
            correction = math.exp(float(rs.two_rho @ (busemann(xi, x, o) + busemann(eta, x, o))))
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

    @staticmethod
    def stacked_rn_derivative(g, frames):
        # rn_derivative of every frame of a stack, from one stacked Iwasawa cocycle
        vals = np.exp(-(pj.iwasawa_batch(g.inverse().mat, frames) @ root_system(g.d).two_rho))
        for f, val in zip(frames[:5], vals[:5]):
            assert val == pytest.approx(rn_derivative(g, fm.Flag(f, check=False)), rel=1e-12)
        return vals

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(12)
        g = random_group(rng, 3, 0.7)
        n = 20000
        frames = pj.random_so(3, rng, size=n)
        vals = self.stacked_rn_derivative(g, frames)
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

        weights = self.stacked_rn_derivative(g, frames)
        lhs = float(np.mean(f(frames) * weights))
        moved = pj.flag_frame_action(g.mat, frames)  # Flag.translate, stacked
        for fr, mv in zip(frames[:5], moved[:5]):
            np.testing.assert_allclose(mv, fm.Flag(fr, check=False).translate(g).frame, rtol=0, atol=1e-12)
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


class TestFlagLines:
    """A flag's ``lines`` (its unit line and, at d = 3, its unit plane normal) and its frame."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_frame_built_lines_are_the_first_and_last_columns(self, d):
        rng = np.random.default_rng(41)
        for flag in (fm.Flag(pj.random_so(d, rng)), fm.eta0(d), fm.zeta0(d).translate(random_group(rng, d, 0.5))):
            line, last = flag.lines
            assert line == flag.frame[:, 0].tolist() and last == flag.frame[:, -1].tolist()

    def test_line_built_frame_is_built_when_read(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            frame = fm.Flag(pj.random_so(3, rng)).frame
            line, normal = frame[:, 0].tolist(), frame[:, 2].tolist()
            flag = fm.Flag._of_lines(line, normal)
            assert "frame" not in vars(flag) and flag.lines == (line, normal)
            assert np.array_equal(flag.frame, np.array([line, fm._cross(normal, line), normal]).T)
            np.testing.assert_allclose(flag.frame, frame, rtol=0, atol=1e-15)
            assert flag.d == 3 and flag.lines == (line, normal)

    def test_line_built_pair_gives_the_frame_built_distance(self):
        rng = np.random.default_rng(43)
        o = BasePoint.origin(3)
        x = BasePoint(GroupElement.from_cartan_vector([0.4, -0.1, -0.3]))
        for _ in range(10):
            pair = fm.TransversePair(fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng)))
            lined = fm.TransversePair._of_flags(*(fm.Flag._of_lines(*flag.lines) for flag in
                                                  (pair.xi_plus, pair.xi_minus)), pair.delta_value)
            for base in (o, x):
                assert fm.flat_distance(base, lined) == fm.flat_distance(base, pair)
            assert all("frame" not in vars(flag) for flag in (lined.xi_plus, lined.xi_minus))


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
        basis = _zero_sum_basis(3)
        f = reference_flat_objective(np.linalg.inv(n) @ witness(pair).mat, basis, rs)
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
    """The d = 3 Newton solve (and the d = 2 closed form) against the grid + Nelder-Mead +
    finite-difference solver and against the same convex objective on SciPy's BFGS."""

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
        basis = _zero_sum_basis(d)
        step = 1e-6
        for _ in range(10):
            m = random_group(rng, d, 1.0).mat
            fg = flat_value_and_grad(m, basis, rs)
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

    @pytest.mark.parametrize("d", [3])
    def test_analytic_hessian_vs_central_differences(self, d):
        # central differences of the exact gradient, on rows away from and on a flat
        rng = np.random.default_rng(320 + d)
        basis, k = _zero_sum_basis(d), root_system(d).killing_scale
        step = 1e-6

        def grad(m, coords):
            return np.array(fm._flat_row(m * np.exp(coords @ basis))[1])

        for _ in range(10):
            m = random_group(rng, d, 1.0).mat
            coords = rng.normal(size=d - 1)
            hess = fm._flat_row(m * np.exp(coords @ basis))[2]
            fd = np.array([(grad(m, coords + step * e) - grad(m, coords - step * e)) / (2.0 * step)
                           for e in np.eye(d - 1)])
            assert np.max(np.abs(hess - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(hess))))
        # the kernel's constant column of B and the coefficients of Y = B^T c that Newton
        # writes out are the zero-sum basis as it is rounded
        assert basis[:, 0].tolist() == [fm._R2, fm._R6]
        assert basis.tolist() == [[fm._R2, -fm._R2, 0.0], [fm._R6, fm._R6, -2.0 * fm._R6]]
        # on a flat through o every a_i - a_j is 0, where phi(x) = x coth x takes its limit 1
        for m in pj.random_so(d, rng, size=5):
            assert np.max(np.abs(fm._flat_row(m)[2] - 2.0 * k * np.eye(d - 1))) <= 1e-14 * k

    @pytest.mark.parametrize("d", [3])
    def test_one_row_kernel_is_the_stacked_kernel(self, d):
        # value, gradient, Hessian and spread against the stacked kernel Newton ran on
        # before, row by row; a zero singular value carries no value in either
        rng = np.random.default_rng(330 + d)
        basis, k = _zero_sum_basis(d), root_system(d).killing_scale
        ms = np.array([random_group(rng, d, 1.5).mat for _ in range(20)])
        for m, *stacked, ok in zip(ms, *stacked_flat_rows(ms, basis, k), strict=True):
            assert ok
            for got, want in zip(fm._flat_row(m), stacked, strict=True):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        singular = np.zeros((d, d))
        singular[0, 0] = 1.0
        assert fm._flat_row(singular) is None and not stacked_flat_rows(singular[None], basis, k)[-1][0]

    @pytest.mark.parametrize("d", [3])
    @pytest.mark.parametrize("tilted", [True, False], ids=["iteration_cap", "no_descent"])
    def test_stall_raises_with_measured_value_and_gradient(self, monkeypatch, d, tilted):
        # a tilted plane never levels off, so the iteration cap stops the solve;
        # a flat value under a nonzero gradient leaves backtracking no descent
        tilt = 1.0 if tilted else 0.0
        k = root_system(d).killing_scale
        curvature = 2.0 * k * np.diag(np.arange(1.0, d))

        def plane(m):
            coords = np.log(np.diagonal(m)) @ _zero_sum_basis(d).T  # m = exp(Y) at m = I
            return 1e3 + tilt * float(coords.sum()), np.ones(d - 1), curvature, 0.0

        monkeypatch.setattr(fm, "_flat_row", plane)
        with pytest.raises(NumericError, match="did not converge") as stalled:
            fm._flat_minimum(np.eye(d))
        value, grad = map(float, re.search(r"value (\S+), gradient (\S+)$", str(stalled.value)).groups())
        # each Newton step solves H p = -g: p_i = -1 / (2k i), lowering the tilted plane by
        # sum_i 1 / (2k i) in each of the 200 (d - 1) iterations
        descent = 200 * (d - 1) * sum(1.0 / (2.0 * k * i) for i in range(1, d))
        expected = math.sqrt(1e3 - descent) if tilted else math.sqrt(1e3)
        assert value == pytest.approx(expected, rel=1e-12)
        assert grad == pytest.approx(math.sqrt(d - 1) / (2.0 * value), rel=1e-12)

    def test_refuses_a_distance_beyond_float64_resolution(self):
        # one seeded pair seen from x = exp(diag(e, -e/2, -e/2) ln 10).  The float64 SVD
        # resolves s_3 of m exp(Y) only to eps s_1 / s_3 relative at the minimum: 1.5e-12
        # at e = 2, 1.6e-9 at e = 4, 1.6e-6 at e = 6 and 5.1e-5 at e = 7.  Below
        # FLAT_RESOLUTION Newton agrees with the BFGS it replaced within that ratio; above,
        # it refuses where the BFGS returned 56.5731 at e = 8 (56.5757 at 60 digits)
        rng = np.random.default_rng(1)
        pair = fm.TransversePair(fm.Flag(pj.random_so(3, rng)), fm.Flag(pj.random_so(3, rng)))
        for e, resolution in ((2, 2e-12), (4, 2e-9), (6, 2e-6), (7, None), (8, None), (10, None)):
            x = BasePoint(GroupElement.from_cartan_vector(np.array([e, -e / 2, -e / 2]) * math.log(10)))
            if resolution:
                old = scaled_bfgs_flat_minimum(x.h_inverse @ witness(pair).mat)
                assert abs(fm.flat_distance(x, pair) - old) <= resolution * old, e
                continue
            with pytest.raises(NumericError, match="beyond float64 resolution") as refused:
                fm.flat_distance(x, pair)
            ratio = float(re.search(r"s_1/s_d (\S+)$", str(refused.value)).group(1))
            assert np.finfo(float).eps * ratio > fm.FLAT_RESOLUTION, e

    def test_refuses_a_zero_s_d_with_the_singular_values_it_measured(self):
        # the SVD of this witness conjugate at Y = 0 returns s_3 = 0.0: no Newton step can
        # start, so the refusal names that s_1 and s_d and no distance (not the 1e6 of the
        # penalty that stands in for F where s_d = 0)
        rng = np.random.default_rng(3)
        plus, minus = pj.random_so(3, rng), pj.random_so(3, rng)
        x = BasePoint(GroupElement.from_cartan_vector([40, 0, -40]))
        s = np.linalg.svd(x.h_inverse @ np.array(one_pair_witness(plus, minus)[0]))[1]
        assert s[0] > 1e17 and s[-1] == 0.0
        with pytest.raises(NumericError) as refused:
            fm.flat_distance(x, fm.TransversePair(fm.Flag(plus), fm.Flag(minus)))
        assert str(refused.value) == (
            f"flat distance beyond float64 resolution: s_1 {s[0]:.3e}, s_d {s[-1]:.3e}")


def certificate_pair(g, x):
    """The pair whose flat a certificate of g at x measures: its two angular flags."""
    return fm.TransversePair(*pj.angular_points(g, x))


class TestFlatDistanceOracle:
    """The closed form at d = 2 and Newton's method at d = 3 against the BFGS loops that
    ran before them."""

    def test_sl2_closed_form_matches_the_bfgs(self):
        # every fourth pair at a random float base point, the others at the three base
        # points of the stacked flat-bound tests.  The BFGS is itself only as accurate as
        # its stop test (|grad F| <= FLAT_TOL) and its SVD allow; where it is further from
        # the 50-digit closed form than the tolerance, the float closed form must be nearer.
        def close(a, b):
            return abs(a - b) <= (1e-12 * b if b > 1e-6 else 1e-15)

        rng = np.random.default_rng(2000)
        fixed = [BasePoint.origin(2), BasePoint(GroupElement.from_integer([[2, 1], [1, 1]])),
                 BasePoint(GroupElement.from_cartan_vector([0.3, -0.3]))]
        oracle_off = 0
        for i in range(2000):
            x = fixed[i % 4 - 1] if i % 4 else BasePoint(random_group(rng, 2, rng.uniform(0.1, 2.0)))
            pair = fm.TransversePair(fm.Flag(pj.random_so(2, rng)), fm.Flag(pj.random_so(2, rng)))
            hinv = x.h_inverse
            new = fm.flat_distance(x, pair)
            ref = reference_flat_minimum(hinv @ witness(pair).mat)
            exact = decimal_sl2_flat_distance(hinv, pair.xi_plus.frame[:, 0], pair.xi_minus.frame[:, 0])
            assert close(new, exact), (i, new, exact)
            if not close(ref, exact):
                oracle_off += 1
                assert abs(new - exact) < abs(ref - exact), (i, new, ref, exact)
            else:
                assert close(new, ref), (i, new, ref)
        assert oracle_off <= 20

    def test_sl3_newton_matches_the_bfgs(self):
        # both BFGS loops, from the identity and from I / (2k), at three base points.  The
        # log-SVD rounds v by a few eps absolute, so the tolerance has a floor of 1e-14.  A
        # BFGS loop stops at |grad F| <= 1e-8 and so sits above the minimum by up to
        # |grad F|^2 / (8kv), which Newton's value does not: where a loop is off by more
        # than the tolerance, SciPy's BFGS with a 1e-10 gradient tolerance must be nearer
        # to Newton's value than to the loop's
        def close(a, b):
            return abs(a - b) <= 1e-12 * max(b, 1e-2)

        off = 0
        for x in (BasePoint.origin(3), BasePoint(GroupElement.from_cartan_vector(np.linspace(0.02, -0.02, 3))),
                  BasePoint(GroupElement.from_cartan_vector(np.linspace(0.3, -0.3, 3)))):
            hinv = x.h_inverse
            for g in criterion4_elements()[3]:
                pair = certificate_pair(g, x)
                new = fm.flat_distance(x, pair)
                for ref in (reference_flat_minimum(hinv @ witness(pair).mat),
                            scaled_bfgs_flat_minimum(hinv @ witness(pair).mat)):
                    if not close(new, ref):
                        off += 1
                        tight = scipy_bfgs_flat_distance(x, pair, 1e-10)
                        assert abs(new - tight) < abs(ref - tight), (new, ref, tight)
        assert off <= 4
    @pytest.mark.parametrize("sine, refused", [(0.99e-12, True), (1.01e-12, False)])
    def test_singular_witness_refused_in_both_paths(self, sine, refused):
        # flags through e_1 and a line at angle asin(sine) to it: transverse, but
        # |det[xi_1 eta_1]| = sine is just below (or above) the witness's 1e-12.  They are
        # the fixed flags of g = (2 b; 0 1/2), whose float flat-bound row is the second path
        cos = math.sqrt(1.0 - sine * sine)
        pair = fm.TransversePair(fm.eta0(2), fm.Flag([[cos, -sine], [sine, cos]]))
        g = np.array([[2.0, -1.5 * cos / sine], [0.0, 0.5]])  # (g - 1/2)(cos, sine) = 0
        o = BasePoint.origin(2)
        plus, minus = fm.fixed_points(GroupElement(g))
        assert abs(np.linalg.det(np.array([plus.frame[:, 0], minus.frame[:, 0]])) / sine - 1.0) < 1e-3
        row = lx._flat_bound_rows(g[None], o)[0]
        if refused:
            for call in (lambda: fm.flat_distance(o, pair), lambda: witness(pair)):
                with pytest.raises(TransversalityError, match="^witness frame is singular$"):
                    call()
            assert isinstance(row, TransversalityError)
            assert str(row) == "witness frame is singular"
        else:
            assert fm.flat_distance(o, pair) > 30.0
            assert isinstance(row, float)


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
