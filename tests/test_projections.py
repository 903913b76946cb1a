import decimal
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcc import flagmetric as fm
from wcc import lattice as lt
from wcc import projections as pj
from wcc.errors import NumericError, PreconditionError, RegularityError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group, random_group_batch
from projection_reference import (
    busemann,
    cartan_distance,
    cofactor_inverse,
    dist_x,
    exact_compound,
    jordan_log_bounds,
    reference_cartan,
    reference_jordan,
    sixty_digit_logs,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)
EPS = np.finfo(float).eps


def det_one_completion(a: int, b: int):
    """An integer matrix [[a, b], [c, d]] of determinant 1 with |c| <= |a|, |d| <= |b|,
    or None when gcd(a, b) != 1 (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    if abs(r0) != 1:
        return None
    return [[a, b], [-t0 * r0, s0 * r0]]


@st.composite
def det_one_matrices(draw, d: int, entry_max: int = 10**9):
    """Integer det-one matrices with entries up to entry_max: a completed coprime row
    for d = 2, a product of two such 2x2 blocks acting on rows (0, 1) and (1, 2) for d = 3."""
    block_max = entry_max if d == 2 else math.isqrt(entry_max // 2)
    blocks = []
    for _ in range(d - 1):
        a, b = draw(st.integers(-block_max, block_max)), draw(st.integers(-block_max, block_max))
        block = det_one_completion(a, b)
        if block is None:
            block = [[1, b], [0, 1]]
        blocks.append(np.array(block, dtype=object))
    if d == 2:
        return blocks[0].tolist()
    first, second = np.eye(3, dtype=int).astype(object), np.eye(3, dtype=int).astype(object)
    first[:2, :2], second[1:, 1:] = blocks
    return (first @ second).tolist()


class TestCartan:
    def test_identity_and_rotations(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            assert np.allclose(pj.cartan_vector(GroupElement(np.eye(d), check=False)), 0.0)
            k = pj.random_so(d, rng)
            assert np.max(np.abs(pj.cartan_vector(GroupElement(k, check=False)))) < 1e-12

    def test_unipotent_golden_ratio(self):
        g = GroupElement([[1, 1], [0, 1]])
        k, a, l = pj.cartan_project(g)
        assert a == pytest.approx([math.log(PHI), -math.log(PHI)], abs=1e-12)

    def test_reassembly_and_frames(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            for _ in range(30):
                g = random_group(rng, d)
                k, a, l = pj.cartan_project(g)
                err = np.max(np.abs(k @ np.diag(np.exp(a)) @ l.T - g.mat))
                assert err < 1e-8
                assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.det(l) == pytest.approx(1.0, abs=1e-10)
                assert np.all(np.diff(a) <= 1e-12)
                assert abs(a.sum()) < 1e-10

    def test_inverse_is_opposition(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            rs = root_system(d)
            for _ in range(100):
                g = random_group(rng, d)
                a_inv = pj.cartan_vector(g.inverse())
                assert np.max(np.abs(a_inv - rs.opposition(pj.cartan_vector(g)))) < 1e-10

    def test_comparison_lemma(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            rs = root_system(d)
            for _ in range(200):
                h = random_group(rng, d)
                hp = random_group(rng, d, scale=0.3)
                left = rs.killing_norm(
                    pj.cartan_vector(GroupElement(h.mat @ hp.mat, check=False))
                    - pj.cartan_vector(h)
                )
                right = rs.killing_norm(
                    pj.cartan_vector(GroupElement(hp.mat @ h.mat, check=False))
                    - pj.cartan_vector(h)
                )
                bound = rs.killing_norm(pj.cartan_vector(hp))
                assert left <= bound + 1e-9
                assert right <= bound + 1e-9

    def test_base_point_comparison(self):
        rng = np.random.default_rng(4)
        rs = root_system(3)
        for _ in range(100):
            g = random_group(rng, 3)
            x = BasePoint(random_group(rng, 3, scale=0.4))
            y = BasePoint(random_group(rng, 3, scale=0.4))
            gap = rs.killing_norm(pj.cartan_at(g, x) - pj.cartan_at(g, y))
            assert gap <= 2.0 * dist_x(x, y) + 1e-9


class TestJordan:
    def test_unipotent(self):
        lam, lox = pj.jordan_project(GroupElement([[1, 1], [0, 1]]))
        assert np.allclose(lam, 0.0)
        assert not lox

    def test_diagonal(self):
        lam, lox = pj.jordan_project(GroupElement(np.diag([2.0, 1.0, 0.5])))
        assert lam == pytest.approx([math.log(2), 0.0, -math.log(2)], abs=1e-12)
        assert lox

    def test_golden_trace_three(self):
        lam, lox = pj.jordan_project(GroupElement([[2, 1], [1, 1]]))
        assert lam == pytest.approx([2 * math.log(PHI), -2 * math.log(PHI)], abs=1e-12)
        assert lox

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(100):
                g = random_group(rng, d)
                h = random_group(rng, d)
                conj = GroupElement(h.mat @ g.mat @ np.linalg.inv(h.mat), check=False)
                assert np.max(np.abs(pj.jordan_project(conj)[0] - pj.jordan_project(g)[0])) < 1e-8

    def test_power_limit(self):
        rng = np.random.default_rng(6)
        rs = root_system(3)
        hits = 0
        for _ in range(40):
            h = random_group(rng, 3, scale=0.2)
            # keep the spectral gaps bounded away from zero so the power
            # iteration has converged by n = 32
            gaps = rng.uniform(0.15, 0.4, size=2)
            y = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
            y -= y.mean()
            g = GroupElement(h.mat @ np.diag(np.exp(y)) @ np.linalg.inv(h.mat), check=False)
            lam, lox = pj.jordan_project(g)
            if not lox:
                continue
            hits += 1
            g32 = np.linalg.matrix_power(g.mat, 32)
            a32 = pj.cartan_vector(GroupElement(g32, check=False)) / 32.0
            assert rs.killing_norm(a32 - lam) < 0.05 * rs.killing_norm(a32)
        assert hits > 20


class TestUnimodularCheck:
    def test_rejects_large_determinant(self):
        with pytest.raises(PreconditionError, match="determinant 1"):
            GroupElement([[1e6, 0], [0, 5]])

    def test_accepts_large_unipotent(self):
        assert GroupElement([[1, 1e6], [0, 1]]).mat[0, 1] == 1e6

    def test_accepts_large_cartan_products(self):
        # float determinants of such products err by far more than 1e-9 * max|entry|
        rng = np.random.default_rng(17)
        beyond_entry_scale = 0
        for d in (2, 3):
            for scale in (14.0, 20.0, 26.0, 32.0):
                for _ in range(5):
                    y = rng.normal(size=d)
                    y = np.sort(y - y.mean())[::-1]
                    y *= scale / y[0]
                    m = pj.random_so(d, rng) @ np.diag(np.exp(y)) @ pj.random_so(d, rng)
                    assert np.max(np.abs(m)) > 1e5
                    GroupElement(m)
                    beyond_entry_scale += abs(np.linalg.det(m) - 1.0) > 1e-9 * np.max(np.abs(m))
        assert beyond_entry_scale >= 10

    def test_same_verdicts_and_values_as_np_linalg(self):
        # the check without np.linalg's wrappers: the determinant and the Hadamard bound of
        # np.linalg.det and np.linalg.norm bit for bit, so the same matrices pass and fail
        rng = np.random.default_rng(2707)
        refused = 0
        for d in (2, 3, 4):
            for scale in (0.0, 1e-9, 1e-7, 1e-3):
                for _ in range(40):
                    m = random_group(rng, d, 3.0).mat
                    m[0] *= 1.0 + scale * rng.normal()
                    det = float(np.linalg.det(m))
                    hadamard = float(np.prod(np.linalg.norm(m, axis=0)))
                    assert float(pj._GUFUNC["det"](m)) == det
                    want = abs(det - 1.0) <= pj._DET_TOL * max(1.0, hadamard)
                    try:
                        GroupElement(m)
                    except PreconditionError as exc:
                        assert not want and str(exc) == f"matrix must have determinant 1, got {det}"
                        refused += 1
                    else:
                        assert want
        assert 40 < refused < 480


class TestIntegerStacks:
    MATS = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]], [[1, 1], [0, 1]],
            [[-1, 5], [0, -1]], [[2, 1], [1, 1]], [[5, 1], [-1, 0]], [[-7, 3], [-12, 5]],
            [[99, 70], [41, 29]], [[1000, 999], [1001, 1000]]]

    @staticmethod
    def log_top_root(x: int) -> float:
        """Log of the larger root of z^2 - x z + 1, to 40 digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            x = decimal.Decimal(x)
            return float(((x + (x * x - 4).sqrt()) / 2).ln()) if x > 2 else 0.0

    def test_match_exact_values_and_flags(self):
        cartan = pj.cartan_vector(np.array(self.MATS))
        jordan, lox = pj.jordan_project(np.array(self.MATS))
        assert cartan.shape == jordan.shape == (len(self.MATS), 2)
        for m, a, lam, is_lox in zip(self.MATS, cartan, jordan, lox):
            mass = sum(x * x for row in m for x in row)
            s = 0.5 * self.log_top_root(mass)
            assert a == pytest.approx([s, -s], abs=1e-14)
            ell = self.log_top_root(abs(m[0][0] + m[1][1]))
            assert lam == pytest.approx([ell, -ell], abs=1e-14)
            assert bool(is_lox) == pj.jordan_project(GroupElement.from_integer(m))[1]

    def test_rotations_are_exactly_zero(self):
        cartan = pj.cartan_vector(np.array(self.MATS[:3]))
        assert np.all(cartan == 0.0)

    def test_cubic_discriminant(self):
        """Companion matrices of x^3 - tr x^2 + c1 x - 1, conjugated so that every
        principal minor is in play, against the textbook cubic discriminant."""
        h = np.array([[1, 2, 0], [0, 1, 1], [1, 3, 2]], dtype=object)
        h_inv = pj._integer_inverse(h)
        mats, want = [], []
        for tr in range(-6, 7):
            for c1 in range(-6, 7):
                b, c, d = -tr, c1, -1
                want.append(18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2)
                mats.append(h @ np.array([[0, 0, 1], [1, 0, -c1], [0, 1, tr]], dtype=object) @ h_inv)
        stack = np.array(mats, dtype=np.int64)
        assert pj._int_char_discriminant(stack).tolist() == want
        assert pj.jordan_project(stack)[1].tolist() == [w > 0 for w in want]
        assert want[(0 + 6) * 13 + (-1 + 6)] == -23  # x^3 - x - 1
        assert want[(3 + 6) * 13 + (3 + 6)] == 0  # (x - 1)^3
        cycle = np.array([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
        assert pj._int_char_discriminant(cycle)[0] == -27

    def test_reject_entries_beyond_2_30(self):
        # det 1, but the int64 mass 4 * 9e18 would wrap
        big = [[3_000_000_001, 3_000_000_000], [1, 1]]
        assert pj.cartan_vector(GroupElement.from_integer(big))[0] == pytest.approx(22.17, abs=0.01)
        for kernel in (pj.cartan_vector, pj.jordan_project):
            with pytest.raises(PreconditionError, match="2\\^30"):
                kernel(np.array([big]))

    @PROPERTY
    @given(st.lists(det_one_matrices(2), min_size=1, max_size=6),
           st.lists(det_one_matrices(3), min_size=1, max_size=6))
    def test_stacks_match_group_element_path(self, mats2, mats3):
        """Stack rows are the GroupElement rows bit for bit.  Both agree with the
        reference's per-element float solves within those solves' own error: the
        small singular value carries eps * sigma_max (so eps * sigma_max / sigma_min on
        its log, up to the reference's 1e10 switch to the adjugate), the eigenvalues
        eps * |M|^2 / gap at d = 2 and, at d = 3, that Cartan bound times the condition
        number of the eigenvector matrix (Bauer-Fike)."""
        for mats in (mats2, mats3):
            stack = np.array(mats, dtype=np.int64)
            cartan = pj.cartan_vector(stack)
            jordan, lox = pj.jordan_project(stack)
            for m, a, lam, is_lox in zip(mats, cartan, jordan, lox):
                want_a, want_lam = reference_cartan(m), reference_jordan(m)
                g_lam, g_lox = pj.jordan_project(GroupElement.from_integer(m))
                assert pj.cartan_vector(GroupElement.from_integer(m)).tobytes() == a.tobytes()
                assert g_lam.tobytes() == lam.tobytes() and g_lox == bool(is_lox)
                if len(m) == 3:
                    ratio = math.exp(a[0] - a[2])
                    assert np.max(np.abs(a - want_a)) <= 4 * EPS * ratio + 1e-14
                    if is_lox:
                        cond = np.linalg.cond(np.linalg.eig(np.array(m, dtype=float))[1])
                        assert np.max(np.abs(lam - want_lam)) <= 4 * EPS * ratio * cond + 1e-14
                    continue
                ratio = math.exp(2.0 * a[0])
                assert np.max(np.abs(a - want_a)) <= 4 * EPS * min(ratio, 1e10) + 1e-14
                if is_lox:
                    mass = float(sum(x * x for row in m for x in row))
                    top = math.exp(lam[0])
                    tol = 4 * EPS * mass / (top - 1.0 / top) * min(top, 1e5) + 1e-14
                    assert np.max(np.abs(lam - want_lam)) <= tol

    def test_group_elements_are_exact_one_row_stacks(self):
        """Integer elements take the integer-stack kernels: their Cartan and Jordan rows
        are the stack rows bit for bit and match 40-digit references, up to 2^30."""
        rng = np.random.default_rng(2030)
        mats = []
        while len(mats) < 400:
            a, b = (int(x) for x in rng.integers(-2**30, 2**30, size=2, endpoint=True))
            m = det_one_completion(a, b)
            if m is not None:
                mats.append(m)
        stack = np.array(mats, dtype=np.int64)
        cartan = pj.cartan_vector(stack)
        jordan, lox = pj.jordan_project(stack)
        for m, a, lam, is_lox in zip(mats, cartan, jordan, lox):
            g = GroupElement.from_integer(m)
            g_lam, g_lox = pj.jordan_project(g)
            assert pj.cartan_vector(g).tobytes() == a.tobytes()
            assert pj.cartan_project(g)[1].tobytes() == a.tobytes()
            assert g_lam.tobytes() == lam.tobytes() and g_lox == bool(is_lox)
            s = 0.5 * self.log_top_root(sum(x * x for row in m for x in row))
            ell = self.log_top_root(abs(m[0][0] + m[1][1]))
            assert a == pytest.approx([s, -s], abs=1e-14)
            assert lam == pytest.approx([ell, -ell], abs=1e-14)
        # |trace| 78030: a float eigenvalue solve of this matrix gives 11.2094
        repro = GroupElement.from_integer([[114135097, 287825473], [-45228500, -114057067]])
        lam, is_lox = pj.jordan_project(repro)
        assert lam.tolist() == [11.264848646946568, -11.264848646946568] and is_lox
        assert lam[0] == pytest.approx(self.log_top_root(78030), abs=1e-14)

    def test_reject_float_and_non_square_stacks(self):
        with pytest.raises(PreconditionError):
            pj.cartan_vector(np.eye(2)[None, :, :])
        bad_stacks = (np.eye(4, dtype=int)[None], np.ones((1, 2, 3), dtype=int), np.eye(3, dtype=int))
        for bad in bad_stacks:
            for kernel in (pj.cartan_vector, pj.jordan_project):
                with pytest.raises(PreconditionError):
                    kernel(bad)


def elementary_word(rng, d: int, length: int) -> list:
    """A seeded word of the given length in the elementary generators I + e_ij (i != j)
    of SL(d, Z), as a list of rows of Python ints."""
    m = np.eye(d, dtype=int).astype(object)
    for _ in range(length):
        i, j = rng.choice(d, size=2, replace=False)
        m[:, j] += m[:, i]  # m @ (I + e_ij)
    return m.tolist()


@functools.cache
def sixty_digit_cases():
    """200 SL(3, Z) words of length 8-40 and 6 SL(4, Z) words of length 8-16 in the
    elementary generators, each with its 60-digit Cartan and Jordan logs."""
    rng = np.random.default_rng(2027)
    words = [elementary_word(rng, 3, int(rng.integers(8, 41))) for _ in range(200)]
    words += [elementary_word(rng, 4, int(rng.integers(8, 17))) for _ in range(6)]
    return [(m, *sixty_digit_logs(m)) for m in words]


class TestSixtyDigitOracle:
    """Integer logs at d >= 3 against 60-digit ones.  Each comes from the top singular
    value or eigenvalue of an exact compound, which a float solve resolves to eps
    relative for the singular value and to its first-order conditioning for the
    eigenvalue: no log carries the eps s_1 / s_d of the small moduli of one solve."""

    def test_cases_reach_past_the_float_resolution(self):
        # s_1 / s_d from tens to past 1e9, where one float SVD resolved log s_d only to
        # about eps s_1 / s_d = 2e-7
        ratios = [math.exp(cartan[0] - cartan[-1]) for _, cartan, _ in sixty_digit_cases()]
        assert min(ratios) < 1e2 and max(ratios) > 1e9

    def test_cartan_logs_within_four_eps(self):
        for m, cartan, _ in sixty_digit_cases():
            a = pj.cartan_vector(GroupElement.from_integer(m))
            assert np.all(np.abs(a - cartan) <= 4 * EPS * np.maximum(1.0, np.abs(cartan))), m

    def test_jordan_logs_within_their_conditioning(self):
        for m, _, jordan in sixty_digit_cases():
            lam = pj.jordan_project(GroupElement.from_integer(m))[0]
            bound = 4 * (jordan_log_bounds(m) + EPS * np.maximum(1.0, np.abs(jordan)))
            assert np.all(np.abs(lam - jordan) <= bound), m


class TestCompound:
    """The exact compounds behind the integer logs and the integer inverse."""

    def test_compound_is_the_exact_minors(self):
        rng = np.random.default_rng(2701)
        for d in (2, 3, 4):
            m = rng.integers(-50, 50, size=(d, d)).tolist()
            for k in range(1, d + 1):
                want = exact_compound(m, k)
                assert pj._compound(np.array(m, dtype=object), k).tolist() == want
                if d <= 3:
                    assert pj._compound(np.array([m, m]), k).tolist() == [want, want]

    def test_integer_inverse_keeps_python_ints(self):
        # entries near 2^70 in M and its inverse: the inverse stays exact in object dtype
        a, b = 2**35 + 3, 2**35 - 5
        m = [[1 + a * b, a, a], [b, 1, 1], [0, 0, 1]]
        inv = pj._integer_inverse(m)
        assert inv.dtype == object and all(type(v) is int for v in inv.flat)
        assert 2**69 < inv[1, 1] == 1 + a * b < 2**71
        assert (np.array(m, dtype=object) @ inv).tolist() == np.eye(3, dtype=int).tolist()
        assert GroupElement.from_integer(m).inverse().int_mat == inv.tolist()

    def test_integer_inverse_is_the_cofactor_loop(self):
        rng = np.random.default_rng(2702)
        for d in (2, 3):
            stack = rng.integers(-2**30, 2**30, size=(40, d, d))
            got, want = pj._integer_inverse(stack), cofactor_inverse(stack)
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        stack = rng.integers(-1000, 1000, size=(10, 4, 4)).astype(object) * 2**40
        got, want = pj._integer_inverse(stack), cofactor_inverse(stack)
        assert got.dtype == want.dtype == object and got.tolist() == want.tolist()
        assert pj._integer_inverse([[1]]).tolist() == [[1]]

    def test_integer_rows_stay_in_the_closed_chamber(self):
        # the logs come from separate solves, one per compound; where moduli are equal (a
        # complex or near-defective top pair) the Jordan rows are sorted back into the chamber
        ball = np.array(lt._word_ball(lt._default_sl3_generators(), 3), dtype=np.int64)
        cartan, (jordan, lox) = pj.cartan_vector(ball), pj.jordan_project(ball)
        assert len(ball) == 883 and not lox.all()
        for rows in (cartan, jordan):
            assert np.all(np.diff(rows, axis=1) <= 0.0)
            assert np.max(np.abs(rows.sum(axis=1))) <= 4 * EPS * max(1.0, np.max(np.abs(rows)))

    def test_integer_logs_take_one_solve_per_compound(self, linalg_calls):
        # d = 3: one solve of M and one of its second compound, stacked, and none per row
        m = elementary_word(np.random.default_rng(2703), 3, 30)
        pj.cartan_vector(GroupElement.from_integer(m))
        assert linalg_calls == [("svd", (1, 3, 3))] * 2
        linalg_calls.clear()
        pj.cartan_vector(np.array([m] * 5))
        assert linalg_calls == [("svd", (5, 3, 3))] * 2
        linalg_calls.clear()
        pj.jordan_project(np.array([m] * 5))
        assert linalg_calls == [("eigvals", (5, 3, 3))] * 2

    def test_fixed_points_share_the_eigen_solve(self, linalg_calls):
        # the eigen-solve of M serves the Jordan logs and the fixed flags; its second
        # compound takes one more eigenvalue solve
        g = GroupElement.from_integer(elementary_word(np.random.default_rng(2704), 3, 30))
        assert pj.jordan_project(g)[1]
        linalg_calls.clear()
        fm.fixed_points(g)
        assert [c for c in linalg_calls if c[0] in ("svd", "eig", "eigvals")] == [
            ("eig", (3, 3)), ("eigvals", (1, 3, 3))]

    def test_int64_discriminants_are_the_python_int_ones(self):
        # tr and c1 in int64, only the cubic in Python ints: against the all-object path on
        # the radius-4 word ball and on entries at +-2^30, where |c1| reaches 3 * 2^61
        ball = np.array(lt._word_ball(lt._default_sl3_generators(), 4), dtype=np.int64)
        edge = np.random.default_rng(2705).choice([-2**30, 2**30, 2**30 - 1, -1, 0, 1], size=(500, 3, 3))
        top = 2**30 * np.array([[[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]])
        for stack in (ball, edge, top, -top):
            got = pj._int_char_discriminant(stack)
            assert got.dtype == object and all(type(v) is int for v in got)
            assert got.tolist() == pj._int_char_discriminant(stack.astype(object)).tolist()
        tr, c1 = 3 * 2**30, 3 * 2**61
        assert pj._int_char_discriminant(top)[0] == tr**2 * c1**2 - 4 * c1**3 - 4 * tr**3 + 18 * tr * c1 - 27
        # an integer element has no 2^30 bound: its one-row stack stays in Python ints
        a, b = 2**35 + 3, 2**35 - 5
        g = GroupElement.from_integer([[1 + a * b, a, a], [b, 1, 1], [0, 0, 1]])
        tr = c1 = 3 + a * b  # principal minors 1, 1 + ab and 1
        assert pj._int_char_discriminant(pj._one_row(g)).tolist() == [
            tr**2 * c1**2 - 4 * c1**3 - 4 * tr**3 + 18 * tr * c1 - 27]


class TestLapack:
    """``_lapack`` calls the LAPACK gufuncs behind np.linalg's svd, eig and eigvals: the same
    outputs bit for bit, with eigen-pairs kept complex."""

    @staticmethod
    def assert_same_bits(got, want):
        if not np.iscomplexobj(want):  # np.linalg drops an imaginary part that is zero throughout
            assert not np.any(got.imag)
            got = got.real
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_agrees_with_np_linalg(self):
        rng = np.random.default_rng(2706)
        ball = np.array(lt._word_ball(lt._default_sl3_generators(), 3), dtype=np.int64)
        one = np.array([elementary_word(rng, 3, 30)], dtype=object)
        inputs = [*rng.normal(size=(5, 3, 3)), random_group(rng, 3, 2.0).mat,
                  random_group_batch(rng, 2, 50), random_group_batch(rng, 3, 50),
                  rng.normal(size=(50, 2, 2)), rng.normal(size=(50, 3, 3)), ball.astype(float),
                  *(pj._compound(stack, k).astype(float) for stack in (ball, one) for k in (1, 2))]
        complex_rows = 0
        for m in inputs:
            u, s, vh = np.linalg.svd(m)
            for got, want in zip(pj._lapack("svd_f", m), (u, s, vh)):
                self.assert_same_bits(got, want)
            self.assert_same_bits(pj._lapack("svd", m), np.linalg.svd(m, compute_uv=False))
            w, v = np.linalg.eig(m)
            for got, want in zip(pj._lapack("eig", m), (w, v)):
                self.assert_same_bits(got, want)
            self.assert_same_bits(pj._lapack("eigvals", m), np.linalg.eigvals(m))
            complex_rows += int(np.sum(np.any(np.asarray(w).imag != 0.0, axis=-1)))
        assert complex_rows > 50  # single matrices and rows of stacks with a complex spectrum

    def test_nan_input_raises(self):
        # as np.linalg does: its eig and eigvals refuse before LAPACK, its svd fails in LAPACK
        for m in (np.array([[np.nan, 1.0], [0.0, 1.0]]), np.full((3, 3), np.nan),
                  np.stack([np.eye(3), np.diag([np.nan, 1.0, 1.0])])):
            for name, today in (("svd_f", np.linalg.svd), ("svd", functools.partial(np.linalg.svd, compute_uv=False)),
                                ("eig", np.linalg.eig), ("eigvals", np.linalg.eigvals)):
                for solve in (functools.partial(pj._lapack, name), today):
                    with pytest.raises(np.linalg.LinAlgError):
                        solve(m)
            for vectors in (False, True):
                with pytest.raises(NumericError, match="eigenvalue solver failed"):
                    pj._eig(m, vectors)

    def test_leaves_the_error_state_as_it_was(self):
        # also after a LAPACK failure, and under a caller's own error state
        nan = np.full((3, 3), np.nan)
        for outer in ({}, {"all": "raise"}, {"all": "warn", "call": print}):
            with np.errstate(**outer):
                before = np.geterr(), np.geterrcall()
                pj._lapack("svd_f", np.eye(3))
                pj._lapack("eig", np.eye(3))
                assert (np.geterr(), np.geterrcall()) == before
                for name in ("svd_f", "svd"):
                    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                        pj._lapack(name, nan)
                    assert (np.geterr(), np.geterrcall()) == before

    def test_failure_raises_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                pj._lapack("svd_f", np.stack([np.eye(3), np.diag([np.nan, 1.0, 1.0])]))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_private_numpy_names_resolve_or_name_what_is_missing(self):
        svd_f, contextvar = pj._numpy_private("numpy.linalg._umath_linalg.svd_f",
                                              "numpy._core._ufunc_config._extobj_contextvar")
        assert svd_f is np.linalg._umath_linalg.svd_f and contextvar is pj._extobj_contextvar
        missing = ("numpy.linalg._umath_linalg.no_such_gufunc", "numpy._no_such_module.name")
        with pytest.raises(ImportError) as exc:
            pj._numpy_private("numpy.linalg._umath_linalg.svd", *missing)
        assert all(name in str(exc.value) for name in missing)
        assert f"numpy {np.__version__}" in str(exc.value) and "_umath_linalg.svd," not in str(exc.value)


class TestIwasawa:
    def test_zero_on_compact(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(50):
                k = GroupElement(pj.random_so(d, rng), check=False)
                xi = fm.Flag(pj.random_so(d, rng))
                assert np.max(np.abs(pj.iwasawa_cocycle(k, xi))) < 1e-12

    def test_diagonal_on_standard_flag(self):
        y = np.array([0.7, -0.2, -0.5])
        g = GroupElement.from_cartan_vector(y)
        assert np.allclose(pj.iwasawa_cocycle(g, fm.eta0(3)), y)

    def test_cocycle_relation(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            worst = 0.0
            for _ in range(300):
                g1, g2 = random_group(rng, d), random_group(rng, d)
                xi = fm.Flag(pj.random_so(d, rng))
                lhs = pj.iwasawa_cocycle(GroupElement(g1.mat @ g2.mat, check=False), xi)
                rhs = pj.iwasawa_cocycle(g1, xi.translate(g2)) + pj.iwasawa_cocycle(g2, xi)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            assert worst < 1e-9

    def test_representative_independence(self):
        # sign-gauge changes of the flag frame leave the cocycle unchanged
        rng = np.random.default_rng(9)
        g = random_group(rng, 3)
        frame = pj.random_so(3, rng)
        base = pj.iwasawa_cocycle(g, fm.Flag(frame))
        for signs in ([1, -1, -1], [-1, 1, -1], [-1, -1, 1]):
            gauged = frame @ np.diag(signs)
            assert np.allclose(pj.iwasawa_cocycle(g, fm.Flag(gauged)), base, atol=1e-12)


def assert_in_so(frames):
    """Orthonormal frames of determinant +1 over any leading axes, which the SO(d) sign
    fix leaves bit for bit as they are."""
    d = frames.shape[-1]
    assert np.abs(np.swapaxes(frames, -1, -2) @ frames - np.eye(d)).max() < 1e-12
    assert np.abs(np.linalg.det(frames) - 1.0).max() < 1e-12
    fixed = frames.copy()
    pj._so_sign_fix(fixed)
    assert fixed.tobytes() == frames.tobytes()


class TestFrameContract:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_frame_action_gives_the_positive_diagonal_qr_frame_in_so(self, d):
        rng = np.random.default_rng(40 + d)
        mats, frames = rng.normal(size=(64, d, d)), pj.random_so(d, rng, 64)
        prod = mats @ frames
        q, r = np.linalg.qr(prod)
        plain = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        flipped = np.linalg.det(plain) < 0
        assert 0 < np.count_nonzero(flipped) < 64  # rows of both kinds
        out = pj.flag_frame_action(mats, frames)
        assert_in_so(out)
        # the flag's columns are the plain frame's; the last column, a pure gauge, flips where det < 0
        assert np.array_equal(out[..., :-1], plain[..., :-1])
        assert np.array_equal(out[..., -1], np.where(flipped[:, None], -plain[..., -1], plain[..., -1]))
        r = np.swapaxes(out, -1, -2) @ prod  # g k_xi = out r
        assert np.abs(np.tril(r, -1)).max() < 1e-12
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert (diag[:, :-1] > 0).all()
        assert np.array_equal(diag[:, -1] > 0, np.linalg.det(prod) > 0)

    def test_random_so_translate_and_angular_frames_are_in_so(self):
        rng = np.random.default_rng(44)
        for d in (2, 3):
            assert_in_so(pj.random_so(d, rng, 200))
            assert_in_so(pj.random_so(d, rng))
            for _ in range(20):
                g, x = random_group(rng, d), BasePoint(random_group(rng, d))
                plus, minus = pj.angular_points(g, x)
                assert_in_so(np.stack([plus.frame, minus.frame, plus.translate(g).frame]))


class TestBusemann:
    def test_same_point_is_zero(self):
        rng = np.random.default_rng(10)
        x = BasePoint(random_group(rng, 3))
        xi = fm.Flag(pj.random_so(3, rng))
        assert np.max(np.abs(busemann(xi, x, x))) < 1e-10

    def test_diagonal_reduction(self):
        y = np.array([0.4, 0.1, -0.5])
        o = BasePoint.origin(3)
        target = BasePoint(GroupElement.from_cartan_vector(y))
        assert np.allclose(busemann(fm.eta0(3), o, target), y, atol=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(100):
                xi = fm.Flag(pj.random_so(d, rng))
                x, y, z = (BasePoint(random_group(rng, d, 0.5)) for _ in range(3))
                total = busemann(xi, x, y) + busemann(xi, y, z)
                assert np.max(np.abs(total - busemann(xi, x, z))) < 1e-9

    def test_norm_bound(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            rs = root_system(d)
            ca = rs.c_a()
            for _ in range(200):
                xi = fm.Flag(pj.random_so(d, rng))
                x = BasePoint(random_group(rng, d, 0.6))
                y = BasePoint(random_group(rng, d, 0.6))
                val = rs.killing_norm(busemann(xi, x, y))
                assert val <= ca * dist_x(x, y) + 1e-9

    def test_representative_invariance(self):
        rng = np.random.default_rng(13)
        xi = fm.Flag(pj.random_so(3, rng))
        h = random_group(rng, 3)
        y = BasePoint(random_group(rng, 3))
        base = busemann(xi, BasePoint(h), y)
        for _ in range(10):
            k = pj.random_so(3, rng)
            alt = BasePoint(GroupElement(h.mat @ k, check=False))
            assert np.max(np.abs(busemann(xi, alt, y) - base)) < 1e-10


class TestCartanDistance:
    def test_same_point(self):
        o = BasePoint.origin(3)
        a, dist = cartan_distance(o, o)
        assert np.allclose(a, 0.0) and dist == 0.0

    def test_diagonal_displacement(self):
        o = BasePoint.origin(3)
        y = BasePoint(GroupElement.from_cartan_vector([1.0, 0.0, -1.0]))
        a, dist = cartan_distance(o, y)
        assert np.allclose(a, [1.0, 0.0, -1.0], atol=1e-12)
        assert dist == pytest.approx(math.sqrt(12.0), rel=1e-12)

    def test_swap_is_opposition_and_triangle(self):
        rng = np.random.default_rng(14)
        rs = root_system(3)
        for _ in range(100):
            x, y, z = (BasePoint(random_group(rng, 3)) for _ in range(3))
            axy, dxy = cartan_distance(x, y)
            ayx, _ = cartan_distance(y, x)
            assert np.max(np.abs(ayx - rs.opposition(axy))) < 1e-9
            assert dxy <= dist_x(x, z) + dist_x(z, y) + 1e-9


class TestCartanAt:
    def test_integer_elements_take_the_exact_kernel(self):
        # the float SVD of a conjugate loses the small singular value of a wide integer
        # element (up to 12.6% relative in the Cartan vector at entries near 1e9)
        rng = np.random.default_rng(2000)
        o = BasePoint.origin(2)
        h = np.array([[2, 1], [1, 1]], dtype=object)
        x = BasePoint(GroupElement.from_integer(h))
        count = 0
        while count < 2000:
            a, b = (int(v) for v in rng.integers(-(10**9), 10**9, size=2))
            rows = det_one_completion(a, b)
            if rows is None:
                continue
            count += 1
            g = GroupElement.from_integer(rows)
            assert np.array_equal(pj.cartan_at(g, o), pj.cartan_vector(g))
            conj = pj._integer_inverse(h) @ np.array(rows, dtype=object) @ h
            assert np.array_equal(pj.cartan_at(g, x), pj.cartan_vector(GroupElement.from_integer(conj)))

    def test_float_base_point_keeps_the_float_conjugate(self):
        rng = np.random.default_rng(2001)
        for d in (2, 3):
            for _ in range(20):
                g, x = random_group(rng, d), BasePoint(random_group(rng, d, 0.4))
                conj = GroupElement(x.h.inverse().mat @ g.mat @ x.h.mat, check=False)
                assert np.array_equal(pj.cartan_at(g, x), pj.cartan_vector(conj))
                if d == 2:  # an integer element at a float base point
                    ig = GroupElement.from_integer([[2, 1], [1, 1]])
                    conj = GroupElement(x.h.inverse().mat @ ig.mat @ x.h.mat, check=False)
                    assert np.array_equal(pj.cartan_at(ig, x), pj.cartan_vector(conj))


class TestNonFiniteInput:
    """An infinite entry can keep LAPACK's SVD from returning: it is refused before the SVD."""

    def test_overflowing_conjugate_is_refused(self, alarm):
        g = GroupElement([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        x = BasePoint(GroupElement.from_cartan_vector([700.0, 0.0, -700.0]))  # entry (2, 0) is e^1400
        for project in (pj.cartan_at, pj.angular_points):
            with pytest.raises(NumericError, match=r"is not finite in floats: entry \(0, 2, 0\) is inf"):
                project(g, x)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_float_element_is_refused(self, alarm, value):
        for d in (2, 3):
            mat = np.eye(d)
            mat[-1, 0] = value
            g = GroupElement(mat, check=False)
            for project in (pj.cartan_vector, pj.cartan_project, lambda g: pj.cartan_at(g, BasePoint.origin(d))):
                with pytest.raises(PreconditionError, match=f"needs finite entries, got {value}"):
                    project(g)


class TestAngularPoints:
    def test_diagonal_regular(self):
        g = GroupElement.from_cartan_vector([1.5, 0.0, -1.5])
        plus, minus = pj.angular_points(g, BasePoint.origin(3))
        assert fm.dist_d(plus, fm.eta0(3)) < 1e-10
        assert fm.dist_d(minus, fm.zeta0(3)) < 1e-10

    def test_top_singular_direction_sl2(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            g = random_group(rng, 2)
            if root_system(2).wall_distance(pj.cartan_vector(g)) < 1e-6:
                continue
            plus, _ = pj.angular_points(g, BasePoint.origin(2))
            u, s, vh = np.linalg.svd(g.mat)
            line = plus.frame[:, 0]
            assert min(np.linalg.norm(line - u[:, 0]), np.linalg.norm(line + u[:, 0])) < 1e-9

    def test_inverse_swaps(self):
        rng = np.random.default_rng(16)
        o = BasePoint.origin(3)
        for _ in range(50):
            g = random_group(rng, 3)
            a = pj.cartan_vector(g)
            if root_system(3).wall_distance(a) < 0.1:
                continue
            plus, minus = pj.angular_points(g, o)
            iplus, iminus = pj.angular_points(g.inverse(), o)
            # the boundary metric has a sqrt(eps) noise floor at zero
            assert fm.dist_d(iplus, minus) < 1e-7
            assert fm.dist_d(iminus, plus) < 1e-7

    def test_regularity_error(self):
        g = GroupElement.from_cartan_vector([0.5, 0.5, -1.0])  # on a wall
        with pytest.raises(RegularityError) as err:
            pj.angular_points(g, BasePoint.origin(3))
        assert err.value.wall_distance is not None


class TestBoundedConjugation:
    def test_upper_triangular_stays_bounded(self):
        a = np.diag(np.exp([0.8, 0.1, -0.9]))
        a_inv = np.diag(np.exp([-0.8, -0.1, 0.9]))
        p = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])
        cur = p.copy()
        for _ in range(30):
            cur = a_inv @ cur @ a
            assert np.max(np.abs(cur)) < 10.0

    def test_lower_part_escapes(self):
        a = np.diag(np.exp([0.8, 0.1, -0.9]))
        a_inv = np.diag(np.exp([-0.8, -0.1, 0.9]))
        p = np.eye(3)
        p[2, 0] = 1.0
        cur = p.copy()
        for _ in range(30):
            cur = a_inv @ cur @ a
        assert np.max(np.abs(cur)) > 1e10


def test_group_element_validation():
    with pytest.raises(PreconditionError):
        GroupElement([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        GroupElement.from_integer([[1, 1], [1, 1]])
    g = GroupElement.from_integer([[2, 1], [1, 1]])
    assert g.int_mat == [[2, 1], [1, 1]]
    inv = g.inverse()
    assert inv.int_mat == [[1, -1], [-1, 2]]
