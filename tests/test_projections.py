import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import PreconditionError, RegularityError
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system

from conftest import random_group

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
            assert gap <= 2.0 * pj.dist_x(x, y) + 1e-9


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
        """sl3 rows are the per-element values bit for bit; sl2 closed forms agree with the
        per-element SVD and eigenvalue solves within those solves' own error: the small
        singular value carries eps * sigma_max (so eps * sigma_max / sigma_min on its log,
        up to the 1e10 switch to the adjugate), the eigenvalues eps * |M|^2 / gap."""
        for mats in (mats2, mats3):
            stack = np.array(mats, dtype=np.int64)
            cartan = pj.cartan_vector(stack)
            jordan, lox = pj.jordan_project(stack)
            for m, a, lam, is_lox in zip(mats, cartan, jordan, lox):
                g = GroupElement.from_integer(m)
                want_lam, want_lox = pj.jordan_project(g)
                assert bool(is_lox) == want_lox
                if len(m) == 3:
                    assert a.tobytes() == pj.cartan_vector(g).tobytes()
                    assert lam.tobytes() == want_lam.tobytes()
                    continue
                ratio = math.exp(2.0 * a[0])
                assert np.max(np.abs(a - pj.cartan_vector(g))) <= 4 * EPS * min(ratio, 1e10) + 1e-14
                if is_lox:
                    mass = float(sum(x * x for row in m for x in row))
                    top = math.exp(lam[0])
                    tol = 4 * EPS * mass / (top - 1.0 / top) * min(top, 1e5) + 1e-14
                    assert np.max(np.abs(lam - want_lam)) <= tol

    def test_reject_float_and_non_square_stacks(self):
        with pytest.raises(PreconditionError):
            pj.cartan_vector(np.eye(2)[None, :, :])
        bad_stacks = (np.eye(4, dtype=int)[None], np.ones((1, 2, 3), dtype=int), np.eye(3, dtype=int))
        for bad in bad_stacks:
            for kernel in (pj.cartan_vector, pj.jordan_project):
                with pytest.raises(PreconditionError):
                    kernel(bad)


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


class TestBusemann:
    def test_same_point_is_zero(self):
        rng = np.random.default_rng(10)
        x = BasePoint(random_group(rng, 3))
        xi = fm.Flag(pj.random_so(3, rng))
        assert np.max(np.abs(pj.busemann(xi, x, x))) < 1e-10

    def test_diagonal_reduction(self):
        y = np.array([0.4, 0.1, -0.5])
        o = BasePoint.origin(3)
        target = BasePoint(GroupElement.from_cartan_vector(y))
        assert np.allclose(pj.busemann(fm.eta0(3), o, target), y, atol=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(100):
                xi = fm.Flag(pj.random_so(d, rng))
                x, y, z = (BasePoint(random_group(rng, d, 0.5)) for _ in range(3))
                total = pj.busemann(xi, x, y) + pj.busemann(xi, y, z)
                assert np.max(np.abs(total - pj.busemann(xi, x, z))) < 1e-9

    def test_norm_bound(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            rs = root_system(d)
            ca = rs.c_a()
            for _ in range(200):
                xi = fm.Flag(pj.random_so(d, rng))
                x = BasePoint(random_group(rng, d, 0.6))
                y = BasePoint(random_group(rng, d, 0.6))
                val = rs.killing_norm(pj.busemann(xi, x, y))
                assert val <= ca * pj.dist_x(x, y) + 1e-9

    def test_representative_invariance(self):
        rng = np.random.default_rng(13)
        xi = fm.Flag(pj.random_so(3, rng))
        h = random_group(rng, 3)
        y = BasePoint(random_group(rng, 3))
        base = pj.busemann(xi, BasePoint(h), y)
        for _ in range(10):
            k = pj.random_so(3, rng)
            alt = BasePoint(GroupElement(h.mat @ k, check=False))
            assert np.max(np.abs(pj.busemann(xi, alt, y) - base)) < 1e-10


class TestCartanDistance:
    def test_same_point(self):
        o = BasePoint.origin(3)
        a, dist = pj.cartan_distance(o, o)
        assert np.allclose(a, 0.0) and dist == 0.0

    def test_diagonal_displacement(self):
        o = BasePoint.origin(3)
        y = BasePoint(GroupElement.from_cartan_vector([1.0, 0.0, -1.0]))
        a, dist = pj.cartan_distance(o, y)
        assert np.allclose(a, [1.0, 0.0, -1.0], atol=1e-12)
        assert dist == pytest.approx(math.sqrt(12.0), rel=1e-12)

    def test_swap_is_opposition_and_triangle(self):
        rng = np.random.default_rng(14)
        rs = root_system(3)
        for _ in range(100):
            x, y, z = (BasePoint(random_group(rng, 3)) for _ in range(3))
            axy, dxy = pj.cartan_distance(x, y)
            ayx, _ = pj.cartan_distance(y, x)
            assert np.max(np.abs(ayx - rs.opposition(axy))) < 1e-9
            assert dxy <= pj.dist_x(x, z) + pj.dist_x(z, y) + 1e-9


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
            pj.angular_points(g, BasePoint.origin(3), margin=1e-9)
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
