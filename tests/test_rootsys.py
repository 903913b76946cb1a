import itertools
import math

import numpy as np
import pytest

from wcc import rootsys
from wcc.errors import NumericError, ParameterError, PreconditionError

from rootsys_reference import (chamber_sort, delta_zero_direction, dual_vector, reference_c_a,
                               reference_levi_delta0, weyl_group)

# Agreement required between the optimization and closed-form values of the
# growth exponents; a larger discrepancy means a regression somewhere.
OPT_AGREE_TOL = 1e-9


def max_linear_on_sphere(rs, c) -> tuple[float, np.ndarray]:
    """Maximize a linear functional on the Killing unit sphere.

    Projected-gradient ascent from two deterministic seeds plus the
    analytic candidate proportional to (1, 0, ..., 0, -1); the three
    results and the closed-form dual norm must agree to OPT_AGREE_TOL.
    The numeric oracle of the closed-form growth exponents in rootsys.
    """
    c = rootsys._as_vector(c, rs.d)
    closed = rs.dual_norm(c)
    if closed == 0.0:
        return 0.0, np.zeros(rs.d)

    def project_sphere(y):
        y = y - np.mean(y)
        n = np.sqrt(rs.killing_scale * np.dot(y, y))
        if n < 1e-300:
            y = dual_vector(rs, c)
            return y
        return y / n

    # Seeds are nudged toward the analytic candidate so that none sits
    # exactly on the antipodal critical point, where the tangent gradient
    # vanishes and ascent could not move.
    analytic = np.zeros(rs.d)
    analytic[0], analytic[-1] = 1.0, -1.0
    nudge = 1e-3 * project_sphere(analytic)
    seeds = [
        project_sphere(np.cos(np.arange(rs.d) + 1.0) + nudge),
        project_sphere(np.sin(2.0 * np.arange(rs.d) + 0.5) + nudge),
        project_sphere(analytic),
    ]
    grad = (c - np.mean(c)) / rs.killing_scale
    results = []
    for y in seeds:
        for _ in range(500):
            if float(c @ -y) > float(c @ y):
                # escape the antipodal critical point (the only other one
                # for a linear functional; in d=2 the sphere is just S^0)
                y = -y
            tangent = grad - (rs.killing_scale * np.dot(grad, y)) * y
            tnorm = np.sqrt(rs.killing_scale * np.dot(tangent, tangent))
            if tnorm < 1e-14 * max(closed, 1.0):
                break
            step = 1.0 / max(closed, 1e-12)
            value = float(c @ y)
            while step > 1e-18:
                y_next = project_sphere(y + step * tangent)
                if float(c @ y_next) > value:
                    break
                step *= 0.5
            else:
                break  # no step improves the value: converged
            y = y_next
        results.append((float(c @ y), y))
    best_val, best_y = max(results, key=lambda r: r[0])
    spread = max(abs(v - closed) for v, _ in results)
    if spread > OPT_AGREE_TOL or abs(best_val - closed) > OPT_AGREE_TOL:
        raise NumericError(
            f"sphere-maximum optimization disagrees with closed form: {results} vs {closed}"
        )
    return best_val, best_y


def levi_functional(rs, theta) -> np.ndarray:
    """Sum of the positive roots y_i - y_j whose simple roots i..j-1 avoid theta."""
    total = np.zeros(rs.d)
    for i, j in itertools.combinations(range(rs.d), 2):
        if not set(range(i, j)) & set(theta):
            total[i] += 1.0
            total[j] -= 1.0
    return total


def point_to_wall_distance_oracle(rs, y, root):
    """Brute-force Killing distance from y to ker(root) by dense sampling.

    Walks a dense grid of points on the wall itself (the kernel of the root
    intersected with the traceless subspace) and minimizes the distance.
    """
    constraints = np.vstack([root, np.ones(rs.d)])
    _, s, vt = np.linalg.svd(constraints)
    basis = vt[len(s[s > 1e-12]):]  # null space rows: wall inside the traceless subspace
    best = math.inf
    reach = 2.0 * rs.killing_norm(y) + 1.0
    grid = np.linspace(-reach, reach, 4001)
    if len(basis) == 1:
        for u in grid:
            w = u * basis[0]
            best = min(best, rs.killing_norm(y - w))
    else:
        for u in grid[::40]:
            for v in grid[::40]:
                w = u * basis[0] + v * basis[1]
                best = min(best, rs.killing_norm(y - w))
    return best


class TestKillingNorm:
    def test_zero_vector(self):
        assert rootsys.root_system(2).killing_norm([0.0, 0.0]) == 0.0

    def test_sl2_diagonal(self):
        rs = rootsys.root_system(2)
        for s in (0.3, 1.0, 2.5):
            assert rs.killing_norm([s, -s]) == pytest.approx(math.sqrt(8) * s, rel=1e-12)

    def test_sl3_example(self):
        rs = rootsys.root_system(3)
        assert rs.killing_norm([1.0, 0.0, -1.0]) == pytest.approx(math.sqrt(12), rel=1e-12)

    def test_rejects_non_traceless(self):
        with pytest.raises(PreconditionError):
            rootsys.root_system(3).killing_norm([1.0, 0.0, 0.0])

    def test_weyl_invariance(self):
        rng = np.random.default_rng(7)
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            for _ in range(50):
                y = rng.normal(size=rs.d)
                y -= y.mean()
                n = rs.killing_norm(y)
                for w in weyl_group(rs):
                    assert rs.killing_norm(y[list(w)]) == pytest.approx(n, rel=1e-12)


class TestDeltaZero:
    def test_sl2_value(self):
        assert rootsys.root_system(2).delta_zero() == pytest.approx(1 / math.sqrt(2), abs=1e-11)

    def test_sl3_value(self):
        assert rootsys.root_system(3).delta_zero() == pytest.approx(2 / math.sqrt(3), abs=1e-11)

    def test_determinism(self):
        rs = rootsys.RootSystemA(3)
        a = rs.delta_zero()
        b = rootsys.RootSystemA(3).delta_zero()
        assert abs(a - b) < 1e-9

    def test_two_rho_bound_and_attainment(self):
        rng = np.random.default_rng(11)
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            d0 = rs.delta_zero()
            for _ in range(200):
                y = rng.normal(size=rs.d)
                y -= y.mean()
                assert float(rs.two_rho @ y) <= d0 * rs.killing_norm(y) + 1e-10
            ystar = delta_zero_direction(rs)
            assert float(rs.two_rho @ ystar) == pytest.approx(d0, abs=1e-7)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
class TestClosedFormsAgainstAscent:
    """The growth exponents are dual norms; the sphere ascent is the oracle."""

    def test_delta_zero_and_direction(self, d):
        rs = rootsys.RootSystemA(d)
        val, y = max_linear_on_sphere(rs, rs.two_rho)
        assert abs(rs.delta_zero() - val) <= OPT_AGREE_TOL
        assert np.max(np.abs(delta_zero_direction(rs) - y)) <= 1e-6

    def test_levi_exponents_and_gap(self, d):
        rs = rootsys.RootSystemA(d)
        vals = {}
        for r in range(d):
            for theta in itertools.combinations(range(d - 1), r):
                vals[theta] = max_linear_on_sphere(rs, levi_functional(rs, theta))[0]
                assert abs(reference_levi_delta0(rs, theta) - vals[theta]) <= OPT_AGREE_TOL
        gap = min(vals[()] - v for theta, v in vals.items() if theta)
        assert abs(rs.c_gap() - gap) <= 2 * OPT_AGREE_TOL

    def test_random_functionals(self, d):
        rs = rootsys.RootSystemA(d)
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            c = rng.normal(size=d)
            val, y = max_linear_on_sphere(rs, c)
            assert abs(rs.dual_norm(c) - val) <= OPT_AGREE_TOL
            assert np.max(np.abs(dual_vector(rs, c) - y)) <= 1e-6


class TestWallDistance:
    def test_on_wall(self):
        rs = rootsys.root_system(3)
        assert rs.wall_distance([1.0, 1.0, -2.0]) == 0.0
        assert rs.wall_distance([0.0, 0.0, 0.0]) == 0.0

    def test_interior_point_vs_hyperplane_oracle(self):
        rs = rootsys.root_system(3)
        y = np.array([1.0, 0.0, -1.0])
        expected = min(point_to_wall_distance_oracle(rs, y, c) for c in rs.simple_roots)
        assert rs.wall_distance(y) == pytest.approx(expected, abs=1e-3)
        assert rs.wall_distance(y) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_outside_chamber_rejected(self):
        rs = rootsys.root_system(3)
        with pytest.raises(PreconditionError):
            rs.wall_distance([-1.0, 0.0, 1.0])

    def test_sl2_wall_distance_is_norm(self):
        rs = rootsys.root_system(2)
        assert rs.wall_distance([2.0, -2.0]) == pytest.approx(rs.killing_norm([2.0, -2.0]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_the_per_root_formula_bit_for_bit(self, d):
        # the simple-root dual norms are computed once; the value and the sign of a zero
        # must stay those of min over simple roots of max(0, c @ y) / dual_norm(c)
        rs = rootsys.root_system(d)
        rng = np.random.default_rng(40 + d)
        for i in range(2000):
            y = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0)
            if i % 7 == 0:
                y[1] = y[0]
            y = np.sort(y - y.mean())[::-1]
            if i % 11 == 0:
                y = np.zeros(d)
            old = min(max(0.0, float(c @ y)) / rs.dual_norm(c) for c in rs.simple_roots)
            new = rs.wall_distance(y)
            assert (new, math.copysign(1.0, new)) == (old, math.copysign(1.0, old))


class TestOpposition:
    def test_involution_and_chamber(self):
        rng = np.random.default_rng(3)
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            for _ in range(50):
                y = rng.normal(size=rs.d)
                y -= y.mean()
                assert np.allclose(rs.opposition(rs.opposition(y)), y)
                ych = chamber_sort(rs, y)
                assert rs.in_closed_chamber(rs.opposition(ych))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reversal_frame_is_a_fresh_copy_of_the_antidiagonal_frame(self, d):
        rs = rootsys.root_system(d)
        k = np.zeros((d, d))
        for i in range(d):
            k[d - 1 - i, i] = 1.0
        if np.linalg.det(k) < 0:
            k[:, 0] *= -1.0
        frame = rs.reversal_frame()
        assert np.array_equal(frame, k)
        frame[0, 0] = 7.0
        assert np.array_equal(rs.reversal_frame(), k)

    def test_rho_invariant_under_opposition(self):
        rng = np.random.default_rng(5)
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            for _ in range(100):
                y = rng.normal(size=rs.d)
                y -= y.mean()
                assert float(rs.rho @ rs.opposition(y)) == pytest.approx(
                    float(rs.rho @ y), abs=1e-10
                )


class TestRootCombinatorics:
    def test_rho_is_half_sum(self):
        for rs in (rootsys.root_system(2), rootsys.root_system(3), rootsys.root_system(4)):
            direct = 0.5 * np.sum(rs.positive_roots, axis=0)
            assert np.allclose(rs.rho, direct)

    def test_positive_roots_are_nonneg_simple_combinations(self):
        for rs in (rootsys.root_system(2), rootsys.root_system(3), rootsys.root_system(4)):
            simple = np.array(rs.simple_roots).T
            for root in rs.positive_roots:
                coeffs, *_ = np.linalg.lstsq(simple, root, rcond=None)
                assert np.allclose(simple @ coeffs, root, atol=1e-12)
                assert np.all(coeffs > -1e-12)
                assert np.allclose(coeffs, np.round(coeffs), atol=1e-12)


class TestLeviExponents:
    def test_empty_theta_recovers_delta_zero(self):
        rs = rootsys.root_system(3)
        assert reference_levi_delta0(rs, set()) == pytest.approx(rs.delta_zero(), abs=1e-10)

    def test_full_theta_is_zero(self):
        assert reference_levi_delta0(rootsys.root_system(3), {0, 1}) == 0.0

    def test_single_root_oracle(self):
        rs = rootsys.root_system(3)
        # theta = {alpha_1} leaves only alpha_2; its max over the unit ball is
        # the dual norm of alpha_2.
        assert reference_levi_delta0(rs, {0}) == pytest.approx(rs.dual_norm(rs.simple_roots[1]), abs=1e-10)

    def test_monotone_decreasing_in_theta(self):
        rs = rootsys.root_system(3)
        vals = {
            frozenset(t): reference_levi_delta0(rs, t)
            for r in range(3)
            for t in itertools.combinations(range(2), r)
        }
        for small, v_small in vals.items():
            for big, v_big in vals.items():
                if small < big:
                    assert v_big <= v_small + 1e-12

    def test_uniform_gap(self):
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            gap = rs.c_gap()
            assert gap > 0
            d0 = rs.delta_zero()
            for r in range(1, rs.d - 1 + 1):
                for theta in itertools.combinations(range(rs.d - 1), r):
                    assert reference_levi_delta0(rs, theta) <= d0 - gap + 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_c_gap_closed_form_is_the_subset_minimum(self, d):
        rs = rootsys.RootSystemA(d)
        d0 = rs.delta_zero()
        gap = min(d0 - reference_levi_delta0(rs, theta)
                  for r in range(1, d) for theta in itertools.combinations(range(d - 1), r))
        assert abs(rs.c_gap() - gap) <= 1e-15


class TestNormComparison:
    def test_c_a_bounds_hold_on_samples(self):
        rng = np.random.default_rng(17)
        for rs in (rootsys.root_system(2), rootsys.root_system(3)):
            ca = rs.c_a()
            assert ca >= 1.0
            for _ in range(500):
                y = rng.normal(size=rs.d)
                y -= y.mean()
                n = rs.killing_norm(y)
                sup = max(abs(float(chi @ y)) for chi in rs.fundamental_weights)
                assert sup <= ca * n + 1e-12
                assert sup >= n / ca - 1e-12


    @pytest.mark.parametrize("d", range(2, 9))
    def test_c_a_closed_form_is_the_vertex_solve(self, d):
        rs = rootsys.RootSystemA(d)
        assert rs.c_a() == reference_c_a(rs)


def test_for_group_parsing():
    assert rootsys.for_group("sl2").d == 2
    assert rootsys.for_group("SL3").d == 3
    with pytest.raises(ParameterError):
        rootsys.for_group("so3")
    with pytest.raises(ParameterError):
        rootsys.for_group("slx")
