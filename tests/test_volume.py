import math

import numpy as np
import pytest

from wcc import volume as V
from wcc.errors import ParameterError, PreconditionError
from wcc.rootsys import root_system
from wcc.volume import Domain

from volume_reference import (
    _sample_chamber_point,
    hc_integrand,
    lipschitz_probe,
    max_wall_distance,
    monte_carlo_volume,
    reference_log_quad_2d,
    well_rounded_probe,
)


def bisected_chamber_window(rs):
    """Ends of the d=3 chamber window about b1, each by 200-step bisection."""
    b1, b2, _, _ = V._chamber_arc(rs)

    def all_roots_nonneg(theta):
        u = math.cos(theta) * b1 + math.sin(theta) * b2
        return all(float(c @ u) >= -1e-15 for c in rs.simple_roots)

    def boundary(side):
        lo, hi = 0.0, side * math.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if all_roots_nonneg(mid):
                lo = mid
            else:
                hi = mid
        return lo

    return boundary(-1.0), boundary(+1.0)


def scanned_max_wall_distance(rs, t):
    """Largest wall distance on the d=3 ball by a 2,001-angle scan of the window."""
    b1, b2, _, _ = V._chamber_arc(rs)
    thetas = np.linspace(*bisected_chamber_window(rs), 2001)
    dirs = np.outer(np.cos(thetas), b1) + np.outer(np.sin(thetas), b2)
    return t * max(V._wall_scale(rs, u) for u in dirs)


def grid_split_points(rs, t, margin):
    """Window cuts where the nearest wall switches and where min(t, margin/w)
    starts clipping, located on a 2,049-point theta grid and bisected."""
    b1, b2, _, _ = V._chamber_arc(rs)
    th_lo, th_hi = bisected_chamber_window(rs)

    def wall_of(theta):
        return V._wall_scale(rs, math.cos(theta) * b1 + math.sin(theta) * b2)

    def refine(fn, a, b):
        # bisect a sign change of fn on [a, b]
        for _ in range(100):
            mid = 0.5 * (a + b)
            if fn(a) * fn(mid) <= 0:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    grid = np.linspace(th_lo, th_hi, 2049)
    cuts = {th_lo, th_hi}
    alphas = [np.array(c) for c in rs.simple_roots]
    scaled = [
        np.array([float(a @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(a)
                  for th in grid])
        for a in alphas
    ]
    argmins = np.argmin(np.array(scaled), axis=0)
    for idx in np.nonzero(np.diff(argmins))[0]:
        i, j = argmins[idx], argmins[idx + 1]
        cuts.add(refine(
            lambda th: (float(alphas[i] @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(alphas[i])
                        - float(alphas[j] @ (math.cos(th) * b1 + math.sin(th) * b2)) / rs.dual_norm(alphas[j])),
            float(grid[idx]), float(grid[idx + 1]),
        ))
    if margin > 0.0:
        level = margin / t
        vals = np.min(np.array(scaled), axis=0) - level
        for idx in np.nonzero(np.diff(np.sign(vals)))[0]:
            cuts.add(refine(lambda th: wall_of(th) - level,
                            float(grid[idx]), float(grid[idx + 1])))
    return sorted(cuts)


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestIntegrand:
    def test_zero_on_walls(self):
        assert hc_integrand(2, [0.0, 0.0]) == 0.0
        assert hc_integrand(3, [1.0, 1.0, -2.0]) == 0.0

    def test_sl2_single_root(self):
        for s in (0.3, 1.0, 2.0):
            assert hc_integrand(2, [s, -s]) == pytest.approx(math.sinh(2 * s), rel=1e-12)

    def test_sl3_example(self):
        val = hc_integrand(3, [1.0, 0.0, -1.0])
        assert val == pytest.approx(math.sinh(1.0) ** 2 * math.sinh(2.0), rel=1e-12)

    def test_outside_chamber_rejected(self):
        with pytest.raises(PreconditionError):
            hc_integrand(3, [-1.0, 0.0, 1.0])


class TestBallVolume:
    def test_closed_form_d2(self):
        for t in (0.5, 1.0, 4.0, 8.0):
            res = V.ball_volume(2, t)
            assert res.value == pytest.approx(V.closed_form_ball_d2(t), rel=1e-9)

    def test_small_t_vanishes(self):
        assert V.ball_volume(3, 1e-4).value < 1e-10

    def test_monotone_in_t(self):
        for d in (2, 3):
            vols = [V.ball_volume(d, t).log_value for t in (2.0, 4.0, 6.0, 8.0)]
            assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ParameterError):
            V.ball_volume(2, 0.0)

    def test_growth_exponent_fit(self):
        grid = [16.0, 18.0, 20.0, 22.0, 24.0]
        for d in (2, 3):
            rs = root_system(d)
            logs = [V.ball_volume(rs, t).log_value for t in grid]
            fit = V.fit_growth(rs, grid, logs)
            assert abs(fit["delta_fit"] / rs.delta_zero() - 1.0) < 0.02

    def test_sandwich_between_exponentials(self):
        # log vol - delta0 t stays between constants and r log t + constant
        for d in (2, 3):
            rs = root_system(d)
            d0 = rs.delta_zero()
            rows = [(t, V.ball_volume(rs, t).log_value - d0 * t) for t in (8.0, 10.0, 12.0, 14.0)]
            residuals = [x for _, x in rows]
            assert max(residuals) - min(residuals) < (d - 1) * math.log(rows[-1][0]) + 2.0


class TestChamberGeometry:
    """The closed-form A2 window, wall distance and cuts against their numeric oracles."""

    def test_window_matches_bisection(self):
        rs = root_system(3)
        _, _, lo, hi = V._chamber_arc(rs)
        assert (lo, hi) == (-math.pi / 6, math.pi / 6)
        assert np.allclose(bisected_chamber_window(rs), (lo, hi), rtol=0.0, atol=1e-12)

    def test_wall_distance_is_a_sine_on_the_window(self):
        rs = root_system(3)
        b1, b2, lo, hi = V._chamber_arc(rs)
        for th in np.linspace(lo, hi, 401):
            w = V._wall_scale(rs, math.cos(th) * b1 + math.sin(th) * b2)
            assert abs(w - math.sin(math.pi / 6 - abs(th))) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 4.0, 8.0, 13.7])
    def test_max_wall_distance_matches_scan(self, t):
        rs = root_system(3)
        wmax = max_wall_distance(rs, Domain("ball", t))
        assert wmax == pytest.approx(scanned_max_wall_distance(rs, t), rel=1e-12, abs=0.0)
        assert wmax == pytest.approx(t / 2.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t, margin", [
        (8.0, 0.5), (8.0, 0.8), (8.0, 2.0), (8.0, 3.9), (8.0, 4.5), (6.0, 1.0), (2.5, 0.1), (5.0, 2.4999),
    ])
    def test_cuts_match_grid_split_points(self, t, margin):
        rs = root_system(3)
        _, _, lo, hi = V._chamber_arc(rs)
        cuts = V._arc_cuts(lo, hi, t, margin)
        oracle = grid_split_points(rs, t, margin)
        assert len(cuts) == len(oracle)
        assert np.allclose(cuts, oracle, rtol=0.0, atol=1e-12)
        assert V._arc_cuts(lo, hi, t, 0.0) == [lo, hi]


class TestPinnedVolumes:
    """sl3 volumes at t = 8 as computed with the bisected window and the grid
    cuts above; the closed forms must agree to 1e-12 relative."""

    def test_ball(self):
        rs = root_system(3)
        assert abs(V.ball_volume(rs, 8.0).log_value - 8.51612061748162) <= 1e-12
        assert abs(V.domain_volume(rs, Domain("ball", 8.0)).log_value - 8.51612061748162) <= 1e-12

    @pytest.mark.parametrize("s, log_value, log_ratio", [
        (0.5, 8.141680162836279, -0.3744404546453417),
        (0.8, 8.694202073620772, 0.17808145613915194),
        (2.0, 9.908449709729405, 1.3923290922477847),
    ])
    def test_slab(self, s, log_value, log_ratio):
        res = V.slab_volume(root_system(3), 8.0, s)
        assert abs(res.log_value - log_value) <= 1e-12
        assert abs(res.extras["log_ratio"] - log_ratio) <= 1e-12

    @pytest.mark.parametrize("margin, log_value", [
        (0.5, 8.494490293971324), (2.0, 8.108632379264566), (3.9, 3.290768991187151),
    ])
    def test_regular_margin(self, margin, log_value):
        res = V.domain_volume(root_system(3), Domain("ball", 8.0, regular_margin=margin))
        assert abs(res.log_value - log_value) <= 1e-12

    def test_slab_domain(self):
        res = V.domain_volume(root_system(3), Domain("ball", 8.0, slab=0.8))
        assert abs(res.log_value - 5.60990840274369) <= 1e-12


class TestMeasuredError:
    """Volume results report the last doubling delta, not the requested tolerance."""

    def test_ball_reports_its_delta(self):
        for d in (2, 3):
            rs = root_system(d)
            res = V.ball_volume(rs, 6.0)
            assert res.error_estimate == V._region_log_integral(rs, Domain("ball", 6.0), "hc")[1]
            assert 0.0 <= res.error_estimate < V.QUAD_REL_TOL

    def test_regular_margin_reports_its_delta(self):
        rs = root_system(3)
        dom = Domain("ball", 8.0, regular_margin=2.0)
        res = V.domain_volume(rs, dom)
        assert res.error_estimate == V._region_log_integral(rs, dom, "hc", 2.0)[1] < V.QUAD_REL_TOL

    def test_slab_reports_the_larger_delta(self):
        rs = root_system(3)
        dom = Domain("ball", 8.0)
        res = V.slab_volume(rs, 8.0, 0.8)
        deltas = [V._region_log_integral(rs, dom, "two_rho", m)[1] for m in (0.0, 0.8)]
        assert res.error_estimate == max(deltas) < V.QUAD_REL_TOL
        slab = V.domain_volume(rs, Domain("ball", 8.0, slab=0.8))
        deltas = [V._region_log_integral(rs, dom, "hc", m)[1] for m in (0.0, 0.8)]
        assert slab.error_estimate == max(deltas) < V.QUAD_REL_TOL

    def test_box(self):
        assert V.box_volume(3, 5.0, (1.0, 1.0)).error_estimate == 0.0
        quad = V.box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert 0.0 <= quad.error_estimate < V.QUAD_REL_TOL


class TestGaussLegendreRules:
    """Each Gauss-Legendre rule is computed once per node count and shared read-only."""

    def test_rules_are_cached_and_read_only(self):
        x, w = V._gauss_legendre(24)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert V._gauss_legendre(24)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_cold_warm_and_uncached_results_are_bit_identical(self, monkeypatch):
        rs2, rs3 = root_system(2), root_system(3)

        def results():
            runs = [
                V.domain_volume(rs3, Domain("ball", 8.0)),
                V.domain_volume(rs3, Domain("ball", 8.0, regular_margin=2.0)),
                V.domain_volume(rs2, Domain("ball", 4.0)),
                V.slab_volume(rs3, 8.0, 0.8),
                V.box_volume(rs3, 5.0, (1.0, 1.0)),
                V.box_volume_quadrature(rs3, 5.0, (1.0, 1.0)),
            ]
            return [(r.log_value, r.value, r.error_estimate, r.extras) for r in runs]

        V._gauss_legendre.cache_clear()
        cold = results()
        assert V._gauss_legendre.cache_info().misses > 0
        warm = results()
        monkeypatch.setattr(V, "_gauss_legendre", np.polynomial.legendre.leggauss)
        assert cold == warm == results()


class TestStackedQuadrature:
    """The stacked 2-D rule gives the per-node loop's floats exactly."""

    @staticmethod
    def runs():
        rs3 = root_system(3)
        out = []
        for t in (2.0, 8.0, 12.0):
            out += [
                V.domain_volume(rs3, Domain("ball", t)),
                V.domain_volume(rs3, Domain("ball", t, regular_margin=0.5)),
                V.domain_volume(rs3, Domain("ball", t, regular_margin=0.6 * t)),
                V.slab_volume(rs3, t, 0.1 * t),
                V.box_volume_quadrature(rs3, t, (1.0, 1.0)),
                V.box_volume_quadrature(rs3, t, (0.3, 2.0)),
                V.domain_volume(rs3, Domain("box", t, (1.0, 0.5), regular_margin=0.2)),
                V.slab_volume(rs3, t, 0.2 * t, "box", (1.0, 1.0)),
            ]
        return [(r.log_value, r.value, r.error_estimate, r.extras) for r in out]

    def test_ball_slab_box_and_margin_volumes(self, monkeypatch):
        stacked = self.runs()
        monkeypatch.setattr(V, "_QUAD_BLOCK", 50)  # blocks of one outer row, then of two
        assert self.runs() == stacked
        monkeypatch.setattr(V, "_log_quad_2d", reference_log_quad_2d)
        assert self.runs() == stacked

    @pytest.mark.parametrize("lo2_fn, hi2_fn", [
        (lambda u: u, lambda u: 1.0 - u),  # the inner window empties past u = 1/2
        (lambda u: 0.0, lambda u: 1.0 if u < 0.0 else 0.0),  # empty where u >= 0
        (lambda u: 1.0, lambda u: 1.0),  # empty everywhere
    ])
    def test_empty_inner_windows(self, lo2_fn, hi2_fn):
        def density(u, v):
            return np.log1p(u * u + v * v) + 3.0 * v

        # a loose tolerance: the window edge is a kink the doubling converges on slowly
        args = (density, -1.0, 1.0, lo2_fn, hi2_fn, 1e-4)
        assert V._log_quad_2d(*args) == reference_log_quad_2d(*args)

    @pytest.mark.parametrize("density", [
        # -inf only where exp(density) is below e^-170 of the peak, so the rule converges
        lambda u, v: np.where(np.abs(u) > 1.33, -np.inf, v - 100.0 * u * u),  # whole rows
        lambda u, v: np.where(np.abs(v) > 1.33, -np.inf, u - 100.0 * v * v),  # part of each row
        lambda u, v: np.full_like(v, -np.inf),  # every row: the integral is 0
    ])
    def test_rows_at_minus_infinity(self, density):
        args = (density, -2.0, 2.0, lambda u: -2.0, lambda u: 2.0)
        assert V._log_quad_2d(*args) == reference_log_quad_2d(*args)


class TestLogsumexp:
    """The numpy logsumexp is bit-identical to scipy.special.logsumexp."""

    def test_quadrature_like_inputs(self):
        from scipy.special import logsumexp as reference

        rng = np.random.default_rng(29)
        for n in (2, 3, 24, 48, 97, 384):
            x, w = np.polynomial.legendre.leggauss(n)
            for scale in (1e-3, 1.0, 40.0, 400.0):
                a = scale * rng.normal(size=n) + rng.uniform(-50.0, 50.0) + np.log(w)
                assert same_bits(V.logsumexp(a), reference(a))
                assert same_bits(V.logsumexp(list(a)), reference(list(a)))
            a = V.log_hc_integrand(root_system(3), np.outer(4.0 * (x + 1.0), [1.0, 0.2, -1.2]))
            assert same_bits(V.logsumexp(a + np.log(w)), reference(a + np.log(w)))
        for n in (3072, 6144):
            a = 30.0 * rng.normal(size=n) + np.log(rng.uniform(1e-6, 1e-3, size=n))
            assert same_bits(V.logsumexp(a), reference(a))
        # one or two dominant terms at 0, where log1p and the tie count show in the bits
        for n in (2, 3, 24, 97, 384):
            for ties in (1, 2):
                a = -rng.uniform(15.0, 40.0, size=n + 1)
                a[rng.choice(n + 1, size=ties, replace=False)] = 0.0
                assert same_bits(V.logsumexp(a), reference(a))

    def test_rows_are_the_one_row_values(self):
        rng = np.random.default_rng(31)
        inf = math.inf
        rows = [[0.0, -20.0, 1.0], [5.0, 5.0, 5.0], [-inf, -inf, -inf], [-inf, 1.0, 0.5],
                [inf, 1.0, 2.0], [inf, -inf, 0.0], [0.0, -800.0, 750.0], [-745.5, 1.0, -1e308]]
        for a in [np.array(rows), 40.0 * rng.normal(size=(7, 97)), rng.normal(size=(1, 384))]:
            got = V.logsumexp(a)
            assert got.shape == a.shape[:1]
            assert all(same_bits(g, V.logsumexp(row)) for g, row in zip(got, a))

    @pytest.mark.parametrize("a", [
        [],
        [0.3],
        [2.0, 2.0, 1.0],
        [5.0, 5.0, 5.0],
        [0.0, -20.0],
        [0.0, 0.0, -20.0],
        [-math.inf, -math.inf],
        [-math.inf, 1.0, -math.inf, 0.5],
        [math.inf, 1.0],
        [math.inf, -math.inf],
        [0.0, -800.0, 750.0],
        [-745.5, 1.0, -1e308],
    ])
    def test_edge_cases(self, a):
        from scipy.special import logsumexp as reference

        assert same_bits(V.logsumexp(a), reference(a))
        assert same_bits(V.logsumexp(np.array(a, dtype=float)), reference(np.array(a, dtype=float)))


class TestBoxVolume:
    def test_d2_closed_form(self):
        for t, a in ((2.0, 1.0), (3.0, 0.7), (5.0, 0.4)):
            res = V.box_volume(2, t, (a,))
            assert res.value == pytest.approx(math.sqrt(2.0) * (math.cosh(t * a) - 1.0), rel=1e-12)
            assert res.extras["delta_P"] == pytest.approx(a, rel=1e-12)

    def test_d3_cross_check_quadrature(self):
        exact = V.box_volume(3, 5.0, (1.0, 1.0))
        quad = V.box_volume_quadrature(3, 5.0, (1.0, 1.0))
        assert abs(exact.value / quad.value - 1.0) < 1e-6

    def test_delta_p_is_sup_by_vertex_enumeration(self):
        rs = root_system(3)
        edges = (0.8, 1.3)
        res = V.box_volume(rs, 1.0, edges)
        duals = V._dual_basis(rs)
        sup = 0.0
        for corner in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            y = sum(c * e * u for c, e, u in zip(corner, edges, duals))
            sup = max(sup, float(rs.two_rho @ np.asarray(y)))
        assert res.extras["delta_P"] == pytest.approx(sup, rel=1e-9)

    def test_secondary_exponent_below_main(self):
        res = V.box_volume(3, 4.0, (1.0, 0.5))
        assert 0.0 <= res.extras["delta_minus"] < res.extras["delta_P"]

    def test_c_g_value_d3(self):
        res = V.box_volume(3, 2.0, (1.0, 1.0))
        assert res.extras["C_G"] == pytest.approx(math.sqrt(3.0) / 16.0, rel=1e-9)

    def test_degenerate_edges_rejected(self):
        with pytest.raises(ParameterError):
            V.box_volume(3, 2.0, (1.0, 0.0))
        with pytest.raises(ParameterError):
            V.box_volume(3, 2.0, (1.0,))


class TestSlab:
    def test_d2_explicit_ratio(self):
        rs = root_system(2)
        t, s = 6.0, 1.2
        res = V.slab_volume(rs, t, s)
        d0 = rs.delta_zero()
        expected = (math.exp(d0 * s) - 1.0) / d0
        assert res.value == pytest.approx(expected, rel=1e-7)
        assert res.extras["ratio"] == pytest.approx(expected / V.closed_form_ball_d2(t), rel=1e-7)

    def test_slab_exhausts_domain(self):
        rs = root_system(3)
        dom = Domain("ball", 6.0)
        wmax = max_wall_distance(rs, dom)
        assert wmax == pytest.approx(3.0, abs=1e-9)
        res = V.slab_volume(rs, 6.0, wmax * 0.99999, "ball")
        full, _ = V._region_log_integral(rs, dom, "two_rho", 0.0)
        assert res.log_value == pytest.approx(full, abs=1e-3)

    def test_decay_sweep_positive_kappa(self):
        for d in (2, 3):
            rep = V.slab_decay_sweep(d, [0.05, 0.1, 0.2], [5.0, 6.5, 8.0, 9.5])
            for eps, data in rep["per_epsilon"].items():
                assert data["kappa_fit"] > 0.0
                assert data["strictly_decreasing"]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            V.slab_volume(2, 4.0, 4.0)
        with pytest.raises(ParameterError):
            V.slab_volume(2, 4.0, -1.0)


class TestDomain:
    def test_filters_mutually_exclusive(self):
        with pytest.raises(ParameterError):
            Domain("ball", 2.0, regular_margin=0.1, slab=0.5)

    def test_membership(self):
        rs = root_system(2)
        dom = Domain("ball", 2.0)
        assert dom.contains_cartan(rs, [0.5, -0.5])
        assert not dom.contains_cartan(rs, [1.0, -1.0])
        reg = Domain("ball", 2.0, regular_margin=1.0)
        assert not reg.contains_cartan(rs, [0.3, -0.3])

    def test_box_membership_d3(self):
        rs = root_system(3)
        dom = Domain("box", 2.0, (1.0, 0.5))
        assert dom.contains_cartan(rs, [1.0, 0.0, -1.0])
        assert not dom.contains_cartan(rs, [1.0, 0.8, -1.8])  # second root exceeds

    def test_max_top_weight_matches_sl2_bound(self):
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        assert dom.max_top_weight(rs) == pytest.approx(8.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


class TestProbes:
    def test_lipschitz_stability(self):
        rs = root_system(2)
        rep = lipschitz_probe(rs, "ball", [10.0], [0.1, 0.05, 0.01, 0.002])
        assert rep["finite"]
        slopes = [r["slope"] for r in rep["rows"]]
        assert max(slopes) / min(slopes) < 1.05
        assert abs(rep["C"] / rs.delta_zero() - 1.0) < 0.1

    def test_lipschitz_requires_t_above_one(self):
        with pytest.raises(ParameterError):
            lipschitz_probe(2, "ball", [0.5], [0.1])

    def test_well_rounded_conditions(self):
        rep = well_rounded_probe(3, "ball", delta=0.8, t=7.0, eps=0.01, n_samples=300)
        assert rep["samples_ok"]
        assert rep["volume_sandwich_C"] > 0.0
        zero = well_rounded_probe(2, "ball", delta=0.8, t=7.0, eps=0.0)
        assert zero["volume_sandwich_C"] == 0.0
        assert zero["vol_plus"] == zero["vol_minus"] == zero["vol_S"]

    def test_sampler_draws_as_pinned(self):
        # first sample and the next draw after 20 samples, at seed 5
        rs = root_system(3)
        cases = [
            (Domain("ball", 7.0), 0.8,
             [1.4328062121102603, 0.034959529311951384, -1.4677657414222116], 2911985062180514382),
            (Domain("box", 4.0, (1.0, 0.8)), 0.3,
             [3.0084779723732735, -0.211533722608247, -2.7969442497650268], 2335288630997192072),
        ]
        for dom, margin, first, next_draw in cases:
            rng = np.random.default_rng(5)
            ys = [_sample_chamber_point(rs, dom, margin, rng) for _ in range(20)]
            assert ys[0].tolist() == first
            assert int(rng.integers(2**62)) == next_draw

    def test_well_rounded_probe_as_pinned(self):
        rep = well_rounded_probe(3, "ball", delta=0.8, t=7.0, eps=0.01, n_samples=100)
        assert (rep["n_samples"], rep["failures"], rep["samples_ok"]) == (100, 0, True)
        for key, want in (("vol_S", 7.1148117768092805), ("vol_plus", 7.130514368961184),
                          ("vol_minus", 7.099060457840153)):
            assert abs(rep[key] - want) <= 1e-12
        assert rep["volume_sandwich_C"] == pytest.approx(3.145444141034574, rel=1e-9)

    def test_well_rounded_sandwich_stable_in_t(self):
        consts = [
            well_rounded_probe(2, "ball", delta=0.6, t=t, eps=0.02, n_samples=50)["volume_sandwich_C"]
            for t in (6.0, 8.0, 10.0)
        ]
        assert max(consts) / min(consts) < 2.0

    def test_monte_carlo_agreement(self):
        rs = root_system(3)
        dom = Domain("ball", 4.0)
        mc = monte_carlo_volume(rs, dom, n_samples=120000)
        quad = V.ball_volume(rs, 4.0)
        assert abs(mc["value"] - quad.value) < 3.0 * mc["std_err"]
