import math

import numpy as np
import pytest

from cvarvi.bounds import (
    covering_number_flow_polytope,
    covering_number_simplex,
    exponential_bound_general,
    exponential_bound_routing,
    exponential_bound_separable,
    flow_polytope_cover,
    pointwise_deviation_bound,
    simplex_lattice_cover,
)
from cvarvi.cvar import RiskLevel


class TestPointwiseBound:
    def test_small_n_vacuous(self):
        raw = pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.05), 0.5, 1, clip=False)
        assert raw == pytest.approx(6.0 * math.exp(-0.05 * 0.25 / 11.0), rel=1e-12)
        assert pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.05), 0.5, 1) == 1.0

    def test_large_n_tiny(self):
        val = pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.05), 0.5, 10**6, clip=False)
        assert val < 1e-300

    def test_decreasing_in_n(self):
        vals = [
            pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.1), 0.2, n, clip=False)
            for n in (10, 100, 1000)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestCoveringNumbers:
    def test_simplex_hand_binomials(self):
        assert covering_number_simplex(2, 1.0, 0.71) == 3
        assert covering_number_simplex(2, 1.0, math.sqrt(2.0)) == 1
        # K = 2 for n = 3 needs eps in [sqrt(3)/2, sqrt(3)).
        assert covering_number_simplex(3, 1.0, 0.9) == 4

    def test_flow_polytope_reduces_to_simplex(self):
        eps = 0.71
        assert covering_number_flow_polytope([(2, 1.0)], eps) == covering_number_simplex(2, 1.0, eps)

    def test_flow_polytope_product(self):
        # Two identical ODs; |W| = 2 doubles the K numerator.
        eps = 2.0 * math.sqrt(2.0) / 2.0  # K_w = ceil(2*sqrt(2)*1/eps) = 2
        val = covering_number_flow_polytope([(2, 1.0), (2, 1.0)], eps)
        assert val == 3 * 3

    def test_flow_polytope_huge_epsilon(self):
        assert covering_number_flow_polytope([(5, 1.0), (3, 2.0)], 1e9) == 1

    def test_big_integer_exact(self):
        val = covering_number_simplex(30, 600.0, 0.5)
        assert isinstance(val, int)
        assert val > 10**30


class TestLatticeCovers:
    def test_lattice_points_lie_on_simplex(self):
        pts = simplex_lattice_cover(3, 2.0, 4)
        assert np.all(pts >= 0)
        assert np.allclose(pts.sum(axis=1), 2.0)

    def test_lattice_cardinality_stars_and_bars(self):
        for n in range(1, 5):
            for k in range(1, 7):
                pts = simplex_lattice_cover(n, 1.0, k)
                assert len(pts) == math.comb(n + k - 1, n - 1)
                assert len(np.unique(pts, axis=0)) == len(pts)

    def test_lattice_covers_random_points(self):
        rng = np.random.default_rng(0)
        for n, k in [(2, 3), (3, 4), (4, 6)]:
            d = 1.0
            pts = simplex_lattice_cover(n, d, k)
            eps = math.sqrt(n) * d / k
            samples = rng.dirichlet(np.ones(n), size=2000) * d
            dists = np.linalg.norm(samples[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
            assert dists.max() <= eps + 1e-12

    def test_product_cover_covers_flows(self):
        rng = np.random.default_rng(1)
        ods = [(2, 1.0), (3, 2.0)]
        eps = 2.0
        cover = flow_polytope_cover(ods, eps)
        samples = np.hstack(
            [rng.dirichlet(np.ones(2), size=1000) * 1.0, rng.dirichlet(np.ones(3), size=1000) * 2.0]
        )
        dists = np.linalg.norm(samples[:, None, :] - cover[None, :, :], axis=2).min(axis=1)
        assert dists.max() <= eps + 1e-12


class TestExponentialBounds:
    # 12 M diam / (delta alpha) = 240; ceil(n/2)!/(2 pi^(n/2)) is 1/(2 sqrt(pi)),
    # 1/(2 pi) and 2/(2 pi^(3/2)) at n = 1, 2, 3.
    @pytest.mark.parametrize("n, expected_gamma", [
        (1, 6.0 * 240.0 / (2.0 * math.sqrt(math.pi))),
        (2, 12.0 * 240.0**2 / (2.0 * math.pi)),
        (3, 18.0 * 240.0**3 * 2.0 / (2.0 * math.pi**1.5)),
    ], ids=["1", "2", "3"])
    def test_general_pinned(self, n, expected_gamma):
        report = exponential_bound_general(
            n=n, alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, diam_x=1.0, delta=0.1
        )
        assert report.gamma == pytest.approx(expected_gamma, rel=1e-12)
        assert report.ln_gamma == pytest.approx(math.log(expected_gamma), rel=1e-12)
        assert report.beta == pytest.approx(0.5 * 0.01 / (44.0 * n), rel=1e-12)

    def test_general_alpha_scaling(self):
        base = dict(n=2, ell=0.0, big_l=1.0, m_lip=1.0, diam_x=1.0, delta=0.1)
        g1 = exponential_bound_general(alpha=RiskLevel(0.5), **base)
        g2 = exponential_bound_general(alpha=RiskLevel(0.25), **base)
        # Halving alpha doubles the gamma base per dimension and halves beta.
        assert math.exp(g2.ln_gamma - g1.ln_gamma) == pytest.approx(4.0, rel=1e-9)
        assert g2.beta == pytest.approx(g1.beta / 2.0, rel=1e-12)

    def test_separable_pinned(self):
        report = exponential_bound_separable(
            n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=0.1
        )
        assert report.gamma == pytest.approx(6.0)
        assert report.beta == pytest.approx(0.05 * 0.01 / 11.0, rel=1e-12)

    def test_separable_sigma_derives_delta(self):
        report = exponential_bound_separable(
            n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=2.0 * 0.05
        )
        assert report.beta == pytest.approx(0.05 * 0.01 / 11.0, rel=1e-12)

    def test_routing_pinned(self):
        report = exponential_bound_routing(
            ods=[(1, 1.0)], alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, delta=8.0
        )
        assert report.gamma_exact == 6
        assert report.beta == pytest.approx(0.5 * 64.0 / 44.0, rel=1e-12)

    def test_routing_sioux_shape(self):
        ods = [(10, 300.0), (10, 600.0), (10, 200.0)]
        report = exponential_bound_routing(
            ods=ods, alpha=RiskLevel(0.05), ell=0.0, big_l=10.0, m_lip=5.0, delta=1.0
        )
        factor = math.ceil(4.0 * 5.0 * 3.0 * math.sqrt(10.0) / (1.0 * 0.05))
        assert report.gamma_exact == 6 * 30 * factor**3
        assert report.beta == pytest.approx(0.05 / (44.0 * 30.0 * 100.0), rel=1e-12)

    def test_gamma_monotone_in_delta(self):
        ods = [(4, 1.0)]
        gammas = []
        for delta in (0.1, 0.2, 0.4):
            report = exponential_bound_routing(
                ods=ods, alpha=RiskLevel(0.1), ell=0.0, big_l=1.0, m_lip=1.0, delta=delta
            )
            gammas.append(report.gamma_exact)
        assert gammas[0] >= gammas[1] >= gammas[2]


def _general(**change):
    kwargs = dict(n=1, alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, diam_x=1.0, delta=0.1)
    return exponential_bound_general(**{**kwargs, **change})


def _separable(**change):
    kwargs = dict(n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=0.1)
    return exponential_bound_separable(**{**kwargs, **change})


def _routing(**change):
    kwargs = dict(ods=[(2, 1.0)], alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, delta=0.1)
    return exponential_bound_routing(**{**kwargs, **change})


class TestInputChecks:
    @pytest.mark.parametrize("formula, change, message", [
        (_general, dict(n=0), "dimension"),
        (_separable, dict(n=0), "dimension"),
        (_routing, dict(ods=[]), "dimension"),
        (_general, dict(ell=2.0), "inverted"),
        (_routing, dict(ell=2.0), "inverted"),
        (_general, dict(delta=0.0), "delta must be positive"),
        (_separable, dict(delta=-0.1), "delta must be positive"),
        (_routing, dict(delta=0.0), "delta must be positive"),
        (_general, dict(delta=0.5), "diam"),
        (_separable, dict(f_max=0.0), "f_max and g_rge"),
        (_separable, dict(f_max=-1.0), "f_max and g_rge"),
        (_separable, dict(g_rge=0.0), "f_max and g_rge"),
        (_separable, dict(g_rge=-1.0), "f_max and g_rge"),
        # ell = L would divide beta by zero; separable reads no cost range.
        (_general, dict(ell=1.0), "need ell < L"),
        (_routing, dict(ell=1.0), "need ell < L"),
    ])
    def test_rejects(self, formula, change, message):
        with pytest.raises(ValueError, match=message):
            formula(**change)

    def test_accepts_the_edges(self):
        # n = 1, delta just below diam/2 and tiny positive scales are valid.
        assert _general(n=1, delta=0.4999).ln_gamma > 0
        assert _routing(ods=[(1, 1.0)], delta=1e-9).gamma_exact > 0
        assert _separable(f_max=1e-9, g_rge=1e-9).beta > 0


class TestSampleSize:
    def test_pinned_value(self):
        # gamma = 6, beta = 1e-4, zeta = 0.05 -> ceil(1e4 ln 120) = 47875.
        report = exponential_bound_separable(
            n=1, alpha=RiskLevel(0.05), f_max=1.0, g_rge=1.0, delta=1.0, zeta=0.05
        )
        # Independent re-evaluation with the report's own constants.
        expected = math.ceil((report.ln_gamma - math.log(0.05)) / report.beta)
        assert report.n_samples == expected
        n_direct = math.ceil(math.log(6.0 / 0.05) / (0.05 / 11.0))
        assert report.n_samples == n_direct

    def test_hand_arithmetic(self):
        # Direct check of the planner arithmetic at gamma=6, beta=1e-4.
        assert math.ceil(1e4 * math.log(6.0 / 0.05)) == 47875

    def test_floor_at_one(self):
        report = exponential_bound_separable(
            n=1, alpha=RiskLevel(0.5), f_max=1.0, g_rge=1.0, delta=1.0, zeta=6.0 / 6.0001
        )
        assert report.n_samples >= 1
