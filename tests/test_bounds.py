import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cvarvi.harness import ExperimentConfig, build_configured_game, routing_bound


class TestPointwiseBound:
    def test_small_n_vacuous(self):
        raw = pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.05), 0.5, 1)
        assert raw == pytest.approx(6.0 * math.exp(-0.05 * 0.25 / 11.0), rel=1e-12)
        assert raw > 1.0
        assert min(raw, 1.0) == 1.0

    def test_large_n_tiny(self):
        val = pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.05), 0.5, 10**6)
        assert val < 1e-300

    def test_decreasing_in_n(self):
        vals = [pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.1), 0.2, n) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("ell, big_l, epsilon, message", [
        (0.0, 1.0, math.nan, r"^epsilon must be positive, got nan$"),
        (0.0, 1.0, 0.0, r"^epsilon must be positive, got 0.0$"),
        (math.nan, 1.0, 0.5, r"^cost support \[nan, 1.0\] must be finite with L > ell$"),
        (0.0, math.nan, 0.5, r"^cost support \[0.0, nan\] must be finite with L > ell$"),
        (0.0, math.inf, 0.5, r"^cost support \[0.0, inf\] must be finite with L > ell$"),
        (-math.inf, 1.0, 0.5, r"^cost support \[-inf, 1.0\] must be finite with L > ell$"),
        (1.0, 1.0, 0.5, r"^cost support \[1.0, 1.0\] must be finite with L > ell$"),
    ], ids=["nan-eps", "zero-eps", "nan-ell", "nan-L", "infinite-L", "infinite-ell", "empty-range"])
    def test_rejects(self, ell, big_l, epsilon, message):
        with pytest.raises(ValueError, match=message):
            pointwise_deviation_bound(ell, big_l, RiskLevel(0.5), epsilon, 10)

    def test_infinite_epsilon_is_zero(self):
        assert pointwise_deviation_bound(0.0, 1.0, RiskLevel(0.5), math.inf, 10) == 0.0

    @pytest.mark.parametrize("ell, big_l, epsilon, term", [
        (0.0, 1.0, 1e200, 0.0),  # epsilon^2 overflows, as epsilon = inf
        (0.0, 1e200, 1.0, 6.0),  # (L - ell)^2 overflows
        (0.0, 1e-200, 1.0, 0.0),  # (L - ell)^2 underflows to 0
        (0.0, 1e200, 1e200, 6.0),  # both squares overflow: the exponent is inf / inf, the term vacuous
        (0.0, 1e-200, 1e-200, 6.0),  # both squares underflow: 0 / 0
    ])
    def test_squares_leaving_the_double_range(self, ell, big_l, epsilon, term):
        assert pointwise_deviation_bound(ell, big_l, RiskLevel(0.05), epsilon, 10) == term


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


def loop_simplex_lattice(n, d, k):
    """The stars-and-bars loop that simplex_lattice_cover's np.diff replaced."""
    points = []
    for combo in itertools.combinations(range(k + n - 1), n - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + n - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) * (d / k)


def loop_k_w(ods, epsilon):
    return [max(1, math.ceil(len(ods) * math.sqrt(n) * d / epsilon)) for n, d in ods]


def loop_flow_polytope_cover(ods, epsilon):
    """The per-OD lattices and the product loop that flow_polytope_cover's comprehension replaced."""
    block_covers = [loop_simplex_lattice(n, d, k) for (n, d), k in zip(ods, loop_k_w(ods, epsilon))]
    rows = []
    for combo in itertools.product(*[range(len(c)) for c in block_covers]):
        rows.append(np.concatenate([block_covers[w][i] for w, i in enumerate(combo)]))
    return np.asarray(rows)


def loop_covering_number_simplex(n, d, epsilon):
    k = max(1, math.ceil(math.sqrt(n) * d / epsilon))  # the former _simplex_k
    return math.comb(n + k - 1, k - 1)


def loop_covering_number_flow_polytope(ods, epsilon):
    total = 1
    for (n, _), k in zip(ods, loop_k_w(ods, epsilon)):
        total *= math.comb(n + k - 1, k - 1)
    return total


DEMANDS = (0.5, 1.0, 2.0, 600.0)
EPSILONS = (0.1, 0.5, 0.71, 1.0, math.sqrt(2.0), 1.5, 2.0, 1e9)
OD_LISTS = ([(2, 1.0)], [(2, 1.0), (3, 2.0)], [(2, 1.0), (2, 1.0)], [(5, 1.0), (3, 2.0)],
            [(3, 0.7), (2, 1.3), (1, 0.4)])
OD_EPSILONS = (0.5, 1.0, 1.5, 2.0, 3.0, 1e9)


class TestLatticeParity:
    """The single K_w rule and the array-built lattices give the loops' bits."""

    @pytest.mark.parametrize("d", DEMANDS)
    def test_simplex_lattice(self, d):
        for n in range(1, 6):
            for k in range(1, 8):
                new, old = simplex_lattice_cover(n, d, k), loop_simplex_lattice(n, d, k)
                assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())

    @pytest.mark.parametrize("d", DEMANDS)
    def test_covering_number_simplex(self, d):
        for n in range(1, 6):
            for eps in EPSILONS:
                assert covering_number_simplex(n, d, eps) == loop_covering_number_simplex(n, d, eps)

    @pytest.mark.parametrize("ods", OD_LISTS, ids=str)
    def test_flow_polytope(self, ods):
        for eps in OD_EPSILONS:
            assert covering_number_flow_polytope(ods, eps) == loop_covering_number_flow_polytope(ods, eps)
            new, old = flow_polytope_cover(ods, eps), loop_flow_polytope_cover(ods, eps)
            assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())


class TestCoverInputChecks:
    @pytest.mark.parametrize("function", [covering_number_flow_polytope, flow_polytope_cover])
    @pytest.mark.parametrize("ods, epsilon, message", [
        ([], 0.5, "^need at least one OD pair$"),
        ([(3, 1.0)], 0.0, "^eps must be positive, got 0.0$"),
        ([(3, 1.0)], float("nan"), "^eps must be positive, got nan$"),
        ([(0, 1.0)], 0.5, r"^OD pair 0 needs n >= 1 paths and demand d > 0, got n = 0, d = 1.0$"),
        ([(2, 1.0), (3, -1.0)], 0.5, r"^OD pair 1 needs n >= 1 paths and demand d > 0, got n = 3, d = -1.0$"),
        ([(3, 0.0)], 0.5, r"^OD pair 0 needs .*, d = 0.0$"),
        ([(2, math.inf)], 0.5, r"^OD pair 0 has demand inf: need a finite demand$"),
        ([(2, 1.0), (3, math.nan)], 0.5, r"^OD pair 1 needs .*, d = nan$"),
        ([(2, 1.0), (10**400, 1.0)], 0.5, r"^OD pair 1 has 10{400} paths: need at most 2\^53$"),
    ], ids=["no-ods", "zero-eps", "nan-eps", "no-paths", "negative-demand", "zero-demand",
            "infinite-demand", "nan-demand", "paths-beyond-doubles"])
    def test_rejects(self, function, ods, epsilon, message):
        with pytest.raises(ValueError, match=message):
            function(ods, epsilon)

    def test_infinite_epsilon_is_one_point(self):
        assert covering_number_flow_polytope([(5, 1.0), (3, 2.0)], math.inf) == 1

    def test_simplex_is_the_one_od_call(self):
        with pytest.raises(ValueError, match="^OD pair 0 needs"):
            covering_number_simplex(0, 1.0, 0.5)
        with pytest.raises(ValueError, match="^eps must be positive"):
            covering_number_simplex(2, 1.0, -0.5)


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
            path_counts=[1], alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, delta=8.0
        )
        assert report.gamma_exact == 6
        assert report.beta == pytest.approx(0.5 * 64.0 / 44.0, rel=1e-12)

    def test_routing_sioux_shape(self):
        report = exponential_bound_routing(
            path_counts=[10, 10, 10], alpha=RiskLevel(0.05), ell=0.0, big_l=10.0, m_lip=5.0, delta=1.0
        )
        factor = math.ceil(4.0 * 5.0 * 3.0 * math.sqrt(10.0) / (1.0 * 0.05))
        assert report.gamma_exact == 6 * 30 * factor**3
        assert report.beta == pytest.approx(0.05 / (44.0 * 30.0 * 100.0), rel=1e-12)

    def test_gamma_monotone_in_delta(self):
        gammas = []
        for delta in (0.1, 0.2, 0.4):
            report = exponential_bound_routing(
                path_counts=[4], alpha=RiskLevel(0.1), ell=0.0, big_l=1.0, m_lip=1.0, delta=delta
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
    kwargs = dict(path_counts=[2], alpha=RiskLevel(0.5), ell=0.0, big_l=1.0, m_lip=1.0, delta=0.1)
    return exponential_bound_routing(**{**kwargs, **change})


class TestInputChecks:
    @pytest.mark.parametrize("formula, change, message", [
        (_general, dict(n=0), "dimension"),
        (_separable, dict(n=0), "dimension"),
        (_routing, dict(path_counts=[]), "dimension"),
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
        # gamma takes the log of M in the general formula; routing's factors are at least 1.
        (_general, dict(m_lip=0.0), "^Lipschitz constant M must be finite and positive, got 0.0$"),
        (_general, dict(m_lip=-1.0), "^Lipschitz constant M must be finite and positive, got -1.0$"),
        (_general, dict(m_lip=math.nan), "^Lipschitz constant M must be finite and positive, got nan$"),
        (_routing, dict(m_lip=-1.0), "^Lipschitz constant M must be finite and nonnegative, got -1.0$"),
        (_routing, dict(m_lip=math.nan), "^Lipschitz constant M must be finite and nonnegative, got nan$"),
        (_routing, dict(m_lip=math.inf), "^Lipschitz constant M must be finite and nonnegative, got inf$"),
        (_routing, dict(path_counts=[0]), r"^every OD pair needs a path, got path counts \[0\]$"),
        (_routing, dict(path_counts=[2, 0, 3]), r"^every OD pair needs a path, got path counts \[2, 0, 3\]$"),
        # A range or scale that is not finite makes beta 0 or NaN; a NaN delta is named as delta.
        (_general, dict(big_l=math.inf), r"^cost range \[0.0, inf\] must be finite$"),
        (_routing, dict(ell=-math.inf), r"^cost range \[-inf, 1.0\] must be finite$"),
        (_general, dict(ell=math.nan), r"^cost range \[nan, 1.0\] must be finite$"),
        (_separable, dict(g_rge=math.inf), "^separable bound needs finite positive f_max and g_rge, got 1.0 and inf$"),
        (_separable, dict(f_max=math.nan), "^separable bound needs finite positive f_max and g_rge, got nan and 1.0$"),
        (_general, dict(delta=math.nan), "^delta must be positive and finite, got nan$"),
        (_routing, dict(delta=math.inf), "^delta must be positive and finite, got inf$"),
        (_general, dict(diam_x=math.inf), r"^diam\(X\) must be finite and positive, got inf$"),
    ])
    def test_rejects(self, formula, change, message):
        with pytest.raises(ValueError, match=message):
            formula(**change)

    def test_routing_at_zero_lipschitz_constant(self):
        # One point covers each OD's simplex when the cost does not vary: factor 1 per OD.
        report = _routing(path_counts=[10, 10, 10], m_lip=0.0, zeta=0.05)
        assert report.gamma_exact == 6 * 30
        assert report.ln_gamma == math.log(180)
        assert report.n_samples == math.ceil((math.log(180) - math.log(0.05)) / report.beta)

    def test_accepts_the_edges(self):
        # n = 1, delta just below diam/2 and tiny positive scales are valid.
        assert _general(n=1, delta=0.4999).ln_gamma > 0
        assert _routing(path_counts=[1], delta=1e-9).gamma_exact > 0
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


# Finite floats, with the magnitudes at which a square, a product or a
# quotient leaves the double range put in by hand.
EXTREMES = (1e300, -1e300, 1e-300, -1e-300, 1e200, 1e-200, 1e-153, 1e-158, 2e-149, 1e-310, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 1.0, 2.0)
REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
LEVELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from((5e-324, 1e-300, 0.05, 0.5))
ZETAS = st.none() | REALS | st.sampled_from((0.05, 1e-300))
COUNTS = st.integers(-1, 40) | st.sampled_from((2**53, 2**53 + 1, 10**400))


def value_or_value_error(call):
    """call(), or None where it raises ValueError; any other exception fails the test."""
    try:
        return call()
    except ValueError:
        return None


def assert_rate(report, zeta):
    """Some finite N brings gamma exp(-beta N) below 1, and N(zeta) is a count."""
    assert report.beta > 0 and math.isfinite(report.ln_gamma / report.beta)
    if zeta is not None:
        assert type(report.n_samples) is int and report.n_samples >= 1


class TestFiniteInputs:
    """Every finite input gives a result or a ValueError, never another
    exception: no square, product, quotient or count overflows into an
    OverflowError or ZeroDivisionError. The explicit lattice covers are
    left out, as their size is the covering number itself."""

    @settings(max_examples=300, deadline=None)
    @given(ell=REALS, big_l=REALS, alpha=LEVELS, epsilon=REALS, n_samples=COUNTS | st.integers(1, 10**12))
    def test_pointwise(self, ell, big_l, alpha, epsilon, n_samples):
        term = value_or_value_error(
            lambda: pointwise_deviation_bound(ell, big_l, RiskLevel(alpha), epsilon, n_samples))
        assert term is None or (type(term) is float and 0.0 <= term <= 6.0)

    @settings(max_examples=300, deadline=None)
    @given(ods=st.lists(st.tuples(COUNTS.filter(lambda n: n < 8), REALS), max_size=3), epsilon=REALS)
    def test_covering_numbers(self, ods, epsilon):
        count = value_or_value_error(lambda: covering_number_flow_polytope(ods, epsilon))
        assert count is None or (type(count) is int and count >= 1)
        if len(ods) == 1:
            assert value_or_value_error(lambda: covering_number_simplex(*ods[0], epsilon)) == count

    @settings(max_examples=300, deadline=None)
    @given(n=COUNTS, alpha=LEVELS, ell=REALS, big_l=REALS, m_lip=REALS, diam_x=REALS, delta=REALS, zeta=ZETAS)
    def test_general(self, n, alpha, ell, big_l, m_lip, diam_x, delta, zeta):
        report = value_or_value_error(
            lambda: exponential_bound_general(n, RiskLevel(alpha), ell, big_l, m_lip, diam_x, delta, zeta))
        if report is not None:
            assert_rate(report, zeta)

    @settings(max_examples=300, deadline=None)
    @given(n=COUNTS, alpha=LEVELS, f_max=REALS, g_rge=REALS, delta=REALS, zeta=ZETAS)
    def test_separable(self, n, alpha, f_max, g_rge, delta, zeta):
        report = value_or_value_error(
            lambda: exponential_bound_separable(n, RiskLevel(alpha), f_max, g_rge, delta, zeta))
        if report is not None:
            assert_rate(report, zeta)

    @settings(max_examples=300, deadline=None)
    @given(path_counts=st.lists(COUNTS, max_size=4), alpha=LEVELS, ell=REALS, big_l=REALS,
           m_lip=REALS | st.just(0.0), delta=REALS, zeta=ZETAS)
    def test_routing(self, path_counts, alpha, ell, big_l, m_lip, delta, zeta):
        report = value_or_value_error(
            lambda: exponential_bound_routing(path_counts, RiskLevel(alpha), ell, big_l, m_lip, delta, zeta))
        if report is not None:
            assert_rate(report, zeta)
            assert report.ln_gamma == math.log(report.gamma_exact)

    @settings(max_examples=100, deadline=None)
    @given(delta=REALS, zeta=ZETAS)
    def test_routing_bound_of_the_default_game(self, default_game, delta, zeta):
        report = value_or_value_error(lambda: routing_bound(default_game, delta, zeta))
        if report is not None:
            assert_rate(report, zeta)

    @pytest.mark.parametrize("call, message", [
        (lambda: covering_number_flow_polytope([(3, 1e300)], 1e-300),
         r"K_w of OD pair 0 = 1.7320508075688774e\+300 / 1e-300 overflows a double"),
        (lambda: flow_polytope_cover([(3, 1e300)], 1e-300),
         r"K_w of OD pair 0 = 1.7320508075688774e\+300 / 1e-300 overflows a double"),
        (lambda: _routing(path_counts=[10, 10, 10], alpha=RiskLevel(0.05), delta=1e-310),
         r"gamma's factor of OD 0 = 37.94733192202055 / 5e-312 overflows a double"),
        (lambda: _routing(delta=5e-324), r"gamma's factor of OD 0 = 5.656854249492381 / 0.0 overflows a double"),
        (lambda: _general(delta=5e-324), r"12 M diam / \(delta alpha\) = 12.0 / 0.0 overflows a double"),
        (lambda: _general(big_l=1e200), r"no finite N brings gamma exp\(-beta N\) below 1: "
                                        r"ln gamma = \S+, beta = 0.0"),
        (lambda: _separable(alpha=RiskLevel(0.5), delta=1e-200),
         r"no finite N brings gamma exp\(-beta N\) below 1: ln gamma = 1.791759469228055, beta = 0.0"),
        # beta is positive, but ln gamma / beta overflows.
        (lambda: _separable(alpha=RiskLevel(0.5), delta=1e-158),
         r"no finite N brings gamma exp\(-beta N\) below 1: ln gamma = 1.791759469228055, beta = 4.5\d*e-318"),
        # ln gamma / beta is finite, but (ln gamma - ln zeta) / beta overflows.
        (lambda: _separable(alpha=RiskLevel(0.5), delta=1e-153, zeta=1e-300),
         r"N\(zeta\) = \S+ / \S+ overflows a double"),
        (lambda: _separable(n=2**53 + 1),
         r"decision dimension must be positive and at most 2\^53, got 9007199254740993"),
    ], ids=["cover-count", "cover-lattice", "routing-factor", "routing-subnormal-delta", "general-subnormal-delta",
            "general-huge-range", "separable-beta-underflows", "separable-rate-overflows", "separable-n-zeta-overflows",
            "separable-huge-n"])
    def test_refused_with_what_overflowed(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_beta_overflowing_to_inf_needs_one_sample(self):
        # alpha delta^2 overflows, or c n w^2 underflows to 0: the tail is 0 from N = 1.
        for report in (_separable(delta=1e200, zeta=0.05), _separable(f_max=1e-200, g_rge=1e-200, zeta=0.05)):
            assert (report.beta, report.n_samples, report.gamma) == (math.inf, 1, pytest.approx(6.0))


@pytest.fixture(scope="module")
def default_game():
    return build_configured_game(ExperimentConfig())
