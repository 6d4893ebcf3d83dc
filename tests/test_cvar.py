import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarvi.cvar import (
    RiskLevel,
    SampleBatch,
    cvar_from_values,
    cvar_uniform_interval,
    empirical_cvar,
    empirical_cvar_lp,
    equal_weight_cvar,
)
from cvarvi.tables import fmt, format_table, read_table


def tgrid_cvar(values, alpha, refinements=3, grid=1000):
    """Oracle: minimize t + (1/(N a)) sum [v - t]_+ on staged refined
    t-grids. The objective is piecewise-linear convex, so bracketing the
    coarse minimizer and refining converges to the true minimum."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if lo == hi:
        return lo, lo
    best_t = lo
    for _ in range(refinements + 1):
        ts = np.linspace(lo, hi, grid)
        obj = ts + np.maximum(values[None, :] - ts[:, None], 0.0).sum(axis=1) / (len(values) * alpha)
        i = int(np.argmin(obj))
        best_t = ts[i]
        step = ts[1] - ts[0]
        lo, hi = best_t - step, best_t + step
    obj_best = best_t + np.maximum(values - best_t, 0.0).sum() / (len(values) * alpha)
    return obj_best, best_t


def batch(values):
    return SampleBatch(values=tuple(values))


class TestPinnedValues:
    def test_four_point_half(self):
        est = empirical_cvar(batch([1, 2, 3, 4]), RiskLevel(0.5))
        assert est.value == pytest.approx(3.5, abs=1e-12)
        assert est.t_star == pytest.approx(2.0)

    def test_four_point_quarter(self):
        est = empirical_cvar(batch([1, 2, 3, 4]), RiskLevel(0.25))
        assert est.value == pytest.approx(4.0, abs=1e-12)

    def test_uniform_interval(self):
        assert cvar_uniform_interval(0.0, 1.0, RiskLevel(0.5)) == pytest.approx(0.75)

    def test_lp_matches_order_statistic_pin(self):
        est = empirical_cvar_lp(batch([1, 2, 3, 4]), RiskLevel(0.5))
        assert est.value == pytest.approx(3.5, abs=1e-10)

    def test_lp_fractional_tail(self):
        est = empirical_cvar_lp(batch([0, 0, 0, 1]), RiskLevel(0.75))
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestOracles:
    def test_tgrid_oracle_random_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            values = rng.normal(size=n) * rng.uniform(0.5, 10)
            alpha = float(rng.uniform(0.01, 0.99))
            est = empirical_cvar(batch(values), RiskLevel(alpha))
            oracle, _ = tgrid_cvar(values, alpha)
            assert est.value == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_lp_oracle_random_batches(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            values = rng.normal(size=n)
            alpha = float(rng.uniform(0.05, 0.95))
            a = empirical_cvar(batch(values), RiskLevel(alpha)).value
            b = empirical_cvar_lp(batch(values), RiskLevel(alpha)).value
            assert a == pytest.approx(b, abs=1e-10)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        shift=st.floats(min_value=-100, max_value=100),
    )
    def test_translation_equivariance(self, values, alpha, shift):
        base = empirical_cvar(batch(values), RiskLevel(alpha)).value
        shifted = empirical_cvar(batch([v + shift for v in values]), RiskLevel(alpha)).value
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_positive_homogeneity(self, values, alpha, scale):
        base = empirical_cvar(batch(values), RiskLevel(alpha)).value
        scaled = empirical_cvar(batch([v * scale for v in values]), RiskLevel(alpha)).value
        assert scaled == pytest.approx(base * scale, rel=1e-12, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=2, max_size=50),
        a1=st.floats(min_value=0.02, max_value=0.5),
        a2=st.floats(min_value=0.5, max_value=0.98),
    )
    def test_monotone_in_alpha(self, values, a1, a2):
        # Shrinking alpha focuses on a worse tail, so CVaR cannot decrease.
        hi = empirical_cvar(batch(values), RiskLevel(a1)).value
        lo = empirical_cvar(batch(values), RiskLevel(a2)).value
        assert hi >= lo - 1e-9 * (1 + abs(hi))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_between_mean_and_max(self, values, alpha):
        est = empirical_cvar(batch(values), RiskLevel(alpha)).value
        arr = np.asarray(values, dtype=float)
        slack = 1e-9 * (1 + np.abs(arr).max())
        assert arr.mean() - slack <= est <= arr.max() + slack

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_t_star_in_optimizer_interval(self, values, alpha):
        est = empirical_cvar(batch(values), RiskLevel(alpha))
        assert min(values) <= est.t_star <= max(values)


class TestEqualWeightCvar:
    """The selection route must reproduce the sort route bit for bit."""

    @staticmethod
    def assert_bitwise(values, alpha):
        values = np.asarray(values, dtype=float)
        got = equal_weight_cvar(len(values), alpha)(values)
        want = cvar_from_values(values, alpha)[0]
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(finite_floats | st.integers(-3, 3).map(float), min_size=1, max_size=300),
        alpha=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_matches_sort_route(self, values, alpha):
        self.assert_bitwise(values, alpha)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 2000), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    def test_matches_sort_route_at_integral_alpha_n(self, n, share, seed, ties):
        # alpha = m/n rounds, so the accumulated 1/n masses may land a hair
        # on either side of it: the shared tail rule decides.
        m = min(n - 1, max(1, round(share * n)))
        values = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
        self.assert_bitwise(np.round(values) if ties else values, m / n)

    # alpha N < 1 selects one draw (k = 0); at N = 257 that needs the exact
    # maximum, which a selection one place short does not deliver.
    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20, 21, 100, 257, 12345])
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.07, 0.1, 1 / 3, 0.5, 0.95])
    def test_matches_sort_route_pinned(self, n, alpha):
        rng = np.random.default_rng(n)
        self.assert_bitwise(rng.uniform(0.0, 4.0, n), alpha)
        self.assert_bitwise(np.round(rng.uniform(0.0, 4.0, n)), alpha)


class TestReducerScratchBuffer:
    """The reducer selects in its own buffer: each call sees only its argument."""

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_matches_sort_route_bytewise(self, n, alpha):
        values = np.random.default_rng(n).uniform(0.0, 4.0, n)
        got = equal_weight_cvar(n, alpha)(values)
        assert np.float64(got).tobytes() == np.float64(cvar_from_values(values, alpha)[0]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_one_reducer_on_two_arrays(self, n):
        rng = np.random.default_rng(n + 1)
        first, second = rng.uniform(0.0, 4.0, n), np.round(rng.uniform(-2.0, 2.0, n))
        kept = first.copy(), second.copy()
        reduce = equal_weight_cvar(n, 0.05)
        results = [reduce(first), reduce(second), reduce(first)]
        want = [cvar_from_values(v, 0.05)[0] for v in (first, second, first)]
        assert np.array(results).tobytes() == np.array(want).tobytes()
        assert first.tobytes() == kept[0].tobytes() and second.tobytes() == kept[1].tobytes()


class TestLpMemory:
    def test_constraint_matrix_is_sparse(self):
        # A dense N x (N + 1) constraint matrix alone is 128 MB at N = 4000.
        samples = batch(np.random.default_rng(0).uniform(size=4000))
        tracemalloc.start()
        try:
            est = empirical_cvar_lp(samples, RiskLevel(0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert est.value == pytest.approx(empirical_cvar(samples, RiskLevel(0.1)).value, abs=1e-10)


class TestValidation:
    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                RiskLevel(bad)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            SampleBatch(values=())

    def test_nonfinite_batch(self):
        with pytest.raises(ValueError):
            SampleBatch(values=(1.0, float("nan")))

    def test_two_dimensional_batch(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SampleBatch(values=np.ones((2, 3)))

    def test_degenerate_uniform(self):
        with pytest.raises(ValueError):
            cvar_uniform_interval(1.0, 1.0, RiskLevel(0.5))


class TestSampleBatchStorage:
    def test_copies_its_input(self):
        source = np.array([1.0, 2.0, 3.0])
        b = SampleBatch(values=source)
        source[0] = 99.0
        assert b.values.tolist() == [1.0, 2.0, 3.0]

    def test_values_are_read_only(self):
        b = batch([1.0, 2.0])
        with pytest.raises(ValueError):
            b.values[0] = 5.0

    def test_float_array(self):
        b = batch([1, 2, 3])
        assert b.values.dtype == np.float64 and b.values.shape == (3,)


class TestCsvRoundTrip:
    """The one table syntax of `cvarvi.tables`, on a `value` sample file
    as `cvarvi estimate` reads it."""

    def test_round_trip(self):
        rows = read_table("value\n1.5\n\n-2.25\n  \n3.125\n", ("value",), "samples.csv")
        b = SampleBatch(values=[float(v) for (v,) in rows])
        assert b.values.tolist() == [1.5, -2.25, 3.125]
        assert format_table(("value",), [(v,) for v in b.values]) == "value\n1.5\n-2.25\n3.125\n"

    def test_header_required(self):
        with pytest.raises(ValueError, match="^samples.csv, line 1: expected the header 'value', got '1'$"):
            read_table("1\n2\n", ("value",), "samples.csv")

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_text_has_no_header(self, text):
        with pytest.raises(ValueError, match="^stdin, line 1: expected the header 'value', got ''$"):
            read_table(text, ("value",), "stdin")

    @pytest.mark.parametrize("row, count", [("1.5,2", 2), ("", None), (",", 2)])
    def test_wrong_cell_count_names_the_line(self, row, count):
        text = f"value\n1\n\n{row}\n"
        if count is None:  # a blank line is skipped, not a row
            assert read_table(text, ("value",), "s.csv") == [["1"]]
        else:
            with pytest.raises(ValueError, match=f"^s.csv, line 4: expected 1 cells, got {count}$"):
                read_table(text, ("value",), "s.csv")

    def test_blank_lines_and_crlf_skipped(self):
        text = "\r\n a , b \r\n1,2\r\n\r\n\t\r\n3, 4\r\n"
        assert read_table(text, ("a", "b"), "t.csv") == [["1", "2"], ["3", "4"]]

    def test_cell_format(self):
        assert [fmt(v) for v in (0.1, 2.0, np.float64(1 / 3), float("nan"), True, False, 7, "ok")] == [
            "0.10000000000000001", "2", "0.33333333333333331", "nan", "true", "false", "7", "ok"
        ]

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_floats_read_back_bit_for_bit(self, values):
        rows = read_table(format_table(("x", "y"), [(v, -v) for v in values]), ("x", "y"), "t")
        assert [(float(x), float(y)) for x, y in rows] == [(v, -v) for v in values]
