import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvarvi import cvar
from cvarvi.cvar import (
    RiskLevel,
    SampleBatch,
    cvar_from_values,
    cvar_of_row_stream,
    cvar_uniform_interval,
    empirical_cvar,
    empirical_cvar_lp,
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


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def due_at_last_row(n_rows, n_sets):
    """A schedule that reduces every row set as the last row arrives and drops no row."""
    return [(tuple(range(n_sets)) if i == n_rows - 1 else (), ()) for i in range(n_rows)]


def stack_cvar(draws, row_sets, alpha):
    """cvar_of_row_stream of a stack of draw matrices (R, E, N), through views of its rows."""
    n_reps, n_rows, n = draws.shape
    return cvar_of_row_stream((draws[:, i] for i in range(n_rows)), (n_reps, n), row_sets,
                              due_at_last_row(n_rows, len(row_sets)), alpha)


class TestEqualWeightCvar:
    """The block reduction must reproduce the sort route bit for bit."""

    @staticmethod
    def assert_bitwise(values, alpha, n_rows=1):
        # The values fill up to n_rows equal rows, a remainder dropped, and
        # the same rows reversed make a second draw matrix; the oracle
        # reduces each matrix's left-to-right row sum.
        values = np.asarray(values, dtype=float)
        m = min(n_rows, len(values))
        rows = values[: len(values) // m * m].reshape(m, -1)
        draws = np.stack([rows, rows[:, ::-1]])
        kept = draws.copy()
        got = stack_cvar(draws, [tuple(range(m))], alpha)
        want = [[cvar_from_values(np.add.accumulate(matrix)[-1], alpha)[0]] for matrix in draws]
        assert got.shape == (2, 1)
        assert bits(got) == bits(want), (got, want)
        assert draws.tobytes() == kept.tobytes()

    # Ties of +0.0 and -0.0 compare equal but sign a zero tail differently:
    # the sort route takes the first ones in index order.
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(finite_floats | st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0]),
                        min_size=1, max_size=300),
        alpha=st.floats(min_value=0.001, max_value=0.999),
        n_rows=st.integers(1, 4),
    )
    @example(values=[0.0, -0.0, -0.0], alpha=0.5, n_rows=1)
    @example(values=[-0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0], alpha=0.5, n_rows=2)
    def test_matches_sort_route(self, values, alpha, n_rows):
        self.assert_bitwise(values, alpha, n_rows)

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


def running_sum_tail_index(n, alpha):
    """Oracle: a prefix of the running sums of 1/n, added in Python floats
    until the next one reaches alpha; `_tail_index` forms all n of them."""
    before, k = 0.0, 0
    while k < n - 1 and before + 1.0 / n < alpha - 1e-12:
        before, k = before + 1.0 / n, k + 1
    return k, before


class TestTailIndex:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 10**5), alpha=st.floats(1e-6, 1.0 - 1e-6), integral=st.booleans())
    def test_prefix_matches_all_running_sums(self, n, alpha, integral):
        # alpha = m/n puts the target a hair from a running sum.
        if integral:
            alpha = min(n - 1, max(1, round(alpha * n))) / n if n > 1 else alpha
        assert cvar._tail_index.__wrapped__(n, alpha) == running_sum_tail_index(n, alpha)

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 500, 5000, 10**6])
    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5, 0.95, 0.999999])
    def test_pinned(self, n, alpha):
        assert cvar._tail_index.__wrapped__(n, alpha) == running_sum_tail_index(n, alpha)


class TestReducerScratchBuffer:
    """The reduction sums into its own scratch rows: each call sees only its draws."""

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_matches_sort_route_bytewise(self, n, alpha):
        values = np.random.default_rng(n).uniform(0.0, 4.0, n)
        got = stack_cvar(values[None, None], [(0,)], alpha)
        assert bits(got) == bits([[cvar_from_values(values, alpha)[0]]])

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_one_reducer_on_two_arrays(self, n):
        # Two calls, each on a block of two draw matrices.
        rng = np.random.default_rng(n + 1)
        first, second = rng.uniform(0.0, 4.0, n), np.round(rng.uniform(-2.0, 2.0, n))
        kept = first.copy(), second.copy()
        results = [stack_cvar(np.stack([a, b])[:, None], [(0,)], 0.05)
                   for a, b in ((first, second), (second, first))]
        one, other = cvar_from_values(first, 0.05)[0], cvar_from_values(second, 0.05)[0]
        assert bits(results) == bits([[[one], [other]], [[other], [one]]])
        assert first.tobytes() == kept[0].tobytes() and second.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_one_reducer_on_four_rows_then_one(self, n):
        # One sum row: the two row sets are summed and reduced in turn.
        rows = np.random.default_rng(n + 2).uniform(0.0, 4.0, (4, n))
        kept = rows.copy()
        got = stack_cvar(rows[None], [(0, 1, 2, 3), (2,)], 0.05)
        want = [cvar_from_values(((rows[0] + rows[1]) + rows[2]) + rows[3], 0.05)[0],
                cvar_from_values(rows[2], 0.05)[0]]
        assert bits(got) == bits([want])
        assert rows.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("draws, row_sets, shape", [
        (np.zeros((0, 2, 50)), [(0,), (0, 1), (1,)], (0, 3)),
        (np.ones((3, 2, 50)), [], (3, 0)),
        (np.zeros((0, 2, 50)), [], (0, 0)),
    ], ids=["no draw matrices", "no row sets", "neither"])
    def test_empty_input_gives_an_empty_array(self, draws, row_sets, shape):
        got = stack_cvar(draws, row_sets, 0.05)
        assert got.shape == shape and got.dtype == np.float64


class TestRowStream:
    """Rows arrive one at a time; each is held until its last row set is reduced, and no longer."""

    # (0, 1) is a prefix of (0, 1, 3); (2,) is a lone row; (1, 4) ends the stream.
    ROW_SETS = [(0, 1, 3), (2,), (0, 1), (1, 4)]
    # Per row: the sets its arrival completes, then the rows no later set reads.
    SCHEDULE = [((), ()), ((2,), ()), ((1,), (2,)), ((0,), (0, 3)), ((3,), (1, 4))]
    # Before row i arrives, the earlier rows some set still needs.
    HELD_BEFORE = [set(), {0}, {0, 1}, {0, 1}, {1}]

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_rows_held_until_their_last_use(self, n):
        data = np.random.default_rng(n + 3).uniform(0.0, 4.0, (5, 2, n))
        data[:, 1] = np.round(data[:, 1])  # tied sums in the second matrix
        refs, held_before = [], []

        def stream():
            for row in data:
                held_before.append({i for i, ref in enumerate(refs) if ref() is not None})
                fresh = row.copy()
                refs.append(weakref.ref(fresh))
                yield fresh
                del fresh

        got = cvar_of_row_stream(stream(), (2, n), self.ROW_SETS, self.SCHEDULE, 0.05)
        assert held_before == self.HELD_BEFORE
        assert all(ref() is None for ref in refs)
        assert bits(got) == bits(stack_cvar(data.transpose(1, 0, 2), self.ROW_SETS, 0.05))
        want = [[cvar_from_values((matrix[0] + matrix[1]) + matrix[3], 0.05)[0], cvar_from_values(matrix[2], 0.05)[0],
                 cvar_from_values(matrix[0] + matrix[1], 0.05)[0], cvar_from_values(matrix[1] + matrix[4], 0.05)[0]]
                for matrix in data.transpose(1, 0, 2)]
        assert bits(got) == bits(want)


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
