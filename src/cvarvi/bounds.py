"""Explicit sample-complexity constants for CVaR-based VI approximation.

Covers three bound families: the general uniform exponential bound built
from a covering of the decision set, the tighter bound for costs that
separate into a decision factor and an uncertainty factor, and the routing
specialization over the flow polytope. Covering numbers of simplices and
the flow polytope are exact big-integer binomials; the general gamma
constant is tracked in log-space because it overflows doubles quickly.

Each tail is gamma exp(-beta N), beta = alpha delta^2 / (c n w^2), formed
once (`_finalize`) from products, so an overflow gives inf, not an error; a
rate with no finite N bringing it below 1 is a ValueError, as is a count or
division by delta alpha that overflows (`_ratio`, the one checked rule).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cvar import RiskLevel

__all__ = [
    "BoundReport",
    "pointwise_deviation_bound",
    "covering_number_simplex",
    "covering_number_flow_polytope",
    "simplex_lattice_cover",
    "flow_polytope_cover",
    "exponential_bound_general",
    "exponential_bound_separable",
    "exponential_bound_routing",
]


@dataclass
class BoundReport:
    gamma: float  # math.inf when it overflows doubles
    ln_gamma: float
    beta: float
    formula_id: str
    n_samples: Optional[int] = None
    gamma_exact: Optional[int] = None  # populated by the routing formula


def pointwise_deviation_bound(ell: float, big_l: float, alpha: RiskLevel, epsilon: float, n_samples: int) -> float:
    """Probability bound 6 exp(-alpha eps^2 N / (11 (L-l)^2)) on the
    deviation between a CVaR and its N-sample empirical estimate.

    Returned raw, so terms can be summed in a union bound; a value above
    one is vacuous.
    """
    if not -math.inf < ell < big_l < math.inf:  # NaN fails too
        raise ValueError(f"cost support [{ell}, {big_l}] must be finite with L > ell")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= n_samples <= 2**53:  # a count the exponent multiplies as a double
        raise ValueError(f"need 1 to 2^53 samples, got {n_samples}")
    w = big_l - ell
    # Squares as products: a huge epsilon gives 0.0, a huge range 6.0, both (inf / inf, or 0 / 0) the vacuous 6.0.
    num, den = alpha.alpha * (epsilon * epsilon) * n_samples, 11.0 * (w * w)
    exponent = num / den if den else math.inf * num  # IEEE's num / +0
    return 6.0 if math.isnan(exponent) else 6.0 * math.exp(-exponent)


def _ratio(num: float, den: float, what: str) -> float:
    """num / den, or a ValueError naming `what` where it overflows (den = 0: an underflowed delta alpha)."""
    if den > 0 and -math.inf < num / den < math.inf:
        return num / den
    raise ValueError(f"{what} = {num!r} / {den!r} overflows a double")


def _lattice_sizes(ods: Sequence[tuple[int, float]], epsilon: float) -> list[int]:
    """K_w = max(1, ceil(|W| sqrt(|P_w|) d_w / eps)) for each OD pair
    (|P_w|, d_w) of ods: its simplex lattice at radius eps/|W|."""
    if not ods:
        raise ValueError("need at least one OD pair")
    if not epsilon > 0:
        raise ValueError(f"eps must be positive, got {epsilon}")
    for i, (n, d) in enumerate(ods):
        if not (n >= 1 and d > 0):
            raise ValueError(f"OD pair {i} needs n >= 1 paths and demand d > 0, got n = {n}, d = {d}")
        if not n <= 2**53:  # math.sqrt takes the count as a double
            raise ValueError(f"OD pair {i} has {n} paths: need at most 2^53")
        if not d < math.inf:
            raise ValueError(f"OD pair {i} has demand {d}: need a finite demand")
    return [max(1, math.ceil(_ratio(len(ods) * math.sqrt(n) * d, epsilon, f"K_w of OD pair {i}")))
            for i, (n, d) in enumerate(ods)]


def covering_number_simplex(n: int, d: float, epsilon: float) -> int:
    """Binomial bound C(n + K - 1, K - 1), K = ceil(sqrt(n) d / eps), on
    the eps-covering number of {x >= 0, sum x = d}: the flow polytope of
    one OD pair.

    For K >= n the explicit lattice of simplex_lattice_cover, with
    C(n + K - 1, n - 1) points, witnesses the bound. For K < n the
    reported binomial is smaller than that lattice, and the documents in
    this repository do not settle whether it is still a valid bound there.
    """
    return covering_number_flow_polytope([(n, d)], epsilon)


def covering_number_flow_polytope(ods: Sequence[tuple[int, float]], epsilon: float) -> int:
    """Product over OD pairs of per-simplex binomial bounds with
    K_w = ceil(|W| sqrt(|P_w|) d_w / eps)."""
    return math.prod(math.comb(n + k - 1, k - 1) for (n, _), k in zip(ods, _lattice_sizes(ods, epsilon)))


def simplex_lattice_cover(n: int, d: float, k: int) -> np.ndarray:
    """The explicit lattice {(i_1, .., i_n) d / K : i_s >= 0, sum i_s = K}.

    Every point of the simplex lies within sqrt(n) d / K of some lattice
    point. Note the lattice has C(n + K - 1, n - 1) points, which differs
    from the binomial reported by covering_number_simplex whenever n != K.
    """
    if n < 1 or k < 1 or d <= 0:
        raise ValueError("need n >= 1, K >= 1, d > 0")
    # Stars and bars: the n - 1 bar positions among K + n - 1 slots, padded
    # with -1 and K + n - 1, leave parts[s] stars between bars s and s + 1.
    bars = np.array(list(itertools.combinations(range(k + n - 1), n - 1)), dtype=int)
    parts = np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, k + n - 1))), axis=1) - 1
    return parts.astype(float) * (d / k)


def flow_polytope_cover(ods: Sequence[tuple[int, float]], epsilon: float) -> np.ndarray:
    """Cartesian product of per-OD lattice covers at radius eps/|W| each,
    giving an eps-cover of the feasible flow polytope."""
    covers = [simplex_lattice_cover(n, d, k) for (n, d), k in zip(ods, _lattice_sizes(ods, epsilon))]
    return np.array([np.concatenate(rows) for rows in itertools.product(*covers)])


def _finalize(formula_id: str, ln_gamma: float, alpha: RiskLevel, delta: float, c: float, n: int, w: float,
              zeta: Optional[float], gamma_exact: Optional[int] = None) -> BoundReport:
    """The report of gamma exp(-beta N), beta = alpha delta^2 / (c n w^2), with N(zeta) given zeta."""
    num, den = alpha.alpha * (delta * delta), c * n * (w * w)
    beta = num / den if den else math.inf * num  # IEEE's num / +0: inf, or NaN (refused) at 0 / 0
    if not (beta > 0 and math.isfinite(ln_gamma / beta)):
        raise ValueError(f"no finite N brings gamma exp(-beta N) below 1: ln gamma = {ln_gamma}, beta = {beta}")
    if zeta is not None and not 0 < zeta < 1:
        raise ValueError("confidence parameter zeta must lie in (0, 1)")
    n_samples = None if zeta is None else max(1, math.ceil(_ratio(ln_gamma - math.log(zeta), beta, "N(zeta)")))
    gamma = math.exp(ln_gamma) if ln_gamma < 700 else math.inf
    return BoundReport(gamma, ln_gamma, beta, formula_id, n_samples, gamma_exact)


def _check_bound_inputs(n: int, delta: float, ell: float = 0.0, big_l: float = 1.0,
                        diam_x: float = math.inf, f_max: float = 1.0, g_rge: float = 1.0) -> None:
    """The checks shared by the three formulas; each passes what it reads, and the defaults pass."""
    if not 1 <= n <= 2**53:  # every formula also computes with n as a double
        raise ValueError(f"decision dimension must be positive and at most 2^53, got {n}")
    if not (math.isfinite(ell) and math.isfinite(big_l)):
        raise ValueError(f"cost range [{ell}, {big_l}] must be finite")
    if not ell < big_l:
        raise ValueError(f"cost range [{ell}, {big_l}] is inverted or empty: need ell < L")
    if not 0 < delta < math.inf:  # NaN fails too
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not delta < diam_x / 2:
        raise ValueError("accuracy level must be below diam(X)/2")
    if not (0 < f_max < math.inf and 0 < g_rge < math.inf):
        raise ValueError(f"separable bound needs finite positive f_max and g_rge, got {f_max} and {g_rge}")


def exponential_bound_general(
    n: int, alpha: RiskLevel, ell: float, big_l: float, m_lip: float, diam_x: float,
    delta: float, zeta: Optional[float] = None,
) -> BoundReport:
    """gamma = 6 n (12 M diam / (delta alpha))^n ceil(n/2)!/(2 pi^(n/2)),
    beta = alpha delta^2 / (44 n (L - l)^2), for decision dimension n, cost
    range [ell, big_l], Lipschitz constant m_lip and field accuracy
    0 < delta < diam_x/2. Given zeta, n_samples is the N with
    gamma exp(-beta N) <= zeta."""
    _check_bound_inputs(n, delta, ell=ell, big_l=big_l, diam_x=diam_x)
    for name, value in (("Lipschitz constant M", m_lip), ("diam(X)", diam_x)):
        if not 0 < value < math.inf:  # gamma takes the log of 12 M diam / (delta alpha)
            raise ValueError(f"{name} must be finite and positive, got {value}")
    base = _ratio(12.0 * m_lip * diam_x, delta * alpha.alpha, "12 M diam / (delta alpha)")
    if base == 0.0:  # 12 M diam underflowed, and gamma takes its log
        raise ValueError(f"12 M diam / (delta alpha) underflows to 0 at M = {m_lip!r}, diam = {diam_x!r}")
    # The compact-set covering term, from vol(B) >= 2 pi^(n/2) / ceil(n/2)!, as in the printed formula.
    ln_inv_ball = math.lgamma(math.ceil(n / 2) + 1) - math.log(2.0) - 0.5 * n * math.log(math.pi)
    ln_gamma = math.log(6 * n) + n * math.log(base) + ln_inv_ball
    return _finalize("general", ln_gamma, alpha, delta, 44.0, n, big_l - ell, zeta)


def exponential_bound_separable(
    n: int, alpha: RiskLevel, f_max: float, g_rge: float, delta: float,
    zeta: Optional[float] = None,
) -> BoundReport:
    """gamma = 6 n, beta = alpha delta^2 / (11 n (f_max g_rge)^2): for a
    decision factor bounded by f_max times an uncertainty factor of range
    g_rge, f_max g_rge replaces the cost range L - l, and nothing depends
    on the size of the decision set."""
    _check_bound_inputs(n, delta, f_max=f_max, g_rge=g_rge)
    return _finalize("separable", math.log(6 * n), alpha, delta, 11.0, n, f_max * g_rge, zeta)


def exponential_bound_routing(
    path_counts: Sequence[int], alpha: RiskLevel, ell: float, big_l: float,
    m_lip: float, delta: float, zeta: Optional[float] = None,
) -> BoundReport:
    """gamma = 6 |P| prod_w max(1, ceil(4 M |W| sqrt(|P_w|) / (delta alpha))),
    beta = alpha delta^2 / (44 |P| (L - l)^2), with one path count |P_w|
    per OD pair w in path_counts and |P| their sum. gamma is also reported
    exactly, as the integer gamma_exact. At M = 0 the cost does not vary,
    so one point covers each OD's simplex: its factor is 1."""
    if any(path_count < 1 for path_count in path_counts):
        raise ValueError(f"every OD pair needs a path, got path counts {list(path_counts)}")
    w_count, p_total = len(path_counts), sum(path_counts)
    _check_bound_inputs(p_total, delta, ell=ell, big_l=big_l)
    if not 0 <= m_lip < math.inf:  # NaN fails too
        raise ValueError(f"Lipschitz constant M must be finite and nonnegative, got {m_lip}")
    gamma_exact = 6 * p_total
    for w, path_count in enumerate(path_counts):
        factor = _ratio(4.0 * m_lip * w_count * math.sqrt(path_count), delta * alpha.alpha, f"gamma's factor of OD {w}")
        gamma_exact *= max(1, math.ceil(factor))
    return _finalize("routing", math.log(gamma_exact), alpha, delta, 44.0, p_total, big_l - ell, zeta, gamma_exact)
