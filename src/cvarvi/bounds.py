"""Explicit sample-complexity constants for CVaR-based VI approximation.

Covers three bound families: the general uniform exponential bound built
from a covering of the decision set, the tighter bound for costs that
separate into a decision factor and an uncertainty factor, and the routing
specialization over the flow polytope. Covering numbers of simplices and
the flow polytope are exact big-integer binomials; the general gamma
constant is tracked in log-space because it overflows doubles quickly.
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
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return 6.0 * math.exp(-alpha.alpha * epsilon**2 * n_samples / (11.0 * (big_l - ell) ** 2))


def _log_inv_ball_volume(n: int) -> float:
    # The compact-set covering term of the general bound, from the lower
    # bound vol(B) >= 2 pi^(n/2) / ceil(n/2)!, so gamma matches the printed formula.
    return math.lgamma(math.ceil(n / 2) + 1) - math.log(2.0) - 0.5 * n * math.log(math.pi)


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
        if not d < math.inf:
            raise ValueError(f"OD pair {i} has demand {d}: need a finite demand")
    return [max(1, math.ceil(len(ods) * math.sqrt(n) * d / epsilon)) for n, d in ods]


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


def _finalize(ln_gamma: float, beta: float, formula_id: str, zeta: Optional[float],
              gamma_exact: Optional[int] = None) -> BoundReport:
    gamma = math.exp(ln_gamma) if ln_gamma < 700 else math.inf
    report = BoundReport(
        gamma=gamma, ln_gamma=ln_gamma, beta=beta, formula_id=formula_id, gamma_exact=gamma_exact
    )
    if zeta is not None:
        if not 0 < zeta < 1:
            raise ValueError("confidence parameter zeta must lie in (0, 1)")
        report.n_samples = max(1, math.ceil((ln_gamma - math.log(zeta)) / beta))
    return report


def _check_bound_inputs(n: int, delta: float, ell: float = 0.0, big_l: float = 1.0,
                        diam_x: float = math.inf, f_max: float = 1.0, g_rge: float = 1.0) -> None:
    """The checks shared by the three formulas; each passes what it reads, and the defaults pass."""
    if n < 1:
        raise ValueError("decision dimension must be positive")
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
    a = alpha.alpha
    ln_gamma = (
        math.log(6 * n)
        + n * math.log(12.0 * m_lip * diam_x / (delta * a))
        + _log_inv_ball_volume(n)
    )
    beta = a * delta**2 / (44.0 * n * (big_l - ell) ** 2)
    return _finalize(ln_gamma, beta, "general", zeta)


def exponential_bound_separable(
    n: int, alpha: RiskLevel, f_max: float, g_rge: float, delta: float,
    zeta: Optional[float] = None,
) -> BoundReport:
    """gamma = 6 n, beta = alpha delta^2 / (11 n (f_max g_rge)^2): for a
    decision factor bounded by f_max times an uncertainty factor of range
    g_rge, f_max g_rge replaces the cost range L - l, and nothing depends
    on the size of the decision set."""
    _check_bound_inputs(n, delta, f_max=f_max, g_rge=g_rge)
    a = alpha.alpha
    ln_gamma = math.log(6 * n)
    beta = a * delta**2 / (11.0 * n * (f_max * g_rge) ** 2)
    return _finalize(ln_gamma, beta, "separable", zeta)


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
    w_count = len(path_counts)
    p_total = sum(path_counts)
    _check_bound_inputs(p_total, delta, ell=ell, big_l=big_l)
    if not 0 <= m_lip < math.inf:  # NaN fails too
        raise ValueError(f"Lipschitz constant M must be finite and nonnegative, got {m_lip}")
    a = alpha.alpha
    gamma_exact = 6 * p_total
    for path_count in path_counts:
        gamma_exact *= max(1, math.ceil(4.0 * m_lip * w_count * math.sqrt(path_count) / (delta * a)))
    beta = a * delta**2 / (44.0 * p_total * (big_l - ell) ** 2)
    ln_gamma = float(math.log(gamma_exact))
    return _finalize(ln_gamma, beta, "routing", zeta, gamma_exact=gamma_exact)
