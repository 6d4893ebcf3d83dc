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


def pointwise_deviation_bound(
    ell: float, big_l: float, alpha: RiskLevel, epsilon: float, n_samples: int, clip: bool = True
) -> float:
    """Probability bound 6 exp(-alpha eps^2 N / (11 (L-l)^2)) on the
    deviation between a CVaR and its N-sample empirical estimate.

    Values above one are vacuous; they are clipped to 1.0 for reporting
    unless clip=False.
    """
    if big_l <= ell:
        raise ValueError("degenerate cost support: need L > ell")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    raw = 6.0 * math.exp(-alpha.alpha * epsilon**2 * n_samples / (11.0 * (big_l - ell) ** 2))
    return min(raw, 1.0) if clip else raw


def _log_inv_ball_volume(n: int) -> float:
    # The compact-set covering term of the general bound, from the lower
    # bound vol(B) >= 2 pi^(n/2) / ceil(n/2)!, so gamma matches the printed formula.
    return math.lgamma(math.ceil(n / 2) + 1) - math.log(2.0) - 0.5 * n * math.log(math.pi)


def _simplex_k(n: int, d: float, epsilon: float) -> int:
    return max(1, math.ceil(math.sqrt(n) * d / epsilon))


def covering_number_simplex(n: int, d: float, epsilon: float) -> int:
    """Binomial bound C(n + K - 1, K - 1), K = ceil(sqrt(n) d / eps), on
    the eps-covering number of {x >= 0, sum x = d}.

    For K >= n the explicit lattice of simplex_lattice_cover, with
    C(n + K - 1, n - 1) points, witnesses the bound. For K < n the
    reported binomial is smaller than that lattice, and the documents in
    this repository do not settle whether it is still a valid bound there.
    """
    if n < 1 or d <= 0 or epsilon <= 0:
        raise ValueError("need n >= 1, d > 0, eps > 0")
    k = _simplex_k(n, d, epsilon)
    return math.comb(n + k - 1, k - 1)


def covering_number_flow_polytope(ods: Sequence[tuple[int, float]], epsilon: float) -> int:
    """Product over OD pairs of per-simplex binomial bounds with
    K_w = ceil(|W| sqrt(|P_w|) d_w / eps)."""
    if not ods:
        raise ValueError("need at least one OD pair")
    if epsilon <= 0:
        raise ValueError("eps must be positive")
    w_count = len(ods)
    total = 1
    for path_count, demand in ods:
        k_w = max(1, math.ceil(w_count * math.sqrt(path_count) * demand / epsilon))
        total *= math.comb(path_count + k_w - 1, k_w - 1)
    return total


def simplex_lattice_cover(n: int, d: float, k: int) -> np.ndarray:
    """The explicit lattice {(i_1, .., i_n) d / K : i_s >= 0, sum i_s = K}.

    Every point of the simplex lies within sqrt(n) d / K of some lattice
    point. Note the lattice has C(n + K - 1, n - 1) points, which differs
    from the binomial reported by covering_number_simplex whenever n != K.
    """
    if n < 1 or k < 1 or d <= 0:
        raise ValueError("need n >= 1, K >= 1, d > 0")
    points = []
    for combo in itertools.combinations(range(k + n - 1), n - 1):
        # Stars and bars: bar positions -> composition of K into n parts.
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + n - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) * (d / k)


def flow_polytope_cover(ods: Sequence[tuple[int, float]], epsilon: float) -> np.ndarray:
    """Cartesian product of per-OD lattice covers at radius eps/|W| each,
    giving an eps-cover of the feasible flow polytope."""
    w_count = len(ods)
    block_covers = []
    for path_count, demand in ods:
        k_w = max(1, math.ceil(w_count * math.sqrt(path_count) * demand / epsilon))
        block_covers.append(simplex_lattice_cover(path_count, demand, k_w))
    rows = []
    for combo in itertools.product(*[range(len(c)) for c in block_covers]):
        rows.append(np.concatenate([block_covers[w][i] for w, i in enumerate(combo)]))
    return np.asarray(rows)


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


def _check_bound_inputs(n: int, delta: float, ell: float = 0.0, big_l: float = math.inf,
                        diam_x: float = math.inf, f_max: float = 1.0, g_rge: float = 1.0) -> None:
    """The checks shared by the three formulas; each passes what it reads."""
    if n < 1:
        raise ValueError("decision dimension must be positive")
    if not ell < big_l:
        raise ValueError(f"cost range [{ell}, {big_l}] is inverted or empty: need ell < L")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not delta < diam_x / 2:
        raise ValueError("accuracy level must be below diam(X)/2")
    if not (f_max > 0 and g_rge > 0):
        raise ValueError("separable bound needs positive f_max and g_rge")


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
    ods: Sequence[tuple[int, float]], alpha: RiskLevel, ell: float, big_l: float,
    m_lip: float, delta: float, zeta: Optional[float] = None,
) -> BoundReport:
    """gamma = 6 |P| prod_w ceil(4 M |W| sqrt(|P_w|) / (delta alpha)),
    beta = alpha delta^2 / (44 |P| (L - l)^2), with one (|P_w|, demand)
    pair per OD pair w in ods and |P| the sum of the path counts. gamma is
    also reported exactly, as the integer gamma_exact."""
    w_count = len(ods)
    p_total = sum(pc for pc, _ in ods)
    _check_bound_inputs(p_total, delta, ell=ell, big_l=big_l)
    a = alpha.alpha
    gamma_exact = 6 * p_total
    for path_count, _ in ods:
        gamma_exact *= math.ceil(4.0 * m_lip * w_count * math.sqrt(path_count) / (delta * a))
    beta = a * delta**2 / (44.0 * p_total * (big_l - ell) ** 2)
    ln_gamma = float(math.log(gamma_exact))
    return _finalize(ln_gamma, beta, "routing", zeta, gamma_exact=gamma_exact)
