"""Density evolution for the joint erasure decoder.

Six erasure probabilities are tracked: variable-to-check and check-to-
variable on the sparse code side (x_ecc, y_ecc), the parity chain side
(x_p, y_p), and the run-constraint side (x_cac, y_cac). The chain inner
loop runs to convergence inside each iteration, so x_p is replaced by the
closed-form fixed point

    x_p = eps * (1 - R(1 - x_ecc)) / (1 - eps * R(1 - x_ecc)),

leaving a one-dimensional recursion in x_ecc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import isfinite, log2
from typing import NamedTuple

from .buscore import fib, _check_int, _fib_pair
from .ira import DegreeDistribution

__all__ = [
    "DeState",
    "DeModel",
    "p_coeffs",
    "de_step",
    "de_trajectory",
    "de_threshold",
    "asymptotic_cac_rate",
    "AsymptoticRate",
]

GOLDEN = (1 + 5 ** 0.5) / 2


@dataclass(frozen=True)
class DeState:
    """Erasure probabilities on the six message classes."""

    x_ecc: float
    y_ecc: float
    x_p: float
    y_p: float
    x_cac: float
    y_cac: float


def p_coeffs(d: int, i: int) -> tuple[Fraction, Fraction]:
    """Exact one-sided and two-sided forcing coefficients for position i of
    a length-d run.

    The first coefficient weights (1 - x), the second (1 - x^2): fractions
    of the F(d+2) valid run words in which the position is pinned by one
    forcing neighbour or by either of two. With each neighbour erased
    independently with probability x, the position is pinned with
    probability p1 (1 - x) + p2 (1 - x^2).
    """
    _check_int("run length d", d)
    _check_int("position i", i)
    if d < 2:
        raise ValueError(f"forcing polynomials need run length >= 2, got {d}")
    if not 1 <= i <= d:
        raise ValueError(f"position must lie in 1..{d}, got {i}")
    one_sided, two_sided = _forcing_numerators(d, i)
    denom = fib(d + 2)
    return Fraction(one_sided, denom), Fraction(two_sided, denom)


def _forcing_numerators(d: int, i: int) -> tuple[int, int]:
    """The numerators of ``p_coeffs(d, i)`` over F(d+2), unchecked."""
    if i == 1 or i == d:
        return _fib_pair(d - 1)[0], 0
    f0, f1 = _fib_pair(i - 1)  # F(i - 1), F(i)
    g0, g1 = _fib_pair(d - i)  # F(d - i), F(d - i + 1)
    return f0 * g1 + f1 * g0, f0 * g0


# Runs longer than this many wires are left out of the forcing sums. A run
# of d wires weighs d 2^-(d+1) and its coefficients sum to at most d, so
# the dropped tail is at most sum_{d > 64} d 2^-(d+1) = 66 * 2^-65 < 1.8e-18
# (before the 1/r_ecc scale). Both sums round to the same doubles for every
# cutoff from 60 to 128, and a larger one would only cost build time.
_RUN_CUTOFF = 64


@cache
def _forcing_sums() -> tuple[float, float]:
    """Aggregate one- and two-sided forcing coefficients over runs of
    2.._RUN_CUTOFF wires, each run length d weighted 2^-(d+1); built once,
    on first use. Free wires send pure erasures and add nothing. Each run
    length's numerators are summed as exact integers first, so only two
    fractions are formed per run length."""
    lin = quad = Fraction(0)
    for d in range(2, _RUN_CUTOFF + 1):
        one_sided, two_sided = map(sum, zip(*(_forcing_numerators(d, i)
                                              for i in range(1, d + 1))))
        denom = fib(d + 2) << (d + 1)
        lin += Fraction(one_sided, denom)
        quad += Fraction(two_sided, denom)
    return float(lin), float(quad)


@dataclass(frozen=True)
class DeModel:
    """The code, its rate, and the rate-scaled forcing constants of the
    run-constraint checks: their check-to-variable erasure is

        y_cac(x) = 1 - forcing_lin (1 - x) - forcing_quad (1 - x^2).
    """

    dist: DegreeDistribution
    r_ecc: float
    forcing_lin: float
    forcing_quad: float

    @classmethod
    def for_code(cls, dist: DegreeDistribution, r_ecc: float) -> "DeModel":
        """Defined for r_ecc in (3/4, 1], where the free wires' share
        1 - 3/(4 r_ecc) of the run-constraint edges is non-negative."""
        if not 0.75 < r_ecc <= 1.0:
            raise ValueError(f"r_ecc must lie in (3/4, 1], got {r_ecc}")
        r_ecc = float(r_ecc)
        lin, quad = _forcing_sums()
        return cls(dist, r_ecc, lin / r_ecc, quad / r_ecc)


def de_step(state: DeState, eps: float, model: DeModel) -> DeState:
    """One decoder iteration of the coupled recursion.

    Sequencing matches the decoding schedule: the run-constraint pass uses
    the previous check-to-variable erasure, then the sparse-code pass and
    the closed-form chain fixed point produce the new one.
    """
    dist = model.dist
    x_cac = eps * dist.L(state.y_ecc)
    y_cac = (1.0 - model.forcing_lin * (1.0 - x_cac)
             - model.forcing_quad * (1.0 - x_cac * x_cac))
    x_ecc = eps * y_cac * dist.lam(state.y_ecc)
    r_val = dist.R(1.0 - x_ecc)
    denom = 1.0 - eps * r_val
    x_p = 1.0 if denom <= 0.0 else eps * (1.0 - r_val) / denom
    y_p = 1.0 - (1.0 - x_p) * r_val
    y_ecc = 1.0 - (1.0 - x_p) ** 2 * dist.rho(1.0 - x_ecc)
    return DeState(x_ecc=x_ecc, y_ecc=y_ecc, x_p=x_p, y_p=y_p, x_cac=x_cac, y_cac=y_cac)


def _check_eps(eps: float) -> None:
    """An erasure probability, of the recursion or of the channel."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")


_START = DeState(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
# x_ecc below this counts as decoding success.
_SUCCESS_TOL = 1e-10


def de_trajectory(
    eps: float,
    model: DeModel,
    max_iter: int = 100_000,
) -> tuple[list[DeState], str]:
    """Iterate from the all-erased start; verdict 'success' or 'stall'.

    Success means x_ecc fell below 1e-10; a stall is a fixed point above
    it (detected when successive x_ecc values stop moving at double
    precision).
    """
    _check_eps(eps)
    _check_int("max_iter", max_iter, 1)
    states: list[DeState] = []
    state = _START
    for _ in range(max_iter):
        new = de_step(state, eps, model)
        states.append(new)
        if new.x_ecc < _SUCCESS_TOL:
            return states, "success"
        if abs(new.x_ecc - state.x_ecc) < 1e-15 and abs(new.y_ecc - state.y_ecc) < 1e-15:
            return states, "stall"
        state = new
    return states, "stall"


def de_threshold(model: DeModel, tol_eps: float = 1e-3) -> float:
    """Bisect the channel parameter for the success/stall boundary.

    Returns the interval midpoint; the half-width of the final bracket is
    at most ``tol_eps``, which must be finite and at least 1e-15: bisection
    of [0, 1] in doubles reaches every width down to 2^-50 < 1e-15 exactly,
    but near 1 a bracket of 2^-53 is final (its midpoint rounds onto an
    end), so a much smaller tolerance would never be met.
    """
    if not (isfinite(tol_eps) and tol_eps >= 1e-15):
        raise ValueError(f"tol_eps must be finite and at least 1e-15, got {tol_eps}")
    lo, hi = 0.0, 1.0
    while hi - lo > tol_eps:
        mid = (lo + hi) / 2.0
        _, verdict = de_trajectory(mid, model)
        if verdict == "success":
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class AsymptoticRate(NamedTuple):
    value: float
    tail_bound: float


def asymptotic_cac_rate(d_max: int = 64) -> AsymptoticRate:
    """Expected per-wire rate under long uniformly random past states.

    Partial sum of 2^(-d-1) log2 F(d+2) up to d_max, with a bound on the
    dropped tail (log2 F(d+2) <= (d+1) log2 phi).
    """
    _check_int("d_max", d_max, 1)
    value = sum(2.0 ** (-d - 1) * log2(fib(d + 2)) for d in range(1, d_max + 1))
    tail = log2(GOLDEN) * (d_max + 3) * 2.0 ** (-d_max - 1)
    return AsymptoticRate(value=value, tail_bound=tail)
