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
from fractions import Fraction
from math import log2
from typing import NamedTuple

from .buscore import fib
from .ira import DegreeDistribution

__all__ = [
    "DeState",
    "CacDegreeDist",
    "DeModel",
    "rho_tilde",
    "p_coeffs",
    "p_poly",
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


def rho_tilde(d: int, r_ecc: float) -> float:
    """Edge-perspective weight of run-constraint nodes of degree d.

    Free wires make up the degree-1 mass 1 - 3/(4 r_ecc); longer runs carry
    d * 2^(-d-1) / r_ecc each. Defined for r_ecc in (3/4, 1], where the
    degree-1 mass is non-negative.
    """
    if not 0.75 < r_ecc <= 1.0:
        raise ValueError(f"r_ecc must lie in (3/4, 1], got {r_ecc}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d == 1:
        return 1.0 - 3.0 / (4.0 * r_ecc)
    return d * 2.0 ** (-d - 1) / r_ecc


def p_coeffs(d: int, i: int) -> tuple[Fraction, Fraction]:
    """Exact one-sided and two-sided forcing coefficients for position i of
    a length-d run.

    The first coefficient weights (1 - x), the second (1 - x^2): fractions
    of the F(d+2) valid run words in which the position is pinned by one
    forcing neighbour or by either of two.
    """
    if d < 2:
        raise ValueError(f"forcing polynomials need run length >= 2, got {d}")
    if not 1 <= i <= d:
        raise ValueError(f"position must lie in 1..{d}, got {i}")
    denom = fib(d + 2)
    if i == 1 or i == d:
        return Fraction(fib(d - 1), denom), Fraction(0)
    one_sided = Fraction(fib(i - 1) * fib(d - i + 1) + fib(i) * fib(d - i), denom)
    two_sided = Fraction(fib(i - 1) * fib(d - i), denom)
    return one_sided, two_sided


def p_poly(d: int, i: int, x: float) -> float:
    """Probability that position i of a length-d run is pinned by its
    neighbours when each neighbour is independently erased with
    probability x."""
    p1, p2 = p_coeffs(d, i)
    return float(p1) * (1.0 - x) + float(p2) * (1.0 - x * x)


class CacDegreeDist:
    """Run-constraint degree distribution, truncated at d_max.

    Precomputes the aggregate forcing coefficients so one decoder iteration
    costs O(1): the check-to-variable erasure is

        y_cac(x) = 1 - A (1 - x) - B (1 - x^2),

    with A, B summing rho_d / d times the per-position coefficients over
    2 <= d <= d_max. Degree-1 nodes send pure erasures and enter only the
    normalization. The neglected tail mass is bounded and recorded.
    """

    def __init__(self, r_ecc: float, d_max: int = 64):
        if d_max < 2:
            raise ValueError("d_max must be at least 2")
        self.r_ecc = float(r_ecc)
        self.d_max = int(d_max)
        self.rho = [0.0] + [rho_tilde(d, r_ecc) for d in range(1, d_max + 1)]
        lin = Fraction(0)
        quad = Fraction(0)
        for d in range(2, d_max + 1):
            s1 = Fraction(0)
            s2 = Fraction(0)
            for i in range(1, d + 1):
                p1, p2 = p_coeffs(d, i)
                s1 += p1
                s2 += p2
            weight = Fraction(1, 2 ** (d + 1))  # rho_d / d without the 1/r_ecc factor
            lin += weight * s1
            quad += weight * s2
        self.forcing_lin = float(lin) / self.r_ecc
        self.forcing_quad = float(quad) / self.r_ecc
        # Tail mass of rho beyond d_max: sum_{d > d_max} d 2^(-d-1) / r
        self.truncation_bound = (self.d_max + 3) * 2.0 ** (-self.d_max - 1) / self.r_ecc

    @property
    def total_mass(self) -> float:
        return float(sum(self.rho))

    def y_cac(self, x_cac: float) -> float:
        """Erasure probability of a run-check-to-variable message."""
        return 1.0 - self.forcing_lin * (1.0 - x_cac) - self.forcing_quad * (1.0 - x_cac * x_cac)


@dataclass(frozen=True)
class DeModel:
    """Degree distributions driving one density-evolution system."""

    dist: DegreeDistribution
    cac: CacDegreeDist

    @classmethod
    def for_code(cls, dist: DegreeDistribution, r_ecc: float, d_max: int = 64) -> "DeModel":
        return cls(dist=dist, cac=CacDegreeDist(r_ecc, d_max))


def de_step(state: DeState, eps: float, model: DeModel) -> DeState:
    """One decoder iteration of the coupled recursion.

    Sequencing matches the decoding schedule: the run-constraint pass uses
    the previous check-to-variable erasure, then the sparse-code pass and
    the closed-form chain fixed point produce the new one.
    """
    dist = model.dist
    x_cac = eps * dist.L(state.y_ecc)
    y_cac = model.cac.y_cac(x_cac)
    x_ecc = eps * y_cac * dist.lam(state.y_ecc)
    r_val = dist.R(1.0 - x_ecc)
    denom = 1.0 - eps * r_val
    x_p = 1.0 if denom <= 0.0 else eps * (1.0 - r_val) / denom
    y_p = 1.0 - (1.0 - x_p) * r_val
    y_ecc = 1.0 - (1.0 - x_p) ** 2 * dist.rho(1.0 - x_ecc)
    return DeState(x_ecc=x_ecc, y_ecc=y_ecc, x_p=x_p, y_p=y_p, x_cac=x_cac, y_cac=y_cac)


_START = DeState(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def de_trajectory(
    eps: float,
    model: DeModel,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[list[DeState], str]:
    """Iterate from the all-erased start; verdict 'success' or 'stall'.

    Success means x_ecc fell below ``tol``; a stall is a fixed point above
    it (detected when successive x_ecc values stop moving at double
    precision).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    states: list[DeState] = []
    state = _START
    for _ in range(max_iter):
        new = de_step(state, eps, model)
        states.append(new)
        if new.x_ecc < tol:
            return states, "success"
        if abs(new.x_ecc - state.x_ecc) < 1e-15 and abs(new.y_ecc - state.y_ecc) < 1e-15:
            return states, "stall"
        state = new
    return states, "stall"


def de_threshold(
    model: DeModel,
    tol_eps: float = 1e-3,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> float:
    """Bisect the channel parameter for the success/stall boundary.

    Returns the interval midpoint; the half-width of the final bracket is
    at most ``tol_eps``.
    """
    if tol_eps <= 0:
        raise ValueError("tol_eps must be positive")
    lo, hi = 0.0, 1.0
    while hi - lo > tol_eps:
        mid = (lo + hi) / 2.0
        _, verdict = de_trajectory(mid, model, tol=tol, max_iter=max_iter)
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
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    value = sum(2.0 ** (-d - 1) * log2(fib(d + 2)) for d in range(1, d_max + 1))
    tail = log2(GOLDEN) * (d_max + 3) * 2.0 ** (-d_max - 1)
    return AsymptoticRate(value=value, tail_bound=tail)
