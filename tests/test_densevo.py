from fractions import Fraction

import numpy as np
import pytest

from jointbus import (
    CacDegreeDist,
    DegreeDistribution,
    DeModel,
    DeState,
    asymptotic_cac_rate,
    de_step,
    de_threshold,
    de_trajectory,
    p_coeffs,
)
from jointbus.densevo import _rho_tilde

from helpers import valid_words

DIST_312 = DegreeDistribution.regular(3, 12)
MODEL_312 = DeModel.for_code(DIST_312, 0.8)
ALL_ONES = DeState(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def p_poly(d, i, x):
    """Probability that position i of a length-d run is pinned when each
    neighbour is erased independently with probability x."""
    p1, p2 = p_coeffs(d, i)
    return float(p1) * (1.0 - x) + float(p2) * (1.0 - x * x)


def test_rho_tilde_values():
    assert _rho_tilde(1, 0.8) == pytest.approx(1 - 3 / 3.2)
    assert _rho_tilde(2, 0.8) == pytest.approx(2 * 2.0 ** -3 / 0.8)
    with pytest.raises(ValueError):
        _rho_tilde(2, 0.7)
    with pytest.raises(ValueError):
        _rho_tilde(0, 0.8)


def test_rho_tilde_normalizes():
    cac = CacDegreeDist(0.8, d_max=64)
    assert cac.total_mass == pytest.approx(1.0, abs=1e-12)
    assert cac.truncation_bound < 1e-15


def test_p_coeffs_reference_values():
    assert p_coeffs(2, 1) == (Fraction(1, 3), Fraction(0))
    assert p_coeffs(2, 2) == (Fraction(1, 3), Fraction(0))
    assert p_coeffs(3, 2) == (Fraction(2, 5), Fraction(1, 5))
    assert p_poly(2, 1, 0.25) == pytest.approx(0.75 / 3)
    assert p_poly(3, 2, 0.5) == pytest.approx(0.4 * 0.5 + 0.2 * 0.75)


def test_p_poly_vanishes_when_all_erased():
    for d in range(2, 9):
        for i in range(1, d + 1):
            assert p_poly(d, i, 1.0) == pytest.approx(0.0)


def test_p_coeffs_bounds():
    for d in range(2, 16):
        for i in range(1, d + 1):
            p1, p2 = p_coeffs(d, i)
            assert 0 <= p1 + p2 <= 1
            for x in np.linspace(0, 1, 7):
                assert 0.0 <= p_poly(d, i, float(x)) <= 1.0


def _forcing_fractions(d, i):
    """Exhaustive forcing statistics for position i (1-based) of a length-d
    run: fractions of valid words where one side or both sides pin it."""
    a = [(j % 2) for j in range(d)]
    words = valid_words(a)
    one_sided = 0
    two_sided = 0
    for w in words:
        t = [int(w[j]) ^ a[j] for j in range(d)]
        left = i - 2 >= 0 and t[i - 2] == 1
        right = i <= d - 1 and t[i] == 1
        if left and right:
            two_sided += 1
        elif left or right:
            one_sided += 1
    total = len(words)
    return Fraction(one_sided, total), Fraction(two_sided, total)


@pytest.mark.parametrize("d", range(2, 9))
def test_forcing_oracle_small(d):
    for i in range(1, d + 1):
        assert p_coeffs(d, i) == _forcing_fractions(d, i)


def test_de_step_eps_zero():
    state = de_step(ALL_ONES, 0.0, MODEL_312)
    assert state.x_ecc == 0.0 and state.x_cac == 0.0 and state.x_p == 0.0


def test_de_step_eps_one_fixed_point():
    state = de_step(ALL_ONES, 1.0, MODEL_312)
    assert state == ALL_ONES


def test_de_recursion_below_threshold():
    states, verdict = de_trajectory(0.20, MODEL_312, max_iter=2000)
    assert verdict == "success"
    xs = [s.x_ecc for s in states]
    assert all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))
    assert xs[-1] < 1e-10


def test_de_trajectory_above_threshold_stalls():
    states, verdict = de_trajectory(0.25, MODEL_312)
    assert verdict == "stall"
    assert states[-1].x_ecc > 0.01


def test_de_trajectory_eps_zero_one_step():
    states, verdict = de_trajectory(0.0, MODEL_312)
    assert verdict == "success" and len(states) == 1


def test_de_threshold_regular_3_12():
    threshold = de_threshold(MODEL_312, tol_eps=1e-3)
    assert 0.223 <= threshold <= 0.229
    assert threshold > 1 - 0.8  # beats the code-only limit


def test_threshold_reduced_recursion_no_sparse_code():
    # trivial lambda = rho = 1 removes the sparse front end; compare the
    # engine against an independently written reduction of the same system
    dist = DegreeDistribution.regular(1, 1)
    model = DeModel.for_code(dist, 0.8)
    got = de_threshold(model, tol_eps=1e-4)

    cac = CacDegreeDist(0.8)

    def reduced_success(eps):
        y_ecc = 1.0
        prev = 2.0
        for _ in range(100_000):
            x_cac = eps * y_ecc
            x_ecc = eps * cac.y_cac(x_cac)
            r_val = 1.0 - x_ecc
            denom = 1.0 - eps * r_val
            x_p = 1.0 if denom <= 0 else eps * (1.0 - r_val) / denom
            y_ecc = 1.0 - (1.0 - x_p) ** 2
            if x_ecc < 1e-10:
                return True
            if abs(x_ecc - prev) < 1e-15:
                return False
            prev = x_ecc
        return False

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        if reduced_success(mid):
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx((lo + hi) / 2, abs=3e-4)


def test_inner_fixed_point_matches_iteration():
    # the closed-form chain erasure equals the iterated two-message system
    dist = DIST_312
    for eps in (0.05, 0.2, 0.35, 0.6, 0.9):
        for x_ecc in (0.0, 0.01, 0.1, 0.4, 0.9, 1.0):
            r_val = dist.R(1.0 - x_ecc)
            x_p = 1.0
            for _ in range(100_000):
                y_p = 1.0 - (1.0 - x_p) * r_val
                nxt = eps * y_p
                if abs(nxt - x_p) < 1e-16:
                    break
                x_p = nxt
            denom = 1.0 - eps * r_val
            closed = 1.0 if denom <= 0 else eps * (1.0 - r_val) / denom
            assert x_p == pytest.approx(closed, abs=1e-9)


def test_success_monotone_in_eps():
    verdicts = []
    for eps in np.linspace(0.0, 0.4, 21):
        _, verdict = de_trajectory(float(eps), MODEL_312, max_iter=20_000)
        verdicts.append(verdict == "success")
    switched = verdicts.index(False) if False in verdicts else len(verdicts)
    assert all(verdicts[:switched])
    assert not any(verdicts[switched:])


def test_asymptotic_cac_rate():
    rate = asymptotic_cac_rate(64)
    assert rate.value == pytest.approx(0.824, abs=5e-4)
    assert rate.tail_bound < 1e-15
    small = asymptotic_cac_rate(1)
    assert small.value == pytest.approx(0.25)


def test_de_state_components_monotone_in_unit_interval():
    # from the all-erased start every component shrinks toward the fixed point
    fields = ("x_ecc", "y_ecc", "x_p", "y_p", "x_cac", "y_cac")
    for eps in (0.1, 0.22, 0.3):
        state = ALL_ONES
        for _ in range(50):
            nxt = de_step(state, eps, MODEL_312)
            for field in fields:
                v = getattr(nxt, field)
                assert 0.0 <= v <= 1.0
                assert v <= getattr(state, field) + 1e-15
            state = nxt
