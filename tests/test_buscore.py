import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointbus import (
    BusState,
    check_transition,
    fib,
    free_wires,
    parse_runs,
)
from jointbus.buscore import (_FIB, _FIB_CAP, _fib_pair, _free_wire_count, _stable_argsort,
                              _state_from_runs, as_bits)


@pytest.mark.parametrize("size, bound", [(0, 1), (1, 1), (300, 7), (24000, 2000),
                                         (70000, 1 << 20)])
def test_stable_argsort_matches_numpy(size, bound):
    # sorted as uint16 keys up to (24000, 2000), as int64 keys for the last
    keys = np.random.default_rng(size).integers(0, bound, size)
    assert np.array_equal(_stable_argsort(keys, bound), np.argsort(keys, kind="stable"))


def test_fib_base_and_values():
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(3) == 2
    assert fib(30) == 832040


def test_fib_rejects_zero_and_negatives():
    for bad in (0, -1, -7):
        with pytest.raises(ValueError):
            fib(bad)


def test_fib_exact_beyond_machine_words():
    # phi**N overflows 64-bit integers near N = 90; results must stay exact
    assert fib(90) == 2880067194370816120
    assert fib(120) == fib(119) + fib(118)


def test_fib_past_the_table_cap_by_fast_doubling():
    # past the capped table, F(n) comes by fast doubling: it must match the
    # additive recurrence on both sides of the cap and leave the table alone
    f0, f1 = 0, 1
    for n in range(1, 3 * _FIB_CAP):
        f0, f1 = f1, f0 + f1
        assert fib(n) == f0, n
        assert _fib_pair(n) == (f0, f1), n
    assert fib(10**4) == fib(10**4 - 1) + fib(10**4 - 2)
    assert len(_FIB) == _FIB_CAP


def test_parse_runs_two_runs():
    rp = parse_runs("01011010")
    assert rp.run_lengths == (4, 4)
    assert rp.run_starts == (1, 5)
    assert rp.free_wires == ()


def test_parse_runs_constant_state():
    rp = parse_runs("000")
    assert rp.run_lengths == (1, 1, 1)
    assert rp.free_wires == (1, 2, 3)


def test_free_wires_examples():
    assert free_wires("00100") == (1, 5)
    assert free_wires("0" * 8) == tuple(range(1, 9))
    assert free_wires("01010101") == ()


def test_check_transition_examples():
    assert check_transition("01", "10").opposing_pairs == ((1, 2),)
    for b in ("00", "01", "10", "11"):
        assert check_transition("00", b).ok
    assert check_transition("0101", "1010").opposing_pairs == ((1, 2), (2, 3), (3, 4))


def test_check_transition_length_mismatch():
    with pytest.raises(ValueError):
        check_transition("01", "011")


def test_busstate_validation_and_roundtrip():
    s = BusState("0110")
    assert str(s) == "0110"
    assert len(s) == 4
    assert s == BusState([0, 1, 1, 0])
    with pytest.raises(ValueError):
        BusState("01x0")
    with pytest.raises(ValueError):
        BusState("")
    with pytest.raises(ValueError):
        BusState([0, 2, 1])


@pytest.mark.parametrize("bits", [np.array([256, 1, 0]), [0.7, 1], [-1, 0], [np.nan, 1], [1.5],
                                  [2**70, 1], np.array([257], dtype=np.int64)],
                         ids=["256", "0.7", "-1", "nan", "1.5", "2**70", "257"])
def test_bits_are_checked_before_the_cast(bits):
    # a cast to uint8 first would wrap 256 onto 0 and 0.7 onto 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^bus-state symbols must be 0 or 1$"):
            as_bits(bits)
        with pytest.raises(ValueError, match="^bus-state symbols must be 0 or 1$"):
            BusState(bits)


@pytest.mark.parametrize("bits, shape", [(np.zeros((2, 2)), (2, 2)), (np.int64(1), ()),
                                         ([[0, 1], [1, 0]], (2, 2)), (np.zeros((0, 3)), (0, 3))],
                         ids=["2x2", "0-d", "nested", "0x3"])
def test_bits_name_a_wrong_shape(bits, shape):
    # a 0-d or 2-D array is not read as an empty state
    message = f"^{re.escape(f'a bus state must be one row of bits, got an array of shape {shape}')}$"
    with pytest.raises(ValueError, match=message):
        as_bits(bits)
    with pytest.raises(ValueError, match=message):
        BusState(bits)
    with pytest.raises(ValueError, match="^a bus state needs at least one wire$"):
        BusState(np.zeros(0))


def test_bits_accept_bools_and_exact_floats():
    for bits in ([True, False, True], np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1], np.int8)):
        arr = as_bits(bits)
        assert arr.dtype == np.uint8 and arr.tolist() == [1, 0, 1]
        assert BusState(bits) == BusState("101")


def test_busstate_bits_are_readonly():
    s = BusState("010")
    with pytest.raises(ValueError):
        s.bits[0] = 1


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_free_wires_are_length_one_runs(bits):
    rp = parse_runs(bits)
    assert free_wires(bits) == rp.free_wires
    assert sum(rp.run_lengths) == len(bits)


@pytest.mark.parametrize("n", range(1, 11))
def test_free_wire_count_counts_free_wires(n):
    # every word of n wires: the count without a run parse, one-wire bus included
    words = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    for x in words.astype(np.uint8):
        assert _free_wire_count(x) == len(free_wires(x))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_run_reconstruction_roundtrip(bits):
    rp = parse_runs(bits)
    rebuilt = _state_from_runs(bits[0], rp.run_lengths)
    assert rebuilt == BusState(bits)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=120))
def test_runs_alternate_inside_and_repeat_at_boundaries(bits):
    rp = parse_runs(bits)
    for start, length in zip(rp.run_starts, rp.run_lengths):
        seg = bits[start - 1 : start - 1 + length]
        for i in range(len(seg) - 1):
            assert seg[i] != seg[i + 1]
    for nxt in rp.run_starts[1:]:
        assert bits[nxt - 2] == bits[nxt - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unconstrained_iff_constant(n):
    # every next state is violation-free for all b exactly when a is constant
    for x in range(1 << n):
        a = [(x >> i) & 1 for i in range(n)]
        clean = all(
            check_transition(a, [(y >> i) & 1 for i in range(n)]).ok for y in range(1 << n)
        )
        assert clean == (len(set(a)) == 1)
        assert clean == (free_wires(a) == tuple(range(1, n + 1)))


def test_run_length_statistics_uniform():
    # mean count of length-d runs approaches N * 2^-(d+1)
    rng = np.random.default_rng(2024)
    n = 100_000
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    rp = parse_runs(bits)
    lengths = np.array(rp.run_lengths)
    for d in range(1, 9):
        count = int(np.count_nonzero(lengths == d))
        expect = n * 2.0 ** (-d - 1)
        # run counts concentrate; allow 3 standard errors of a binomial proxy
        sigma = np.sqrt(expect)
        assert abs(count - expect) < 3 * sigma + 3
