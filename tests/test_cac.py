import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointbus import (
    IraGraph,
    RunCodebook,
    bp_decode,
    build_factor_graph,
    build_layout,
    cac_decode,
    cac_encode,
    cac_rate,
    check_transition,
    count_codewords,
    fib,
    gen_past_uniform,
    ira_encode,
    payload_size,
)
from jointbus import buscore
from jointbus.cac import (
    UNSET,
    _decode_segments,
    _encode_segments,
    _join,
    _payload_bits,
    _product_tree,
    _radices,
    _runs,
    _split,
)

from helpers import last_continuations, mixed_radix_digits, mixed_radix_index, valid_words


def _alternating(d, phase=0):
    return [(phase + i) % 2 for i in range(d)]


def test_count_codewords_examples():
    assert count_codewords("0101") == fib(6) == 8
    assert count_codewords("0000") == 16
    assert count_codewords("0110") == fib(4) ** 2 == 9


def test_count_codewords_matches_bruteforce():
    rng = np.random.default_rng(5)
    states = [rng.integers(0, 2, int(rng.integers(1, 13))) for _ in range(30)]
    states += [[0] * 6, _alternating(6), [1] * 6]
    for a in states:
        assert count_codewords(a) == len(valid_words(a))


def test_run_unrank_pair_example():
    book = RunCodebook("01")
    words = ["".join(str(b) for b in book.unrank(i)) for i in range(3)]
    assert words == ["00", "01", "11"]
    with pytest.raises(ValueError):
        book.unrank(3)


def test_run_unrank_free_wire():
    assert RunCodebook("0").unrank(0).tolist() == [0]
    assert RunCodebook("0").unrank(1).tolist() == [1]


def test_run_unrank_matches_enumeration():
    for d in range(1, 9):
        for phase in (0, 1):
            past = _alternating(d, phase)
            expected = sorted(tuple(w) for w in valid_words(past))
            got = [tuple(RunCodebook(past).unrank(i)) for i in range(fib(d + 2))]
            assert got == expected


def test_run_rank_examples():
    assert RunCodebook("01").rank("11") == 2
    book = RunCodebook("010")
    for idx in range(fib(5)):
        assert book.rank(book.unrank(idx)) == idx


def test_run_rank_rejects_violation():
    with pytest.raises(ValueError):
        RunCodebook("01").rank("10")


def test_rank_unrank_identity_long_runs():
    # exhaustive on short runs and at d=20; sampled elsewhere (both phases)
    rng = np.random.default_rng(11)
    for d in list(range(1, 15)) + [20]:
        for phase in (0, 1):
            book = RunCodebook(_alternating(d, phase))
            assert book.codeword_count == fib(d + 2)
            for idx in range(book.codeword_count):
                assert book.rank(book.unrank(idx)) == idx
    for d in range(15, 26):
        for phase in (0, 1):
            book = RunCodebook(_alternating(d, phase))
            picks = rng.integers(0, book.codeword_count, 200)
            for idx in picks:
                assert book.rank(book.unrank(int(idx))) == int(idx)


@given(st.integers(1, 25), st.data())
def test_rank_unrank_roundtrip_property(d, data):
    phase = data.draw(st.integers(0, 1))
    book = RunCodebook(_alternating(d, phase))
    idx = data.draw(st.integers(0, book.codeword_count - 1))
    assert book.rank(book.unrank(idx)) == idx


def test_long_run_codebook_keeps_no_count_table():
    # the suffix counts are walked down the run as a Fibonacci pair, so a
    # 2 * 10^4-wire codebook holds its bits and little more, its counts
    # included (a table of two counts per wire held about 20 MiB, and the
    # shared table grown to F(d + 2) about 18 MiB)
    d = 2 * 10**4
    past = "01" * (d // 2)
    tracemalloc.start()
    try:
        book = RunCodebook(past)
        last = book.codeword_count - 1
        assert book.rank(book.unrank(last)) == last
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_long_run_round_trip_keeps_no_fibonacci_table():
    # one 4 * 10^4-wire run: the counts past the capped table come by fast
    # doubling, and none is kept (a table grown to F(40002) peaked at
    # 72 MiB and stayed for the life of the process)
    past = "01" * 20000
    tracemalloc.start()
    try:
        k = count_codewords(past).bit_length() - 1
        payload = np.random.default_rng(3).integers(0, 2, k, dtype=np.uint8)
        assert np.array_equal(cac_decode(cac_encode(payload, past), past), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(buscore._FIB) == buscore._FIB_CAP


def test_codebook_rejects_non_alternating():
    with pytest.raises(ValueError):
        RunCodebook("0110")


def test_cac_encode_unconstrained_is_identity():
    a = "0000"
    assert payload_size(a, 0) == 4
    for x in range(16):
        payload = [(x >> (3 - i)) & 1 for i in range(4)]
        word = cac_encode(payload, a)
        assert word.tolist() == payload
        assert cac_decode(word, a).tolist() == payload


def test_cac_encode_single_run():
    a = "0101"
    assert payload_size(a, 0) == 3
    seen = set()
    for x in range(8):
        payload = [(x >> (2 - i)) & 1 for i in range(3)]
        word = cac_encode(payload, a)
        assert check_transition(a, word).ok
        seen.add(tuple(word))
        assert cac_decode(word, a).tolist() == payload
    assert len(seen) == 8


def test_cac_encode_two_runs():
    a = "0110"
    assert payload_size(a, 0) == 3  # floor(log2 9)
    seen = set()
    for x in range(8):
        payload = [(x >> (2 - i)) & 1 for i in range(3)]
        word = cac_encode(payload, a)
        assert check_transition(a, word).ok
        seen.add(tuple(word))
    assert len(seen) == 8


def test_cac_decode_rejects_out_of_range_word():
    # 0110 has 9 valid words but only 8 payload slots; craft the 9th
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    word = np.concatenate([RunCodebook([0, 1]).unrank(2), RunCodebook([1, 0]).unrank(2)])
    with pytest.raises(ValueError, match="outside the used range"):
        cac_decode(word, a)


def test_cac_decode_rejects_violation():
    with pytest.raises(ValueError):
        cac_decode("1010", "0101")


def test_cac_encode_wrong_payload_length():
    with pytest.raises(ValueError, match="exactly"):
        cac_encode([0, 1], "0101")


def test_cac_encode_random_states_valid():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = rng.integers(0, 2, int(rng.integers(2, 33)), dtype=np.uint8)
        k = payload_size(a, 0)
        payload = rng.integers(0, 2, k, dtype=np.uint8)
        word = cac_encode(payload, a)
        assert check_transition(a, word).ok
        assert cac_decode(word, a).tolist() == payload.tolist()


def test_cac_rate_examples():
    assert cac_rate("0000") == 1.0
    assert cac_rate("1" * 17) == 1.0
    assert cac_rate("0101") == pytest.approx(0.75)


def test_cac_rate_bounds():
    rng = np.random.default_rng(9)
    for _ in range(300):
        a = rng.integers(0, 2, int(rng.integers(1, 65)), dtype=np.uint8)
        r = cac_rate(a)
        assert 0.5 <= r <= 1.0


def test_payload_codec_matches_whole_word_oracle():
    # every past state up to 8 wires and every admissible parity count up
    # to 2, shielded layouts included: payload index i is the i-th valid
    # assignment of the payload wires in lexicographic wire order, decode
    # inverts encode, and each valid assignment past 2**k is rejected by
    # the codec and reported as a violation by the decoder
    layouts = shielded = 0
    for n in range(1, 9):
        for x in range(1 << n):
            a = np.array([(x >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
            words = valid_words(a)
            for p in (0, 1, 2):
                try:
                    layout = build_layout(a, p)
                except ValueError:
                    continue
                layouts += 1
                shielded += bool(layout.pinned)
                segs, info = layout.segments, layout.info_wire_array
                oracle = sorted({tuple(w[info].tolist()) for w in words})
                k = _payload_bits(segs)
                assert k == payload_size(a, p)
                assert 1 << k <= len(oracle) < 2 << k
                rest = np.ones(n, dtype=bool)
                rest[info] = False
                for i in range(1 << k):
                    bits = np.array([(i >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.uint8)
                    word = _encode_segments(bits, a, segs)
                    assert tuple(word[info].tolist()) == oracle[i]
                    assert np.all(word[rest] == UNSET)
                    assert _decode_segments(word, a, segs).tolist() == bits.tolist()
                # info node i feeds check i mod p (no edges when p = 0),
                # listed in check order
                edges = np.arange(layout.num_info if p else 0)
                order = np.argsort(edges % max(p, 1), kind="stable")
                graph = IraGraph(layout.num_info, p, edges[order], edges[order] % max(p, 1))
                fg = build_factor_graph(a, graph, layout)
                for i in range(1 << k, len(oracle)):
                    full = a.copy()
                    full[info] = oracle[i]
                    full[layout.parity_slot_array] = ira_encode(full[info], graph)
                    msg = f"word index {i} falls outside the used range [0, 2**{k})"
                    with pytest.raises(ValueError, match=re.escape(msg)):
                        _decode_segments(full, a, segs)
                    res = bp_decode(full, fg)
                    assert res.info_bits is None and res.violation == msg
    # 1524 of the 1530 (state, p) pairs place their parities, 244 of them
    # on shield pairs
    assert (layouts, shielded) == (1524, 244)


@settings(max_examples=60, deadline=None)
@given(count=st.one_of(st.integers(0, 3), st.integers(4, 3000)), seed=st.integers(0, 2**32 - 1),
       which=st.sampled_from(["zero", "one", "top", "any"]))
def test_product_tree_matches_sequential_oracle(count, seed, which):
    # split then join is the identity on every index below the product, and
    # both agree with the literal divmod / Horner loops; run lengths up to
    # 200 make single radices F(202) > 2**64
    rng = random.Random(seed)
    lengths = [rng.choice((rng.randint(1, 8), rng.randint(1, 200))) for _ in range(count)]
    segments = np.array([[0, d] for d in lengths], dtype=np.int64).reshape(-1, 2)
    radices = _radices(segments)
    assert radices == [fib(d + 2) for d in lengths]
    levels = _product_tree(radices)
    product = math.prod(radices)
    assert (levels[-1][0] if levels[-1] else 1) == product
    index = {"zero": 0, "one": min(1, product - 1), "top": product - 1,
             "any": rng.randrange(product)}[which]
    digits = _split(index, levels)
    assert digits == mixed_radix_digits(index, radices)
    assert _join(digits, levels) == index == mixed_radix_index(digits, radices)


def test_product_tree_roundtrip_on_wide_uniform_past():
    # codec_wide's width: the digits of a random payload equal the
    # sequential oracle's, and the word decodes to the payload
    rng = np.random.default_rng(351)
    a = gen_past_uniform(100_000, rng).bits
    segments = _runs(a)
    radices = _radices(segments)
    k = _payload_bits(segments)
    payload = rng.integers(0, 2, k, dtype=np.uint8)
    index = int("".join(map(str, payload.tolist())), 2)
    digits = _split(index, _product_tree(radices))
    assert digits == mixed_radix_digits(index, radices)
    word = _encode_segments(payload, a, segments)
    assert check_transition(a, word).ok
    assert np.array_equal(_decode_segments(word, a, segments), payload)


def test_out_of_range_message_on_a_wide_bus(int_digit_limit):
    # at 2 * 10**4 wires the largest index has about 5,000 decimal digits,
    # past the limit: the message names its bit length instead, and prints
    # the decimal index again once the limit is lifted
    a = gen_past_uniform(20_000, np.random.default_rng(2)).bits
    segments = _runs(a)
    word = last_continuations(a, segments)
    index = math.prod(_radices(segments)) - 1
    k = _payload_bits(segments)
    msg = f"a {index.bit_length()}-bit word index falls outside the used range [0, 2**{k})"
    with pytest.raises(ValueError, match=re.escape(msg)):
        _decode_segments(word, a, segments)
    sys.set_int_max_str_digits(0)
    msg = f"word index {index} falls outside the used range [0, 2**{k})"
    with pytest.raises(ValueError, match=re.escape(msg)):
        cac_decode(word, a)
