import re

import numpy as np
import pytest
from hypothesis import given
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
    ira_encode,
    payload_size,
)
from jointbus.cac import UNSET, _decode_segments, _encode_segments, _payload_bits

from helpers import valid_words


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
