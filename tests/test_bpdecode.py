import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from jointbus import (
    ERASED,
    DegreeDistribution,
    EnsembleSpec,
    ErasureWord,
    bec_transmit,
    bp_decode,
    build_factor_graph,
    build_instances,
    build_layout,
    check_transition,
    decode_payload,
    fib,
    gen_past_uniform,
    payload_size,
    rate_ldpc,
    recc_from_rldpc,
    sample_graph,
)
from jointbus.ira import IraGraph

from helpers import (
    ReferenceDecoder,
    cac_node_update,
    disjoint_union,
    ecc_node_update,
    encode_instance,
    out_of_range_word,
    peel_decode,
    random_instance,
    stopping_set_violation,
    sweep_decode,
    valid_words,
    variable_node_update,
    wire_maps,
)

DIST = DegreeDistribution.regular(3, 12)


def _empty_graph(num_info):
    empty = np.zeros(0, dtype=np.int64)
    return IraGraph(num_info, 0, empty, empty.copy())


def test_erasure_word_roundtrip():
    w = ErasureWord("01e1?")
    assert str(w) == "01e1e"
    assert w.num_erased == 2
    symbols = np.random.default_rng(3).integers(0, 3, 10**5, dtype=np.uint8)
    text = "".join("01e"[s] for s in symbols)
    long = ErasureWord(symbols)
    assert str(long) == text
    assert ErasureWord(text) == long


@pytest.mark.parametrize("text", ["01x", "0\u00e91", "01 ", "\udcff"])
def test_erasure_word_rejects_other_characters(text):
    # non-ASCII characters and undecodable argv bytes (lone surrogates)
    # give the same message as any other stray character
    with pytest.raises(ValueError) as exc:
        ErasureWord(text)
    assert str(exc.value) == f"erasure string may contain only 0, 1, e, got {text!r}"


@pytest.mark.parametrize("symbols", [np.array([258, 1]), [0.7, 1], [-1, 0], [np.nan, 1], [2.5],
                                     [2**70]],
                         ids=["258", "0.7", "-1", "nan", "2.5", "2**70"])
def test_erasure_word_checks_symbols_before_the_cast(symbols):
    # a cast to uint8 first would wrap 258 onto the erasure marker 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^erasure-word symbols must be 0, 1, or the "
                                             "erasure marker$"):
            ErasureWord(symbols)


def test_erasure_word_accepts_bools_and_exact_floats():
    assert str(ErasureWord([True, False])) == "10"
    assert str(ErasureWord(np.array([0.0, 1.0, 2.0]))) == "01e"
    assert str(ErasureWord(np.array([2, 1, 0], dtype=np.int64))) == "e10"


def test_cac_node_update_rules():
    # past (0,1) forbids next (1,0)
    assert cac_node_update((0, 1), 1, "left") == 1
    assert cac_node_update((0, 1), 0, "left") == ERASED
    assert cac_node_update((0, 1), ERASED, "left") == ERASED
    assert cac_node_update((0, 1), 0, "right") == 0
    assert cac_node_update((0, 1), 1, "right") == ERASED
    # mirrored for past (1,0)
    assert cac_node_update((1, 0), 0, "left") == 0
    assert cac_node_update((1, 0), 1, "left") == ERASED
    assert cac_node_update((1, 0), 1, "right") == 1
    assert cac_node_update((1, 0), 0, "right") == ERASED
    with pytest.raises(ValueError):
        cac_node_update((0, 0), 1, "left")


def test_cac_node_update_matches_enumeration():
    # a forced value must hold in every valid pair compatible with the input
    for pair in ((0, 1), (1, 0)):
        words = [tuple(w) for w in valid_words(pair)]
        for side, other in (("left", 1), ("right", 0)):
            for v in (0, 1):
                out = cac_node_update(pair, v, side)
                pos = 0 if side == "left" else 1
                consistent = [w for w in words if w[pos] == v]
                forced = {w[other] for w in consistent}
                if len(forced) == 1:
                    assert out == forced.pop()
                else:
                    assert out == ERASED


def test_variable_node_update():
    out, decision = variable_node_update(ERASED, [1, ERASED, ERASED])
    assert out == [ERASED, 1, 1] and decision == 1
    out, decision = variable_node_update(ERASED, [ERASED, ERASED])
    assert out == [ERASED, ERASED] and decision == ERASED
    out, decision = variable_node_update(0, [ERASED])
    assert out == [0] and decision == 0
    with pytest.raises(ValueError):
        variable_node_update(0, [1])


def test_ecc_node_update():
    assert ecc_node_update([1, 1, ERASED]) == [ERASED, ERASED, 0]
    assert ecc_node_update([ERASED, 1, ERASED]) == [ERASED] * 3
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 2, 13).tolist()
    out = ecc_node_update(vals + [ERASED])
    assert out[-1] == int(np.bitwise_xor.reduce(vals))
    full = ecc_node_update(vals)
    total = int(np.bitwise_xor.reduce(vals))
    assert full == [total ^ v for v in vals]


def _adj_prev(fg):
    return wire_maps(fg)[1]


def test_factor_graph_counts():
    fg = build_factor_graph("0101", _empty_graph(4), build_layout("0101", 0))
    assert np.count_nonzero(_adj_prev(fg)) == 3 and fg.layout.num_parity == 0
    fg = build_factor_graph("0000", _empty_graph(4), build_layout("0000", 0))
    assert np.count_nonzero(_adj_prev(fg)) == 0
    # two runs [3, 2] with one free wire used as parity: checks stay inside runs
    a = "0100101"
    layout = build_layout(a, 1)
    graph = IraGraph(layout.num_info, 1, np.arange(layout.num_info), np.zeros(layout.num_info, dtype=np.int64))
    fg = build_factor_graph(a, graph, layout)
    lengths = sorted(d for _, d in layout.segments)
    assert np.count_nonzero(_adj_prev(fg)) == sum(d - 1 for d in lengths)
    assert fg.layout.num_info == fg.graph.num_info == 5
    assert fg.layout.num_parity == fg.graph.num_parity == 1


def test_factor_graph_holds_only_the_code_instance():
    rng = np.random.default_rng(13)
    a, layout, graph = random_instance(rng)
    fg = build_factor_graph(a, graph, layout)
    assert [f.name for f in dataclasses.fields(fg)] == ["a_bits", "layout", "graph"]
    assert fg.layout is layout and fg.graph is graph


def test_factor_graph_rejects_edges_out_of_check_order():
    # the decoder takes each check's edges as one block: a graph whose
    # edges leave check order is refused, one shuffled within checks is not
    rng = np.random.default_rng(13)
    rejected = 0
    for _ in range(20):
        a, layout, graph = random_instance(rng)
        within = np.lexsort((rng.random(graph.num_edges), graph.edge_check))
        build_factor_graph(a, graph, layout)
        build_factor_graph(a, _reordered(graph, within), layout)
        shuffled = _reordered(graph, rng.permutation(graph.num_edges))
        if np.any(np.diff(shuffled.edge_check) < 0):
            rejected += 1
            with pytest.raises(ValueError, match="graph edges must be listed in check order"):
                build_factor_graph(a, shuffled, layout)
    assert rejected >= 15


def _reordered(graph, order):
    return IraGraph(graph.num_info, graph.num_parity, graph.edge_info[order],
                    graph.edge_check[order])


def test_factor_graph_crosstalk_pairs_match_reference_with_shields():
    # adj_prev marks the right-hand wire of every crosstalk pair, also on
    # layouts whose shield pairs cut runs
    rng = np.random.default_rng(11)
    shielded = 0
    for _ in range(300):
        a, layout, graph = random_instance(rng, allow_shields=True)
        shielded += bool(layout.pinned)
        fg = build_factor_graph(a, graph, layout)
        right = [v for _, v in ReferenceDecoder(a, graph, layout).cac_checks]
        pins, adj_prev, _ = wire_maps(fg)
        assert np.flatnonzero(adj_prev).tolist() == right
        assert pins.tolist() == list(layout.pinned)
    assert shielded >= 30


def test_factor_graph_check_incidence_matches_free_wires():
    # with no parities, a wire touches no crosstalk check iff it is free
    rng = np.random.default_rng(2)
    from jointbus import free_wires

    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        fg = build_factor_graph(a, _empty_graph(n), build_layout(a, 0))
        adj_prev = _adj_prev(fg)
        touched = np.zeros(n, dtype=bool)
        touched[1:] |= adj_prev[1:]
        touched[:-1] |= adj_prev[1:]
        free = np.zeros(n, dtype=bool)
        free[[w - 1 for w in free_wires(a)]] = True
        assert np.array_equal(~touched, free)


def test_factor_graph_size_mismatch():
    layout = build_layout("0101", 0)
    with pytest.raises(ValueError, match="does not match"):
        build_factor_graph("0101", _empty_graph(3), layout)


def test_bp_decode_no_erasures():
    fg = build_factor_graph("0000", _empty_graph(4), build_layout("0000", 0))
    res = bp_decode("1011", fg)
    assert res.converged and res.iterations == 1
    assert res.residual_erasures == 0
    assert str(res.word) == "1011"
    assert res.info_bits == (1, 0, 1, 1)


def test_bp_decode_cac_forcing_example():
    # past 0101, received 111e: wire 3 transitions, forcing wire 4 to 1;
    # 1111 is indeed the unique valid completion of 111
    a = "0101"
    completions = [w for w in valid_words(a) if tuple(w[:3]) == (1, 1, 1)]
    assert len(completions) == 1 and completions[0].tolist() == [1, 1, 1, 1]
    fg = build_factor_graph(a, _empty_graph(4), build_layout(a, 0))
    res = bp_decode("111e", fg)
    assert str(res.word) == "1111"
    assert res.residual_erasures == 0


def test_bp_decode_erased_parity_mid_chain():
    # three parities on free wires; erase the middle one and let the two
    # neighbouring accumulator checks recover it
    a = np.array([0, 0, 0, 0, 0, 1, 0], dtype=np.uint8)
    layout = build_layout(a, 3)
    assert layout.parity_slot_array.tolist() == [0, 1, 3]
    graph = IraGraph(layout.num_info, 3, np.zeros(3, dtype=np.int64), np.arange(3))
    word = encode_instance(np.random.default_rng(0), a, layout, graph)
    fg = build_factor_graph(a, graph, layout)
    rcv = word.astype(np.uint8).copy()
    rcv[1] = ERASED
    res = bp_decode(rcv, fg)
    assert res.residual_erasures == 0
    assert np.array_equal(res.word.symbols, word)


def test_bp_decode_never_flips_bits():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, layout, graph = random_instance(rng, n_max=48, allow_shields=True)
        word = encode_instance(rng, a, layout, graph)
        erase = rng.random(a.size) < rng.uniform(0.1, 0.9)
        rcv = word.copy()
        rcv[erase] = ERASED
        res = bp_decode(rcv, build_factor_graph(a, graph, layout))
        out = res.word.symbols
        mask = out != ERASED
        assert np.all(out[mask] == word[mask])


def test_bp_decode_matches_reference_and_peeling():
    rng = np.random.default_rng(17)
    for trial in range(60):
        a, layout, graph = random_instance(rng, n_max=40, allow_shields=(trial % 3 == 0))
        word = encode_instance(rng, a, layout, graph)
        eps = rng.uniform(0.05, 0.95)
        rcv = word.copy()
        rcv[rng.random(a.size) < eps] = ERASED
        fg = build_factor_graph(a, graph, layout)
        fast = bp_decode(rcv, fg).word.symbols
        ref, _ = ReferenceDecoder(a, graph, layout).decode(rcv)
        peeled = peel_decode(a, graph, layout, rcv)
        assert np.array_equal(fast, ref), f"fast vs reference mismatch on trial {trial}"
        assert np.array_equal(fast, peeled), f"fast vs peeling mismatch on trial {trial}"


def test_bp_decode_literal_schedule_equivalent():
    # one crosstalk pass per iteration reaches what repeating it until
    # nothing changes reaches
    rng = np.random.default_rng(23)
    for _ in range(40):
        a, layout, graph = random_instance(rng, n_max=48)
        word = encode_instance(rng, a, layout, graph)
        rcv = word.copy()
        rcv[rng.random(a.size) < 0.5] = ERASED
        fg = build_factor_graph(a, graph, layout)
        res = bp_decode(rcv, fg)
        res_sat = sweep_decode(rcv, fg, saturate_runs=True)
        res_lit = sweep_decode(rcv, fg, saturate_runs=False)
        assert np.array_equal(res.word.symbols, res_sat.word.symbols)
        assert np.array_equal(res_sat.word.symbols, res_lit.word.symbols)


def _assert_same_result(fg, rcv, max_outer, context):
    got = bp_decode(rcv, fg, max_outer=max_outer, record_trace=True)
    want = sweep_decode(rcv, fg, max_outer=max_outer, record_trace=True)
    assert got == want, context


def test_bp_decode_matches_full_sweep_reference():
    # the frontier decoder returns what recomputing every message in every
    # iteration returns, field by field: word, payload, iteration count,
    # stopping flag, residual, trace and violation, also when a stall or
    # max_outer cuts the decode short and when known bits contradict
    rng = np.random.default_rng(71)
    for trial in range(120):
        a, layout, graph = random_instance(rng, n_max=64, allow_shields=(trial % 2 == 0))
        fg = build_factor_graph(a, graph, layout)
        word = encode_instance(rng, a, layout, graph)
        rcv = word.copy()
        if trial % 3 == 0:
            rcv[rng.random(a.size) < 0.05] ^= 1
        rcv[rng.random(a.size) < rng.uniform(0.0, 0.6)] = ERASED
        for max_outer in (1, 2, 3, 200):
            _assert_same_result(fg, rcv, max_outer, (trial, max_outer))
    for ensemble in (EnsembleSpec("uniform", 300), EnsembleSpec("modified", 300)):
        inst = build_instances(7, range(12), DIST, ensemble=ensemble, mode="uniform-codeword")
        fg = inst.fg
        for eps in (0.0, 0.15, 0.22, 0.3, 0.5):
            rcv = inst.word.copy()
            if eps == 0.3:
                rcv[rng.random(rcv.size) < 0.01] ^= 1
            rcv[rng.random(rcv.size) < eps] = ERASED
            for max_outer in (1, 2, 3, 200):
                _assert_same_result(fg, rcv, max_outer, (ensemble.kind, eps, max_outer))
    # in any order of the edges within each check, the block visits and
    # the fill order give the sweep's result
    for trial in range(60):
        a, layout, graph = random_instance(rng, n_max=64, allow_shields=(trial % 2 == 0))
        word = encode_instance(rng, a, layout, graph)
        graph = _reordered(graph, np.lexsort((rng.random(graph.num_edges), graph.edge_check)))
        fg = build_factor_graph(a, graph, layout)
        rcv = word.copy()
        if trial % 3 == 0:
            rcv[rng.random(a.size) < 0.05] ^= 1
        rcv[rng.random(a.size) < rng.uniform(0.0, 0.6)] = ERASED
        for max_outer in (1, 2, 3, 200):
            _assert_same_result(fg, rcv, max_outer, ("permuted", trial, max_outer))


def test_bp_decode_without_sparse_edges_matches_full_sweep_reference():
    # a graph with no sparse edge, on a layout without parities or on one
    # of parities and pins alone, decodes as the sweep does
    rng = np.random.default_rng(83)
    instances = []
    for _ in range(30):
        a = rng.integers(0, 2, int(rng.integers(1, 41)), dtype=np.uint8)
        instances.append((a, build_layout(a, 0), _empty_graph(a.size)))
    for past, p in (("0000", 4), ("0011", 3), ("000000", 6)):
        a = np.frombuffer(past.encode(), dtype=np.uint8) - ord("0")
        empty = np.zeros(0, dtype=np.int64)
        instances.append((a, build_layout(a, p), IraGraph(0, p, empty, empty.copy())))
    for trial, (a, layout, graph) in enumerate(instances):
        fg = build_factor_graph(a, graph, layout)
        for _ in range(4):
            rcv = encode_instance(rng, a, layout, graph)
            rcv[rng.random(a.size) < 0.5] = ERASED
            for max_outer in (1, 2, 200):
                _assert_same_result(fg, rcv, max_outer, (trial, max_outer))


def _graph_with_empty_checks(rng, num_info, num_parity, empty):
    """A graph in check order whose checks in ``empty`` have no sparse edge."""
    degrees = rng.integers(1, 5, num_parity)
    degrees[list(empty)] = 0
    edge_check = np.repeat(np.arange(num_parity), degrees)
    return IraGraph(num_info, num_parity, rng.integers(0, num_info, edge_check.size), edge_check)


def test_bp_decode_checks_without_sparse_edges_anywhere_in_a_chain_match_the_sweep():
    # a check with no sparse edge only ties its two parities; sampled
    # graphs have such checks only at the end of a chain, so put them
    # first, in the middle and last, in a lone instance and in unions with
    # other instances, and compare with the sweep field by field
    rng = np.random.default_rng(97)
    for trial in range(48):
        parts = []
        for k in range(1 + trial % 3):
            if k == 2:
                parts.append(random_instance(rng, n_max=40, allow_shields=True))
                continue
            while True:
                a = rng.integers(0, 2, int(rng.integers(16, 61)), dtype=np.uint8)
                try:
                    layout = build_layout(a, max(3, round(a.size * 0.2)))
                    break
                except ValueError:
                    continue
            p = layout.num_parity
            empty = [(0,), (p // 2,), (p - 1,), (0, p // 2, p - 1)][(trial + k) % 4]
            parts.append((a, layout, _graph_with_empty_checks(rng, layout.num_info, p, empty)))
        rcv = np.concatenate([encode_instance(rng, *part) for part in parts])
        rcv[rng.random(rcv.size) < rng.uniform(0.1, 0.6)] = ERASED
        a, layout, graph = disjoint_union(parts) if len(parts) > 1 else parts[0]
        fg = build_factor_graph(a, graph, layout)
        for max_outer in (1, 2, 3, 200):
            _assert_same_result(fg, rcv, max_outer, (trial, max_outer))


def test_bp_decode_stops_on_a_stopping_set():
    # the erasures left by a converged decode form a stopping set of the
    # joint graph, on small random instances and on wide buses near the
    # threshold; a decode cut off after one iteration leaves a check or
    # crosstalk pair that could still resolve, and is flagged
    rng = np.random.default_rng(5)
    cut_short = 0
    for _ in range(200):
        a, layout, graph = random_instance(rng, n_max=64, allow_shields=True)
        fg = build_factor_graph(a, graph, layout)
        rcv = encode_instance(rng, a, layout, graph)
        rcv[rng.random(a.size) < rng.uniform(0.1, 0.7)] = ERASED
        res = bp_decode(rcv, fg, extract_payload=False)
        assert res.converged
        assert stopping_set_violation(fg, res.word.symbols) is None
        first = bp_decode(rcv, fg, max_outer=1, extract_payload=False)
        if first.word != res.word:
            cut_short += 1
            assert stopping_set_violation(fg, first.word.symbols) is not None
    assert cut_short >= 20
    for n, trials in ((10**4, 6), (10**5, 1)):
        inst = build_instances(3, range(trials), DIST, EnsembleSpec("uniform", n))
        u = np.concatenate([r.random(n) for r in inst.rngs])
        rcv = np.where(u < 0.226, ERASED, inst.word)
        res = bp_decode(rcv, inst.fg, extract_payload=False)
        assert res.converged and res.residual_erasures > 0, n
        assert stopping_set_violation(inst.fg, res.word.symbols) is None, n
        first = bp_decode(rcv, inst.fg, max_outer=1, extract_payload=False)
        assert stopping_set_violation(inst.fg, first.word.symbols) is not None, n


def test_bp_decode_rejects_nonpositive_max_outer():
    fg = build_factor_graph("0101", _empty_graph(4), build_layout("0101", 0))
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_outer"):
            bp_decode("0e01", fg, max_outer=bad)


def test_bp_decode_monotone_trace():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a, layout, graph = random_instance(rng, n_max=64)
        word = encode_instance(rng, a, layout, graph)
        rcv = word.copy()
        rcv[rng.random(a.size) < 0.4] = ERASED
        fg = build_factor_graph(a, graph, layout)
        res = bp_decode(rcv, fg, record_trace=True)
        trace = res.x_ecc_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def test_bp_decode_cac_checks_only_help():
    # removing the run constraints can only shrink the resolved set
    rng = np.random.default_rng(41)
    from jointbus.jointcode import WireLayout

    for _ in range(40):
        a, layout, graph = random_instance(rng, n_max=48)
        word = encode_instance(rng, a, layout, graph)
        rcv = word.copy()
        rcv[rng.random(a.size) < 0.5] = ERASED
        joint = bp_decode(rcv, build_factor_graph(a, graph, layout)).word.symbols
        stripped = WireLayout(
            n=layout.n,
            parity_slot_array=layout.parity_slot_array,
            pinned=layout.pinned,
            segments=np.column_stack((layout.info_wire_array,
                                      np.ones_like(layout.info_wire_array))),
        )
        bare = bp_decode(rcv, build_factor_graph(a, graph, stripped)).word.symbols
        resolved_joint = joint != ERASED
        resolved_bare = bare != ERASED
        assert np.all(resolved_joint | ~resolved_bare)


def test_bp_decode_uniform_codeword_out_of_payload_range():
    # a fully resolved word outside the floor-truncated index range reports
    # no payload but zero residual erasures, and names the index
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    layout = build_layout(a, 0)
    graph = _empty_graph(4)
    from jointbus.cac import RunCodebook

    word = np.concatenate(
        [RunCodebook(a[:2]).unrank(2), RunCodebook(a[2:]).unrank(2)]
    )
    fg = build_factor_graph(a, graph, layout)
    res = bp_decode(word, fg)
    assert res.residual_erasures == 0
    assert res.info_bits is None
    assert res.violation == "word index 8 falls outside the used range [0, 2**3)"


def test_bp_decode_out_of_range_on_a_wide_bus(int_digit_limit):
    # at 2 * 10**4 wires and rate 10/11 the index of a word that keeps every
    # check has about 4,400 decimal digits, past the limit: the violation
    # names its bit length, not the interpreter's conversion error
    a = gen_past_uniform(20_000, np.random.default_rng(4)).bits
    dist = DegreeDistribution.regular(3, 30)
    layout = build_layout(a, round(a.size * (1 - recc_from_rldpc(rate_ldpc(dist)))))
    graph = sample_graph(layout.num_info, layout.num_parity, dist, np.random.default_rng(5))
    res = bp_decode(out_of_range_word(a, layout, graph), build_factor_graph(a, graph, layout))
    index = math.prod(fib(d + 2) for _, d in layout.segments.tolist()) - 1
    k = payload_size(a, layout.num_parity)
    assert res.residual_erasures == 0 and res.info_bits is None
    assert res.violation == (f"a {index.bit_length()}-bit word index falls outside the used "
                             f"range [0, 2**{k})")


def test_bp_decode_reports_stall():
    # a lone erased info wire inside a run with no code help stays erased
    fg = build_factor_graph("0101", _empty_graph(4), build_layout("0101", 0))
    res = bp_decode("0e01", fg)
    assert res.converged
    assert res.residual_erasures >= 1
    assert res.info_bits is None


def test_bp_decode_stops_at_the_first_iteration_that_adds_no_knowledge():
    # the last crosstalk message of this stalled 10^4-wire decode goes into
    # a wire the channel gave, which adds no knowledge: counted as a change,
    # it cost a 22nd iteration with the same residual
    inst = build_instances(3, [0], DIST, EnsembleSpec("uniform", 10_000))
    received = bec_transmit(inst.word, 0.24, inst.rngs[0])
    res = bp_decode(received, inst.fg, record_trace=True)
    assert (res.iterations, res.residual_erasures, res.converged) == (21, 1017, True)
    assert res == sweep_decode(received, inst.fg, record_trace=True)


def test_bp_decode_schedule_is_pinned_at_ten_thousand_wires():
    # every DecodeResult field of 24 decodes around the threshold at
    # N = 10^4 (word, payload, iteration count, stopping flag, residual,
    # trace and violation), hashed: the schedule must not move
    digest = hashlib.sha256()
    iterations = []
    for seed, eps in zip(range(3), (0.20, 0.22, 0.24)):
        for trial in range(8):
            inst = build_instances(seed, [trial], DIST, EnsembleSpec("uniform", 10_000))
            res = bp_decode(bec_transmit(inst.word, eps, inst.rngs[0]), inst.fg, record_trace=True)
            iterations.append(res.iterations)
            digest.update(res.word.symbols.tobytes())
            digest.update(repr((res.info_bits, res.iterations, res.converged,
                                res.residual_erasures, res.x_ecc_trace, res.violation)).encode())
    assert iterations == [10, 12, 14, 13, 12, 12, 10, 14, 22, 18, 21, 26, 26, 27, 26, 26,
                          10, 12, 21, 9, 12, 20, 11, 14]
    assert digest.hexdigest() == "2606ced709c9d9b5d60b0692ab268922cee2a02c0e22fa32b3f27da5b8f7da28"


def test_bp_decode_all_erased_stops_after_one_iteration():
    # nothing is known but the pins, which never transition: the first
    # iteration adds no knowledge, and a decode cut off there has converged
    rng = np.random.default_rng(11)
    shielded = 0
    for _ in range(100):
        a, layout, graph = random_instance(rng, allow_shields=True)
        shielded += bool(layout.pinned)
        fg = build_factor_graph(a, graph, layout)
        received = np.full(fg.n, ERASED, dtype=np.uint8)
        res = bp_decode(received, fg, max_outer=1)
        assert res.iterations == 1 and res.converged
        assert res == bp_decode(received, fg) == sweep_decode(received, fg)
    assert shielded >= 5


def test_bp_decode_disjoint_union_matches_single_decodes():
    # one decode of instances laid side by side equals decoding each alone,
    # with shield pairs and modified-ensemble layouts mixed in
    rng = np.random.default_rng(53)
    modified = EnsembleSpec("modified", 40)
    for trial in range(25):
        parts, words = [], []
        for k in range(int(rng.integers(1, 6))):
            if k % 3 == 2:
                inst = build_instances(trial, [k], DIST, ensemble=modified, mode="uniform-codeword")
                parts.append((inst.fg.a_bits, inst.fg.layout, inst.fg.graph))
                words.append(inst.word)
            else:
                part = random_instance(rng, n_max=40, allow_shields=(k % 3 == 0))
                parts.append(part)
                words.append(encode_instance(rng, *part))
        rcvs = []
        for word in words:
            rcv = word.copy()
            rcv[rng.random(word.size) < rng.uniform(0.05, 0.8)] = ERASED
            rcvs.append(rcv)
        a, layout, graph = disjoint_union(parts)
        union = bp_decode(np.concatenate(rcvs), build_factor_graph(a, graph, layout),
                          extract_payload=False).word.symbols
        singles = [bp_decode(r, build_factor_graph(x, g, lay)).word.symbols
                   for (x, lay, g), r in zip(parts, rcvs)]
        refs = [ReferenceDecoder(x, g, lay).decode(r)[0] for (x, lay, g), r in zip(parts, rcvs)]
        assert np.array_equal(union, np.concatenate(singles)), f"union vs single on trial {trial}"
        assert np.array_equal(union, np.concatenate(refs)), f"union vs reference on trial {trial}"


def test_bp_decode_union_chain_starts_from_zero():
    # the first instance's only check is broken; the second instance's
    # parities are all erased and must still resolve forward from the
    # implicit zero at the start of its own chain
    first = ("000", build_layout("000", 1), IraGraph(2, 1, np.array([0, 1]), np.array([0, 0])))
    second = ("000", build_layout("000", 2), IraGraph(1, 2, np.array([0, 0]), np.array([0, 1])))
    assert first[1].parity_slot_array.tolist() == [0]
    assert second[1].parity_slot_array.tolist() == [0, 2]
    rcvs = [np.array([ERASED, ERASED, 1]), np.array([ERASED, 1, ERASED])]
    singles = [bp_decode(r, build_factor_graph(x, g, lay)).word.symbols
               for (x, lay, g), r in zip((first, second), rcvs)]
    assert singles[1].tolist() == [1, 1, 0]
    a, layout, graph = disjoint_union([first, second])
    union = bp_decode(np.concatenate(rcvs), build_factor_graph(a, graph, layout))
    assert np.array_equal(union.word.symbols, np.concatenate(singles))


def _range_fault(word, a, layout):
    """The codec's message for a valid word whose payload index is past
    the payload range; None for a word in range."""
    try:
        decode_payload(word, a, layout.num_parity)
    except ValueError as exc:
        return str(exc)
    return None


def test_bp_decode_rejects_inconsistent_words():
    # a fully known word that breaks a parity check, a crosstalk pair or a
    # pinned wire carries no payload, and the first broken one is named;
    # a codeword (any valid word here, not only those in the payload range)
    # is faulted only for an index past the payload range
    rng = np.random.default_rng(61)
    for _ in range(40):
        a, layout, graph = random_instance(rng, n_max=40, allow_shields=True)
        fg = build_factor_graph(a, graph, layout)
        word = encode_instance(rng, a, layout, graph)
        assert bp_decode(word, fg).violation == _range_fault(word, a, layout)
        j = int(rng.integers(layout.num_parity))
        slot = int(layout.parity_slot_array[j])
        flipped = word.copy()
        flipped[slot] ^= 1
        res = bp_decode(flipped, fg)
        assert res.info_bits is None and res.residual_erasures == 0
        # parity wires touch no crosstalk pair, so the parity check is named
        assert res.violation == f"parity check {j + 1} fails (parity wire {slot + 1})"
        for pin in layout.pinned:
            v = int(a[pin])
            bad = word.copy()
            bad[pin] ^= 1
            res = bp_decode(bad, fg)
            assert res.info_bits is None
            assert res.violation.startswith(f"wire {pin + 1} is pinned to its past bit {v}")
        # an information wire flip goes unseen only if it keeps every
        # crosstalk pair and each of its checks sees it an even number of times
        i = int(rng.integers(layout.num_info))
        wire = layout.info_wire_array[i]
        odd = np.bincount(graph.edge_check[graph.edge_info == i], minlength=1) % 2
        flipped_info = word.copy()
        flipped_info[wire] ^= 1
        res = bp_decode(flipped_info, fg)
        caught = bool(odd.any()) or not check_transition(a, flipped_info).ok
        if caught:
            assert res.violation is not None and res.info_bits is None
        else:
            assert res.violation == _range_fault(flipped_info, a, layout)
        # off the payload path nothing is checked
        assert bp_decode(flipped, fg, extract_payload=False).violation is None
