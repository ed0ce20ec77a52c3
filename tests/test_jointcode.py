import numpy as np
import pytest

from jointbus import (
    DegreeDistribution,
    check_transition,
    build_layout,
    compare_rates,
    decode_payload,
    dmin_bruteforce,
    dmin_witness,
    embedded_encode,
    free_wires,
    ira_encode,
    payload_size,
    rate_embedded,
    rate_shielded,
    sample_graph,
    validate_checks,
    wires_needed,
)
from jointbus.buscore import _run_bounds, _state_from_runs, as_bits
from jointbus.ira import IraGraph
from jointbus.jointcode import (
    WireLayout,
    _companion,
    _layout_from_runs,
    _segment_words,
    _stride_select,
    _xor_closure,
)

from helpers import disjoint_union, shield_layout, stride_select, valid_words

DIST = DegreeDistribution.regular(3, 12)


def _graph_for(a, p_needed, rng, dist=DIST):
    layout = build_layout(a, p_needed)
    if layout.num_parity == 0:
        empty = np.zeros(0, dtype=np.int64)
        return layout, IraGraph(layout.num_info, 0, empty, empty.copy())
    return layout, sample_graph(layout.num_info, layout.num_parity, dist, rng)


def test_select_parity_stride():
    layout = build_layout("0000", 2)
    assert layout.parity_slot_array.tolist() == [0, 2]
    assert layout.pinned == ()


def test_select_parity_none_needed():
    layout = build_layout("0110", 0)
    assert layout.parity_slot_array.tolist() == [] and layout.pinned == ()


def test_select_parity_all_free():
    layout = build_layout("0000", 4)
    assert layout.parity_slot_array.tolist() == [0, 1, 2, 3]
    assert layout.pinned == ()


def test_select_parity_shield_contract():
    # no free wires: the parity rides a shield pair whose left wire repeats
    # its own past bit
    a = "0101"
    layout = build_layout(a, 1)
    (pin,) = layout.pinned
    assert layout.parity_slot_array.tolist() == [pin + 1]
    empty = np.zeros(0, dtype=np.int64)
    graph = IraGraph(layout.num_info, 1, empty, empty.copy())
    # the pinned wire repeats its past bit in every encoded word
    assert payload_size(a, 1) == 1
    for payload in ("0", "1"):
        assert embedded_encode(payload, a, graph).word.bits[pin] == int(a[pin])
    # placement is a deterministic function of the past state
    assert build_layout(a, 1) == layout


def test_select_parity_exhausted():
    with pytest.raises(ValueError, match="cannot place"):
        build_layout("01", 2)


def _placement(build, a, p):
    """A layout, or the message of the ValueError that refuses it."""
    try:
        return build(a, p)
    except ValueError as exc:
        return str(exc)


def test_shield_placement_matches_literal_oracle():
    # random pasts, then pasts of random run lengths (many equally long
    # segments) and 0011... pasts (two free wires), each for every parity
    # count that needs a shield, up to one past the shield capacity
    rng = np.random.default_rng(17)
    pasts = [rng.integers(0, 2, int(rng.integers(1, 40)), dtype=np.uint8) for _ in range(150)]
    pasts += [_state_from_runs(int(rng.integers(2)), rng.integers(1, 7, int(rng.integers(1, 12))))
              for _ in range(150)]
    pasts += [np.resize(np.array([0, 0, 1, 1], dtype=np.uint8), n) for n in (4, 7, 10, 41)]
    for a in pasts:
        _, lengths = _run_bounds(as_bits(a))
        free = int(np.count_nonzero(lengths == 1))
        for p in range(free + 1, free + (as_bits(a).size - free) // 2 + 2):
            assert _placement(build_layout, a, p) == _placement(shield_layout, a, p), (a, p)
    a = np.resize(np.array([0, 0, 1, 1], dtype=np.uint8), 2000)
    assert build_layout(a, 400) == shield_layout(a, 400)


def _assert_array_forms(layout, k):
    assert layout.parity_slot_array.dtype == np.int64 and layout.parity_slot_array.ndim == 1
    assert layout.segments.dtype == np.int64 and layout.segments.shape == (k, 2)


def test_layout_array_forms():
    # stride branch, shield branch, runs and disjoint union, with and
    # without segments
    for a, p, k in [("00100", 1, 2), ("0000", 4, 0), ("0101", 1, 1), ("0011", 3, 0)]:
        _assert_array_forms(build_layout(a, p), k)
    assert build_layout("0101", 1).segments.tolist() == [[0, 2]]
    starts, lengths = _run_bounds(as_bits("00100"))
    for slot_runs, k in [(np.array([True, False, True]), 1), (np.ones(3, dtype=bool), 0)]:
        _assert_array_forms(_layout_from_runs(5, starts, lengths, slot_runs), k)
    empty = np.zeros(0, dtype=np.int64)
    parts = [("0000", build_layout("0000", 4), IraGraph(0, 4, empty, empty.copy())),
             ("0011", build_layout("0011", 3), IraGraph(0, 3, empty, empty.copy()))]
    for instances, k in [(parts, 0), (parts + [("00100", build_layout("00100", 1),
                                                   IraGraph(4, 1, empty, empty.copy()))], 2)]:
        _, layout, _ = disjoint_union(instances)
        _assert_array_forms(layout, k)
    assert layout.segments.tolist() == [[9, 3], [12, 1]]


def test_layout_equality_by_value():
    layout = build_layout("0101", 1)
    same = WireLayout(4, np.array([3]), (2,), np.array([[0, 2]]))
    assert layout == same and not layout != same
    for other in [WireLayout(4, np.array([3]), (2,), np.array([[0, 1]])),
                  WireLayout(4, np.array([3]), (2,), np.array([[0, 2], [2, 1]])),
                  WireLayout(4, np.array([2]), (2,), np.array([[0, 2]])),
                  WireLayout(4, np.array([3]), (1,), np.array([[0, 2]])),
                  WireLayout(5, np.array([3]), (2,), np.array([[0, 2]]))]:
        assert layout != other and not layout == other
    assert layout != "0101" and layout != layout.segments.tolist()


def test_stride_select_matches_literal_choice():
    counts = np.arange(1, 80)
    for p in range(1, 80):
        rows = _stride_select(counts[counts >= p], p)
        for count, row in zip(counts[counts >= p], rows):
            assert row.tolist() == stride_select(int(count), p)


def test_layout_partitions_wires():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        p = int(rng.integers(0, max(1, n // 3)))
        try:
            layout = build_layout(a, p)
        except ValueError:
            continue
        slots = set(layout.parity_slot_array.tolist())
        pins = set(layout.pinned)
        info = set(layout.info_wire_array.tolist())
        assert len(slots) + len(pins) + len(info) == n
        assert not (slots & pins or slots & info or pins & info)
        assert layout.num_parity == p


def test_embedded_encode_no_parities_identity():
    a = "0000"
    layout, graph = _graph_for(a, 0, np.random.default_rng(1))
    code = embedded_encode([1, 0, 1, 1], a, graph)
    assert str(code.word) == "1011"
    assert code.layout.parity_slot_array.tolist() == []
    assert code.layout.info_wire_array.tolist() == [0, 1, 2, 3]


def test_embedded_encode_hand_accumulator():
    # parities on wires 1 and 3; each check reads one of the two info wires
    a = np.array([0, 0, 0, 0], dtype=np.uint8)
    graph = IraGraph(2, 2, np.array([0, 1]), np.array([0, 1]))
    code = embedded_encode([1, 0], a, graph)
    w = code.word.bits
    # info wires are 2 and 4 (1-based); parities p1 = b2, p2 = p1 xor b4
    assert w[1] == 1 and w[3] == 0
    assert w[0] == 1 and w[2] == 1
    assert check_transition(a, w).ok


def test_embedded_encode_random_property():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = 64
        a = rng.integers(0, 2, n, dtype=np.uint8)
        p = round(n * 0.2)
        try:
            layout, graph = _graph_for(a, p, rng)
        except ValueError:
            continue
        k = payload_size(a, p)
        payload = rng.integers(0, 2, k, dtype=np.uint8)
        code = embedded_encode(payload, a, graph)
        w = code.word.bits
        assert check_transition(a, w).ok
        sys_bits = w[layout.info_wire_array]
        par = w[layout.parity_slot_array]
        assert validate_checks(sys_bits, par, graph)
        assert decode_payload(w, a, p).tolist() == payload.tolist()


def test_embedded_encode_wire_accounting():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = 16
        a = rng.integers(0, 2, n, dtype=np.uint8)
        try:
            layout, graph = _graph_for(a, 4, rng)
        except ValueError:
            continue
        k = payload_size(a, 4)
        code = embedded_encode(rng.integers(0, 2, k, dtype=np.uint8), a, graph)
        assert code.layout == layout
        assert layout.num_info + layout.num_parity + len(layout.pinned) == n


def test_rate_theorems():
    assert rate_shielded(0.824, 0.9) == pytest.approx(0.674, abs=1e-3)
    assert rate_embedded(0.824, 0.9) == pytest.approx(0.724, abs=1e-9)
    assert rate_shielded(0.77, 1.0) == pytest.approx(0.77)
    assert rate_embedded(0.77, 1.0) == pytest.approx(0.77)
    assert rate_shielded(0.824, 0.8) == pytest.approx(0.824 / 1.5)
    assert rate_embedded(0.824, 0.8) == pytest.approx(0.624, abs=1e-9)


def test_wires_needed_ddr4():
    assert wires_needed(59, rate_shielded(0.824, 0.9)) == 88
    assert wires_needed(59, rate_embedded(0.824, 0.9)) == 82
    assert wires_needed(59, 0.824) == 72
    with pytest.raises(ValueError):
        wires_needed(10, 0.0)


def test_compare_rates_uniform_sample():
    rng = np.random.default_rng(33)
    a = rng.integers(0, 2, 10_000, dtype=np.uint8)
    cmp = compare_rates(a, 0.9)
    assert cmp.margin == pytest.approx(0.05, abs=0.01)
    assert cmp.r_cac >= cmp.cac_rate_lower_bound
    assert cmp.margin >= 0


def test_compare_rates_recc_one_collapses():
    rng = np.random.default_rng(34)
    a = rng.integers(0, 2, 4096, dtype=np.uint8)
    cmp = compare_rates(a, 1.0)
    assert cmp.margin == pytest.approx(0.0, abs=1e-12)


def test_compare_rates_small_delta_slope():
    rng = np.random.default_rng(35)
    a = rng.integers(0, 2, 200_000, dtype=np.uint8)
    delta = 1e-3
    cmp = compare_rates(a, 1.0 - delta)
    # margin grows like (2 r_cac - 1) * delta ~ 0.648 delta near rate one
    assert cmp.margin / delta == pytest.approx(2 * cmp.r_cac - 1, rel=5e-3)
    assert cmp.margin / delta == pytest.approx(0.648, abs=0.01)


def test_compare_rates_hypothesis_violated():
    with pytest.raises(ValueError, match="free-wire fraction"):
        compare_rates("0101010101", 0.8)


@pytest.mark.parametrize("r_ecc", [0.0, -0.5, 1.5])
def test_compare_rates_rejects_rate_outside_unit_interval(r_ecc):
    # a single free wire meets the free-wire condition for any rate
    with pytest.raises(ValueError, match=r"r_ecc must lie in \(0, 1\]"):
        compare_rates("0", r_ecc)


def _witness_instance(a_str, c0_bits, p_needed, seed=0):
    a = np.array([int(c) for c in a_str], dtype=np.uint8)
    rng = np.random.default_rng(seed)
    # (2, 11) keeps the 11-info/2-parity instance socket-balanced exactly
    layout, graph = _graph_for(a, p_needed, rng, DegreeDistribution.regular(2, 11))
    return a, layout, graph, np.array(c0_bits, dtype=np.uint8)


def test_dmin_witness_reference_vectors():
    # past 01010101010 plus two free wires for the parities
    a, layout, graph, c0 = _witness_instance(
        "0101010101000", [int(c) for c in "11001011100"], 2
    )
    c1, c2 = dmin_witness(c0, a, graph)
    info = layout.info_wire_array
    assert "".join(str(b) for b in c1.bits[info]) == "00011100010"
    assert "".join(str(b) for b in c2.bits[info]) == "11010111110"
    for w in (c1, c2):
        assert check_transition(a, w.bits).ok
        assert validate_checks(w.bits[info], w.bits[layout.parity_slot_array], graph)
    full_c0 = np.zeros(a.size, dtype=np.uint8)
    full_c0[info] = c0
    full_c0[layout.parity_slot_array] = ira_encode(c0, graph)
    assert np.array_equal(c1.bits ^ c2.bits, full_c0)


def test_dmin_witness_already_valid_word():
    # c0 equal to the past pattern makes no transitions at all
    a, layout, graph, c0 = _witness_instance(
        "0101010101000", [int(c) for c in "01010101010"], 2
    )
    assert check_transition(a[layout.info_wire_array], c0).ok
    c1, c2 = dmin_witness(c0, a, graph)
    assert not c1.bits[layout.info_wire_array].any()
    assert np.array_equal(c2.bits[layout.info_wire_array], c0)


def test_dmin_witness_rejects_zero():
    a, layout, graph, c0 = _witness_instance("0101010101000", [0] * 11, 2)
    with pytest.raises(ValueError, match="nonzero"):
        dmin_witness(c0, a, graph)


def test_dmin_witness_random_property():
    rng = np.random.default_rng(99)
    dist = DegreeDistribution.regular(3, 6)
    done = 0
    while done < 200:
        n = 48
        a = rng.integers(0, 2, n, dtype=np.uint8)
        p = round(n / 3)
        if len(free_wires(a)) < p:
            continue
        layout = build_layout(a, p)
        graph = sample_graph(layout.num_info, p, dist, rng)
        c0 = rng.integers(0, 2, layout.num_info, dtype=np.uint8)
        if not c0.any():
            continue
        c1, c2 = dmin_witness(c0, a, graph)
        info = layout.info_wire_array
        slots = layout.parity_slot_array
        for w in (c1, c2):
            assert check_transition(a, w.bits).ok
            assert validate_checks(w.bits[info], w.bits[slots], graph)
        assert np.array_equal((c1.bits ^ c2.bits)[info], c0)
        assert np.array_equal((c1.bits ^ c2.bits)[slots], ira_encode(c0, graph))
        done += 1


def _alternating_runs(max_len):
    for d in range(1, max_len + 1):
        for phase in (0, 1):
            yield np.array([(phase + i) % 2 for i in range(d)], dtype=np.uint8)


def test_companion_splits_every_word_on_a_run():
    # every c0, the zero word too, is c1 xor (c1 xor c0) with both halves
    # valid continuations of the run
    for past in _alternating_runs(12):
        d = past.size
        words = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
        for c0 in words.astype(np.uint8):
            c1 = _companion(past, c0)
            assert check_transition(past, c1).ok, (past, c0)
            assert check_transition(past, c1 ^ c0).ok, (past, c0)


def test_every_word_is_a_difference_of_run_continuations():
    # the lemma behind the joint code keeping the distance of the code:
    # on one run, the differences of valid continuations are all words
    for past in _alternating_runs(12):
        d = past.size
        closure = _xor_closure(_segment_words(past), d)
        assert np.array_equal(closure, np.arange(1 << d)), past


def test_dmin_rejects_shielded_layout_and_foreign_graph():
    # one alternating run has no free wire, so its parity takes a shield pair
    shielded = np.array([0, 1] * 5, dtype=np.uint8)
    layout = build_layout(shielded, 1)
    assert layout.pinned
    k = layout.num_info
    graph = IraGraph(k, 1, np.arange(k), np.zeros(k, dtype=np.int64))
    with pytest.raises(ValueError, match="witness construction requires all parities on free"):
        dmin_witness(np.ones(k, dtype=np.uint8), shielded, graph)
    with pytest.raises(ValueError, match="distance scan requires all parities on free wires"):
        dmin_bruteforce(shielded, graph)
    # all wires free: two parity slots leave two info wires, not three
    free = np.zeros(4, dtype=np.uint8)
    assert build_layout(free, 2).num_info == 2
    foreign = IraGraph(3, 2, np.arange(3), np.array([0, 1, 1]))
    for call in (lambda: dmin_witness(np.ones(3, dtype=np.uint8), free, foreign),
                 lambda: dmin_bruteforce(free, foreign)):
        with pytest.raises(ValueError, match="graph does not match the layout"):
            call()


def test_segment_words_are_the_valid_run_continuations():
    for past in _alternating_runs(10):
        packed = [int("".join(map(str, w.tolist())), 2) for w in valid_words(past)]
        assert _segment_words(past).tolist() == sorted(packed)


def test_dmin_bruteforce_single_payload_bit():
    # one info wire pair: distance between the only two codewords
    a = np.array([0, 0], dtype=np.uint8)
    graph = IraGraph(1, 1, np.array([0]), np.array([0]))
    res = dmin_bruteforce(a, graph)
    assert res.d_embedded == res.d_ecc == 2  # info bit + its parity


def test_dmin_bruteforce_repetition_structure():
    # both info bits feed the single check: flipping the pair cancels the
    # parity, so the distance comes from systematic weight alone
    a = np.array([0, 0, 0], dtype=np.uint8)
    graph = IraGraph(2, 1, np.array([0, 1]), np.array([0, 0]))
    res = dmin_bruteforce(a, graph)
    assert res.d_ecc == 2  # flip both info bits, parities cancel
    assert res.d_embedded == res.d_ecc


def test_dmin_matches_ecc_on_random_small_instances():
    rng = np.random.default_rng(1234)
    dist = DegreeDistribution.regular(3, 6)
    done = 0
    while done < 5:
        n = int(rng.integers(12, 18))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        p = max(1, round(n / 3))
        if len(free_wires(a)) < p:
            continue
        layout = build_layout(a, p)
        if layout.num_info > 14 or layout.num_info < 2:
            continue
        graph = sample_graph(layout.num_info, p, dist, rng)
        res = dmin_bruteforce(a, graph)
        assert res.d_embedded == res.d_ecc
        done += 1


def test_dmin_bruteforce_guards():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, 64, dtype=np.uint8)
    layout, graph = _graph_for(a, round(64 * 0.2), rng)
    with pytest.raises(ValueError, match="20 systematic bits"):
        dmin_bruteforce(a, graph)
