import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from jointbus import (
    DegreeDistribution,
    IraGraph,
    ira_encode,
    rate_ldpc,
    recc_from_rldpc,
    sample_graph,
    validate_checks,
)
from jointbus.ira import (_GATHER_CHUNK, _check_sockets, _gather, _permutation_size,
                         _sample_graphs, _var_sockets)
from jointbus.simkit import trial_rng

from helpers import graph_union


def _chain_graph(edges, num_info, num_parity):
    ei = np.array([e[0] for e in edges], dtype=np.int64)
    ec = np.array([e[1] for e in edges], dtype=np.int64)
    return IraGraph(num_info, num_parity, ei, ec)


def test_regular_distribution():
    d = DegreeDistribution.regular(3, 12)
    assert d.L_coeffs == ((3, 1.0),)
    assert d.lambda_coeffs == ((3, 1.0),)
    assert d.avg_var_degree == 3
    assert d.avg_chk_degree == 12
    assert d.lam(0.5) == pytest.approx(0.25)
    assert d.rho(0.5) == pytest.approx(0.5 ** 11)
    assert d.L(0.5) == pytest.approx(0.125)


def test_parse_shorthand():
    assert DegreeDistribution.parse("3,12") == DegreeDistribution.regular(3, 12)
    with pytest.raises(ValueError):
        DegreeDistribution.parse("3;12")


def test_edge_node_consistency():
    d = DegreeDistribution(((2, 0.5), (4, 0.5)), ((6, 1.0),))
    lam = dict(d.lambda_coeffs)
    # lambda_i proportional to i * L_i
    assert lam[2] == pytest.approx(2 * 0.5 / 3.0)
    assert lam[4] == pytest.approx(4 * 0.5 / 3.0)
    assert d.lam(1.0) == pytest.approx(1.0)
    assert d.L(1.0) == pytest.approx(1.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution(((0, 1.0),), ((6, 1.0),))
    with pytest.raises(ValueError):
        DegreeDistribution(((2, -0.5),), ((6, 1.0),))


@pytest.mark.parametrize("L, message", [
    (((3, -0.5),), "fractions must be finite reals >= 0, got -0.5"),
    (((3, math.nan),), "fractions must be finite reals >= 0, got nan"),
    (((3, math.inf),), "fractions must be finite reals >= 0, got inf"),
    (((3, True),), "fractions must be finite reals >= 0, got True"),
    (((3, "0.5"),), "fractions must be finite reals >= 0, got '0.5'"),
    (((3, 10**400),), "fractions must be finite reals >= 0, got 1000"),
    (((3, 1e308), (4, 1e308)), "degree distribution mass must be finite and > 0, got inf"),
    (((3, 0.0), (4, 0)), "degree distribution mass must be finite and > 0, got 0.0"),
], ids=["negative", "nan", "inf", "bool", "string", "huge-int", "overflow", "no-mass"])
def test_distribution_weights_are_finite_reals_of_positive_mass(L, message):
    # a NaN weight once emptied L, and an overflowing mass divided by zero
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        DegreeDistribution(L, ((12, 1.0),))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        DegreeDistribution(((3, 1.0),), L)


@pytest.mark.parametrize("degree, shown", [(10**400, str(10**400)),
                                           (10**5000, "a 16610-bit integer")],
                         ids=["decimal", "too-long-to-print"])
def test_degree_above_the_float_range_is_refused(degree, shown):
    # a degree meets its weight as a float: past the largest float it once
    # raised OverflowError, and one too long to print is named by its bits
    message = f"degree must be at most {sys.float_info.max}, got {shown}"
    for L, R in ((((degree, 1.0),), ((12, 1.0),)), (((3, 1.0),), ((degree, 1.0),))):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            DegreeDistribution(L, R)
    DegreeDistribution(((3, 1.0),), ((int(sys.float_info.max), 1.0),))


def test_rate_ldpc():
    assert rate_ldpc(DegreeDistribution.regular(3, 12)) == pytest.approx(0.75)
    assert rate_ldpc(DegreeDistribution.regular(3, 6)) == pytest.approx(0.5)
    assert rate_ldpc(DegreeDistribution.regular(3, 3)) == pytest.approx(0.0)


def test_recc_from_rldpc():
    assert recc_from_rldpc(0.75) == pytest.approx(0.8)
    assert recc_from_rldpc(1.0) == pytest.approx(1.0)
    assert recc_from_rldpc(0.9) == pytest.approx(1 / 1.1)
    for bad in (2 / 3, 0.5, 1.1):
        with pytest.raises(ValueError):
            recc_from_rldpc(bad)


def test_sample_graph_regular_degrees():
    rng = np.random.default_rng(0)
    g = sample_graph(120, 30, DegreeDistribution.regular(3, 12), rng)
    assert g.num_edges == 360
    assert np.all(np.bincount(g.edge_info, minlength=120) == 3)
    assert np.all(np.bincount(g.edge_check, minlength=30) == 12)


def test_sample_graph_empty_info():
    rng = np.random.default_rng(0)
    g = sample_graph(0, 5, DegreeDistribution.regular(3, 12), rng)
    assert g.num_edges == 0 and g.num_parity == 5


@pytest.mark.parametrize("num_info, num_parity", [(7, 0), (0, 0), (0, 5)])
def test_sample_graph_without_edges_draws_nothing(num_info, num_parity):
    # no parities (a bus whose code needs none) or no info nodes: an empty
    # graph, and the stream is left where it was
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    g = sample_graph(num_info, num_parity, DegreeDistribution.regular(3, 12), rng)
    assert (g.num_info, g.num_parity, g.num_edges) == (num_info, num_parity, 0)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("num_info, num_parity", [(-1, 3), (3, -1)])
def test_sample_graph_rejects_negative_counts(num_info, num_parity):
    with pytest.raises(ValueError, match="must be >= 0"):
        sample_graph(num_info, num_parity, DegreeDistribution.regular(3, 12),
                     np.random.default_rng(0))


def test_sample_graph_deterministic_given_seed():
    d = DegreeDistribution.regular(3, 12)
    g1 = sample_graph(40, 10, d, np.random.default_rng(77))
    g2 = sample_graph(40, 10, d, np.random.default_rng(77))
    assert np.array_equal(g1.edge_info, g2.edge_info)
    assert np.array_equal(g1.edge_check, g2.edge_check)


def test_sample_graph_lists_the_matching_by_check():
    # the edges are the pairs (v_sockets[k], c_sockets[perm[k]]) of the one
    # permutation drawn, listed with edge_check non-decreasing; a graph
    # without info nodes or parities has no edges
    rng = np.random.default_rng(21)
    dist = DegreeDistribution(((2, 0.3), (3, 0.7)), ((10, 0.5), (12, 0.5)))
    sizes = [(0, 0), (0, 5), (7, 0)] + [tuple(int(x) for x in rng.integers(1, 80, 2))
                                        for _ in range(40)]
    for num_info, num_parity in sizes:
        seed = int(rng.integers(1 << 32))
        g = sample_graph(num_info, num_parity, dist, np.random.default_rng(seed))
        assert np.all(np.diff(g.edge_check) >= 0)
        if not (num_info and num_parity):
            assert g.num_edges == 0
            continue
        v_sockets = _var_sockets(num_info, dist)
        c_sockets = _check_sockets(num_info, num_parity, dist)
        perm = np.random.default_rng(seed).permutation(c_sockets.size)
        drawn = sorted(zip(v_sockets.tolist(), c_sockets[perm].tolist()))
        assert sorted(zip(g.edge_info.tolist(), g.edge_check.tolist())) == drawn


def test_union_keeps_check_order():
    rng = np.random.default_rng(9)
    dist = DegreeDistribution.regular(3, 12)
    parts = [sample_graph(40, 10, dist, rng), _chain_graph([], 5, 0),
             sample_graph(24, 6, dist, rng), sample_graph(8, 2, dist, rng)]
    union = graph_union(parts)
    assert np.all(np.diff(union.edge_check) >= 0)
    assert union.num_edges == sum(g.num_edges for g in parts)


def _mixed_sizes(seed, count):
    # per-trial node counts over the span a modified-ensemble campaign at
    # N = 100 gives them: 54 to 112 info nodes, 13 to 28 parities
    rng = np.random.default_rng(seed)
    return [(int(k), int(q)) for k, q in zip(rng.integers(54, 113, count),
                                             rng.integers(13, 29, count))]


@pytest.mark.parametrize("sizes", [
    [(80, 20)] * 6,
    _mixed_sizes(5, 40),
    [(0, 5), (40, 10), (7, 0), (0, 0), (24, 6), (51, 13), (3, 0)],
    [(0, 4), (9, 0)],
], ids=["uniform", "mixed", "with-empty", "no-edges"])
def test_sample_graphs_is_the_union_of_single_samples(sizes):
    # edge for edge and chain for chain the union of one sample_graph per
    # trial stream, when each stream shuffles its own slice of one range:
    # that draws what sample_graph's rng.permutation draws, so each stream
    # is left where sample_graph leaves it, and an instance without info
    # nodes or parities draws nothing
    dist = DegreeDistribution(((2, 0.3), (3, 0.7)), ((10, 0.5), (12, 0.5)))
    num_info, num_parity = (list(x) for x in zip(*sizes))
    batch_rngs = [trial_rng(8, t) for t in range(len(sizes))]
    single_rngs = [trial_rng(8, t) for t in range(len(sizes))]
    bounds = np.cumsum([0] + [_permutation_size(k, q, dist) for k, q in sizes])
    perm = np.arange(bounds[-1])
    for rng, lo, hi in zip(batch_rngs, bounds, bounds[1:]):
        rng.shuffle(perm[lo:hi])
    batch = _sample_graphs(np.array(num_info), np.array(num_parity), dist, perm)
    singles = [sample_graph(k, q, dist, rng)
               for k, q, rng in zip(num_info, num_parity, single_rngs)]
    union = graph_union(singles)
    # both paths store int32 edges
    for g in (batch, *singles):
        assert g.edge_info.dtype == g.edge_check.dtype == np.int32
    assert (batch.num_info, batch.num_parity) == (sum(num_info), sum(num_parity))
    assert (batch.num_info, batch.num_parity) == (union.num_info, union.num_parity)
    assert np.array_equal(batch.edge_info, union.edge_info)
    assert np.array_equal(batch.edge_check, union.edge_check)
    assert np.array_equal(batch.chain_start, union.chain_start)
    assert [r.random() for r in batch_rngs] == [r.random() for r in single_rngs]


IRREGULAR = DegreeDistribution(((2, 0.3), (3, 0.7)), ((10, 0.5), (12, 0.5)))


@pytest.mark.parametrize("dist, num_info, num_parity", [
    (DegreeDistribution.regular(3, 12), 80, 20),
    # 138 info sockets against 6 * 10 + 7 * 12 = 144: the last check has 6
    (IRREGULAR, 51, 13),
    (DegreeDistribution.regular(3, 12), 80_000, 20_000),
], ids=["regular", "residual", "wide"])
def test_sample_graphs_of_one_instance_draws_one_permutation(dist, num_info, num_parity):
    # one instance: the socket array itself on the check side, and the info
    # side scattered through the one permutation rng.permutation draws
    rng = trial_rng(3, 0)
    g = sample_graph(num_info, num_parity, dist, rng)
    v_sockets = _var_sockets(num_info, dist)
    c_sockets = _check_sockets(num_info, num_parity, dist)
    assert g.edge_check is c_sockets
    if dist is IRREGULAR:
        assert np.bincount(c_sockets)[-1] == 6
    ref = trial_rng(3, 0)
    perm = ref.permutation(c_sockets.size)
    expect = np.empty_like(v_sockets)
    expect[perm] = v_sockets
    assert np.array_equal(g.edge_info, expect)
    assert rng.random() == ref.random()
    assert np.flatnonzero(g.chain_start).tolist() == [0]
    assert np.array_equal(
        _sample_graphs(np.array([num_info]), np.array([num_parity]), dist, perm).edge_info,
        expect)


@pytest.mark.parametrize("num_info, num_parity", [
    ([2**31 // 3 + 1], [2**29]),  # 3 * 715,827,883 = 2**31 + 1 sockets
    ([2**30, 2**30], [2**28, 2**28]),  # 3 * 2**31 sockets over two instances
    ([1], [2**31]),  # 2**31 parities
    ([2**31], [0]),  # 2**31 info nodes, no edges
], ids=["one-instance", "union", "parities", "info-nodes"])
def test_sample_graphs_refuse_what_int32_cannot_index(num_info, num_parity):
    # refused from the counts alone: nothing is allocated (a socket array of
    # 2**31 int32 entries is 8 GiB), and sample_graph draws no permutation
    dist = DegreeDistribution.regular(3, 12)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"does not fit int32 indices"):
            _sample_graphs(np.array(num_info), np.array(num_parity), dist,
                           np.zeros(0, dtype=np.intp))
        if len(num_info) == 1:
            with pytest.raises(ValueError, match=r"does not fit int32 indices"):
                sample_graph(num_info[0], num_parity[0], dist, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert rng.bit_generator.state == before


def test_sample_graph_balances_rounding_residual():
    rng = np.random.default_rng(1)
    # 51 * 3 = 153 sockets vs 13 * 12 = 156: one check absorbs the deficit
    g = sample_graph(51, 13, DegreeDistribution.regular(3, 12), rng)
    assert g.num_edges == 153
    degs = np.bincount(g.edge_check, minlength=13)
    assert degs.sum() == 153
    assert np.all(degs[:-1] == 12) and degs[-1] == 9
    # deficits larger than one node's degree walk backwards
    g = sample_graph(48, 13, DegreeDistribution.regular(3, 12), rng)
    assert np.bincount(g.edge_check, minlength=13).sum() == 144


def test_ira_encode_zero_input():
    rng = np.random.default_rng(4)
    g = sample_graph(24, 6, DegreeDistribution.regular(3, 12), rng)
    assert ira_encode(np.zeros(24, dtype=np.uint8), g).tolist() == [0] * 6


def test_ira_encode_single_check():
    g = _chain_graph([(0, 0)], num_info=1, num_parity=1)
    assert ira_encode([1], g).tolist() == [1]
    assert ira_encode([0], g).tolist() == [0]


def test_ira_encode_accumulates():
    # two checks, one info neighbour each: p1 = s1, p2 = p1 xor s2
    g = _chain_graph([(0, 0), (1, 1)], num_info=2, num_parity=2)
    assert ira_encode([1, 0], g).tolist() == [1, 1]
    assert ira_encode([1, 1], g).tolist() == [1, 0]
    assert ira_encode([0, 1], g).tolist() == [0, 1]


def test_ira_encode_collapses_multi_edges():
    g = _chain_graph([(0, 0), (0, 0)], num_info=1, num_parity=1)
    assert ira_encode([1], g).tolist() == [0]


@pytest.mark.parametrize("fields, message", [
    ((6, 2, [0, -1, 1], [0, 0, 1]), "edge 2 joins info node -1, outside [0, 6)"),
    ((6, 2, [0, 5, 6], [0, 0, 1]), "edge 3 joins info node 6, outside [0, 6)"),
    ((6, 2, [0, 1, 2], [0, 2, 1]), "edge 2 joins check node 2, outside [0, 2)"),
    ((6, 0, [0], [0]), "edge 1 joins check node 0, outside [0, 0)"),
    ((6, 2, [0, 1], [0, 0, 1]), "edge_info has 2 entries and edge_check 3: each needs one"),
    ((6, 2, [0, 1, 2], [0, 1]), "edge_info has 3 entries and edge_check 2: each needs one"),
    ((6, 2, [0, 1], [0, 1], np.ones(1, dtype=bool)),
     "chain_start must be one bool per parity, 2 in all, got shape (1,) of bool"),
    ((6, 2, [0, 1], [0, 1], np.array([1, 0], dtype=np.int64)),
     "chain_start must be one bool per parity, 2 in all, got shape (2,) of int64"),
    ((6, 2, np.array([0.0, 1.0]), [0, 1]),
     "edge_info must be a 1-D array of integers, got shape (2,) of float64"),
    ((6, 2, [0, 1], [[0, 1]]), "edge_check must be a 1-D array of integers, got shape (1, 2)"),
    ((6, -1, [], []), "num_parity must be >= 0, got -1"),
], ids=["negative-info", "info-past-end", "check-past-end", "no-checks", "fewer-info-ends",
        "fewer-check-ends", "short-chain-start", "int-chain-start", "float-ends",
        "two-dim-ends", "negative-count"])
def test_graph_refuses_fields_that_disagree(fields, message):
    # each malformed graph used to pass: ira_encode read the last info node
    # for a -1 endpoint, unequal endpoint lists decoded, and a short
    # chain_start failed deep in the decoder. Refused at construction, none
    # reaches ira_encode, validate_checks, embedded_encode,
    # build_factor_graph or the dmin scans.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        IraGraph(*fields)


def test_graph_keeps_its_endpoint_arrays():
    # arrays are kept as given (a sampled graph shares its cached check
    # side), lists become arrays, and a replaced field is checked again
    edge_info, edge_check = np.array([0, 1], dtype=np.int32), np.array([0, 1], dtype=np.int32)
    g = IraGraph(2, 2, edge_info, edge_check)
    assert g.edge_info is edge_info and g.edge_check is edge_check
    listed = IraGraph(2, 2, [0, 1], [0, 1])
    assert listed.num_edges == 2 and ira_encode([1, 1], listed).tolist() == [1, 0]
    with pytest.raises(ValueError, match=re.escape("edge 1 joins info node 2, outside [0, 2)")):
        dataclasses.replace(g, edge_info=np.array([2, 0]))


def test_validate_checks_and_linearity():
    rng = np.random.default_rng(8)
    g = sample_graph(50, 13, DegreeDistribution.regular(3, 12), rng)
    for _ in range(50):
        u = rng.integers(0, 2, 50, dtype=np.uint8)
        v = rng.integers(0, 2, 50, dtype=np.uint8)
        pu, pv = ira_encode(u, g), ira_encode(v, g)
        assert validate_checks(u, pu, g)
        assert np.array_equal(ira_encode(u ^ v, g), pu ^ pv)
    p = ira_encode(u, g).copy()
    p[3] ^= 1
    assert not validate_checks(u, p, g)


def test_ira_encode_union_restarts_each_chain():
    rng = np.random.default_rng(12)
    dist = DegreeDistribution.regular(3, 12)
    graphs = [sample_graph(40, 10, dist, rng), IraGraph(5, 0, np.zeros(0, np.int64),
                                                        np.zeros(0, np.int64)),
              sample_graph(24, 6, dist, rng), sample_graph(8, 2, dist, rng)]
    union = graph_union(graphs)
    assert np.flatnonzero(union.chain_start).tolist() == [0, 10, 16]
    bits = [rng.integers(0, 2, g.num_info, dtype=np.uint8) for g in graphs]
    parities = np.concatenate([ira_encode(b, g) for b, g in zip(bits, graphs)])
    assert np.array_equal(ira_encode(np.concatenate(bits), union), parities)
    assert validate_checks(np.concatenate(bits), parities, union)


@pytest.mark.parametrize("dtype", ["int32", "uint64"])
def test_gather_is_fancy_indexing_at_every_chunk_boundary(dtype):
    # the encoder's and decoder's edge gathers: one take up to a chunk, then
    # chunk by chunk, for bytes and for wire indices alike
    rng = np.random.default_rng(17)
    for values in (rng.integers(0, 2, 1000, dtype=np.uint8), rng.integers(0, 10**6, 1000)):
        for size in (0, 1, _GATHER_CHUNK, _GATHER_CHUNK + 1, 2 * _GATHER_CHUNK + 5):
            index = rng.integers(0, values.size, size).astype(dtype)
            got = _gather(values, index)
            assert got.dtype == values.dtype and np.array_equal(got, values[index]), size
    index = np.zeros(_GATHER_CHUNK + 1, dtype=dtype)
    index[-1] = values.size
    with pytest.raises(IndexError):
        _gather(values, index)


def test_gather_refuses_an_endpoint_broken_after_the_graph_was_built():
    # the constructor bounds every endpoint; one written out of range
    # afterwards, in the second gather chunk, raises rather than reading
    # another node's bit
    g = sample_graph(30_000, 7_500, DegreeDistribution.regular(3, 12), np.random.default_rng(4))
    assert g.num_edges > _GATHER_CHUNK
    bits = np.zeros(g.num_info, dtype=np.uint8)
    ira_encode(bits, g)
    g.edge_info[-1] = g.num_info
    with pytest.raises(IndexError):
        ira_encode(bits, g)


def test_graph_without_mask_has_one_chain():
    g = _chain_graph([(0, 0), (1, 2)], 2, 4)
    assert g.chain_start.tolist() == [True, False, False, False]
    assert _chain_graph([], 3, 0).chain_start.tolist() == []
    sampled = sample_graph(24, 6, DegreeDistribution.regular(3, 12), np.random.default_rng(3))
    assert np.flatnonzero(sampled.chain_start).tolist() == [0]


def test_union_mask_is_the_concatenation_of_its_parts():
    rng = np.random.default_rng(4)
    dist = DegreeDistribution.regular(3, 12)
    inner = graph_union([sample_graph(8, 2, dist, rng), sample_graph(16, 4, dist, rng)])
    parts = [sample_graph(12, 3, dist, rng), _chain_graph([], 5, 0), inner]
    union = graph_union(parts)
    assert union.chain_start.tolist() == np.concatenate([g.chain_start for g in parts]).tolist()
    assert np.flatnonzero(union.chain_start).tolist() == [0, 3, 5]


def test_validate_checks_accepts_other_codeword():
    # info node 0 feeds only check 0; flipping it and every parity yields
    # another codeword of this two-check code
    g = _chain_graph([(0, 0), (1, 1)], num_info=2, num_parity=2)
    base = np.array([0, 0], dtype=np.uint8)
    assert validate_checks(base, ira_encode(base, g), g)
    other_sys = np.array([1, 0], dtype=np.uint8)
    other_par = np.array([1, 1], dtype=np.uint8)
    assert validate_checks(other_sys, other_par, g)


def test_parity_ratio_by_construction():
    rng = np.random.default_rng(6)
    g = sample_graph(1200, 300, DegreeDistribution.regular(3, 12), rng)
    assert g.num_parity / g.num_info == pytest.approx(0.25)
