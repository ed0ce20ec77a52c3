"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and literal: per-node message rules,
per-edge message dicts, explicit schedules, and worklist peeling. The production decoder must agree
with these on small instances.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from jointbus.bpdecode import (
    ERASED,
    DecodeResult,
    ErasureWord,
    FactorGraph,
    SymbolsLike,
    _first_violation,
)
from jointbus.buscore import _run_bounds, as_bits
from jointbus.cac import UNSET, RunCodebook, _decode_segments
from jointbus.ira import IraGraph
from jointbus.jointcode import WireLayout, _complete_word, build_layout


def cac_node_update(
    past_pair: tuple[int, int], incoming: int, from_side: str
) -> int:
    """Message through one pairwise crosstalk check.

    For past pair (0, 1) the forbidden next pair is (1, 0): a known 1
    entering from the left forces the right wire to 1, and a known 0
    entering from the right forces the left wire to 0; the mirrored rule
    applies for past pair (1, 0). Every other input yields an erasure.
    """
    ap, an = int(past_pair[0]), int(past_pair[1])
    if ap == an:
        raise ValueError("a crosstalk check exists only where the past bits differ")
    if from_side not in ("left", "right"):
        raise ValueError(f"from_side must be 'left' or 'right', got {from_side!r}")
    if incoming == ERASED:
        return ERASED
    forb_left, forb_right = 1 - ap, 1 - an
    if from_side == "left":
        return (1 - forb_right) if incoming == forb_left else ERASED
    return (1 - forb_left) if incoming == forb_right else ERASED


def variable_node_update(channel: int, incoming: Iterable[int]) -> tuple[list[int], int]:
    """Extrinsic per-edge outputs and the final decision of one variable.

    Each outgoing edge repeats any known value among the channel and the
    other edges; the decision may also use the edge's own input. Two
    distinct known inputs cannot happen on an erasure channel and raise.
    """
    inc = [int(v) for v in incoming]
    vals = [int(channel), *inc]
    known = {v for v in vals if v != ERASED}
    if len(known) > 1:
        raise ValueError("contradictory known inputs at a variable node")
    out = []
    for k in range(len(inc)):
        others = {v for i, v in enumerate(vals) if v != ERASED and i != k + 1}
        out.append(others.pop() if others else ERASED)
    return out, (known.pop() if known else ERASED)


def ecc_node_update(incoming: Iterable[int]) -> list[int]:
    """Per-edge outputs of one XOR check: known iff all other inputs are."""
    inc = [int(v) for v in incoming]
    unknown = [i for i, v in enumerate(inc) if v == ERASED]
    if len(unknown) >= 2:
        return [ERASED] * len(inc)
    total = 0
    for v in inc:
        if v != ERASED:
            total ^= v
    if len(unknown) == 1:
        out = [ERASED] * len(inc)
        out[unknown[0]] = total
        return out
    return [total ^ v for v in inc]


def valid_words(a) -> list[np.ndarray]:
    """All next states with no opposing transition, by exhaustive filter."""
    arr = as_bits(a)
    n = arr.size
    out = []
    for w in range(1 << n):
        bits = np.array([(w >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
        t = bits ^ arr
        if not np.any((arr[:-1] != arr[1:]) & (t[:-1] == 1) & (t[1:] == 1)):
            out.append(bits)
    return out


def mixed_radix_digits(index: int, radices: list[int]) -> list[int]:
    """Digits of ``index`` by literal sequential divmod, first radix most
    significant."""
    digits = []
    for r in reversed(radices):
        index, digit = divmod(index, r)
        digits.append(digit)
    assert index == 0, "index is not below the product of the radices"
    return digits[::-1]


def mixed_radix_index(digits: list[int], radices: list[int]) -> int:
    """Inverse of ``mixed_radix_digits`` by literal Horner recombination."""
    index = 0
    for digit, r in zip(digits, radices, strict=True):
        assert 0 <= digit < r
        index = index * r + digit
    return index


def last_continuations(a: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """The word that puts every (start, length) segment of past state ``a``
    on its last continuation, ``UNSET`` elsewhere: the largest index of the
    segments' payload codec, outside the payload range unless every count
    F(d + 2) is a power of two."""
    word = np.full(a.size, UNSET, dtype=np.uint8)
    for s, d in segments.tolist():
        book = RunCodebook(a[s : s + d])
        word[s : s + d] = book.unrank(book.codeword_count - 1)
    return word


def out_of_range_word(a: np.ndarray, layout: WireLayout, graph: IraGraph) -> np.ndarray:
    """``last_continuations`` over the payload segments of ``layout``,
    completed with its parities and pinned wires: a word that keeps every
    crosstalk, pin and parity check and still indexes past the payload
    range."""
    return _complete_word(last_continuations(a, layout.segments), a, layout, graph)


def stride_select(free_count: int, p_needed: int) -> list[int]:
    """Literal uniform-stride choice of parity wires within a free-wire list."""
    chosen: set[int] = set()
    for i in range(p_needed):
        j = round(i * free_count / p_needed)
        while j in chosen:
            j += 1
        if j >= free_count:
            j = min(set(range(free_count)) - chosen)
        chosen.add(j)
    return sorted(chosen)


def shield_layout(a, p_needed: int) -> WireLayout:
    """Literal shield placement for a past state with fewer free wires than
    ``p_needed``: every free wire carries a parity, and each missing parity
    re-sorts the segments and scans them for the longest (the leftmost on
    ties), whose two rightmost wires become its pinned wire and parity
    slot."""
    arr = as_bits(a)
    starts, lengths = _run_bounds(arr)
    runs = list(zip(starts.tolist(), lengths.tolist()))
    free = [s for s, d in runs if d == 1]
    assert p_needed > len(free), "the stride branch needs no shields"
    pinned: list[int] = []
    slots = list(free)
    segments = [(s, d) for s, d in runs if d > 1]
    for _ in range(p_needed - len(free)):
        segments.sort()
        best = max(range(len(segments)), key=lambda i: (segments[i][1], -i), default=-1)
        if best < 0 or segments[best][1] < 2:
            raise ValueError(
                f"cannot place {p_needed} parities: {len(free)} free wires and "
                f"shield capacity exhausted (at most {(arr.size - len(free)) // 2} pairs)"
            )
        s, d = segments.pop(best)
        pinned.append(s + d - 2)
        slots.append(s + d - 1)
        if d - 2 >= 1:
            segments.append((s, d - 2))
    return WireLayout(
        n=arr.size,
        parity_slot_array=np.array(sorted(slots), dtype=np.int64),
        pinned=tuple(sorted(pinned)),
        segments=np.array(sorted(segments), dtype=np.int64).reshape(-1, 2),
    )


def sequential_valid_word(a, starts, lengths, rng) -> np.ndarray:
    """Uniform valid continuation sampled wire by wire: pass j draws one
    uniform for position j of every run longer than j, in run order."""
    from jointbus.buscore import fib

    n = a.size
    t = np.zeros(n, dtype=np.uint8)
    forced = np.zeros(starts.size, dtype=bool)
    for j in range(int(lengths.max())):
        act = np.flatnonzero(lengths > j)
        u = rng.random(act.size)
        for r, x in zip(act, u):
            rem = int(lengths[r]) - j
            one = x < fib(rem) / fib(rem + 2) and not forced[r]
            t[starts[r] + j] = one
            forced[r] = one
    return (a ^ t).astype(np.uint8)


def trial_instance(seed, trial, dist, ensemble, mode):
    """One trial of ``simkit.build_instances``, built alone from its own
    stream ``trial_rng(seed, trial)``: its past state, its graph, its word
    and its channel uniforms, drawn in that order, each by the slow path.
    Returns (a, layout, graph, word, u), or None for a uniform-ensemble
    past state with fewer free wires than the code has parities."""
    from jointbus.ira import ira_encode, rate_ldpc, recc_from_rldpc, sample_graph
    from jointbus.simkit import _draw_modified, gen_past_uniform, trial_rng

    rng = trial_rng(seed, trial)
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    if ensemble.kind == "uniform":
        a = gen_past_uniform(ensemble.n, rng).bits
        p = round(ensemble.n * (1.0 - r_ecc))
        if np.count_nonzero(_run_bounds(a)[1] == 1) < p:
            return None
        layout = build_layout(a, p)
    else:
        a, parity_runs = _draw_modified(ensemble.n, r_ecc, rng)
        starts, lengths = _run_bounds(a)
        layout = WireLayout(n=a.size, parity_slot_array=starts[parity_runs], pinned=(),
                            segments=np.column_stack((starts[~parity_runs],
                                                      lengths[~parity_runs])))
    graph = sample_graph(layout.num_info, layout.num_parity, dist, rng)
    if mode == "uniform-codeword":
        word = sequential_valid_word(a, *_run_bounds(a), rng)
    else:
        books = [RunCodebook(a[s : s + d]) for s, d in layout.segments.tolist()]
        radices = [book.codeword_count for book in books]
        k = math.prod(radices).bit_length() - 1
        payload = rng.integers(0, 2, k, dtype=np.uint8)
        index = int("".join(map(str, payload.tolist())) or "0", 2)
        word = a.copy()
        for (s, d), book, digit in zip(layout.segments.tolist(), books,
                                       mixed_radix_digits(index, radices)):
            word[s : s + d] = book.unrank(digit)
    word[layout.parity_slot_array] = ira_encode(word[layout.info_wire_array], graph)
    return a, layout, graph, word, rng.random(a.size)


def wire_maps(fg: FactorGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the decoder reads off ``fg.layout`` and ``fg.graph``, built
    literally: the pinned wires, ``adj_prev`` (wire i shares a segment with
    wire i-1, so a crosstalk check joins them) and the wire of each sparse
    edge."""
    layout = fg.layout
    adj_prev = np.zeros(fg.n, dtype=bool)
    for start, length in layout.segments.tolist():
        adj_prev[start + 1:start + length] = True
    edge_wire = layout.info_wire_array[fg.graph.edge_info]
    return np.array(layout.pinned, dtype=np.int64), adj_prev, edge_wire


def stopping_set_violation(fg: FactorGraph, out) -> Optional[str]:
    """The first code check, then wire, that could still resolve in the
    decoded symbols ``out``; None when the erased wires form a stopping set
    of the joint graph, the only place where peeling stops.

    A code check could resolve with exactly one erased participant: its
    sparse edges, counted with multiplicity, its own parity j, and parity
    j-1 unless j starts a chain. An erased wire could resolve with a known
    in-segment neighbour whose value differs from its past bit. Checks and
    wires are named 1-based.
    """
    erased = np.asarray(out) == ERASED
    g = fg.graph
    _, adj_prev, edge_wire = wire_maps(fg)
    par = erased[fg.layout.parity_slot_array]
    count = np.bincount(g.edge_check[erased[edge_wire]], minlength=g.num_parity) + par
    count[1:] += par[:-1] & ~g.chain_start[1:]
    bad = np.flatnonzero(count == 1)
    if bad.size:
        return f"parity check {int(bad[0]) + 1} has one erased participant"
    moved = ~erased & (np.asarray(out) != fg.a_bits)
    # wire i+1 follows wire i in its segment: either may force the other
    pair = adj_prev[1:] & ((erased[1:] & moved[:-1]) | (erased[:-1] & moved[1:]))
    bad = np.flatnonzero(pair)
    if bad.size:
        i = int(bad[0])
        return f"wires {i + 1} and {i + 2}: one is erased, the other known and transitioning"
    return None


def graph_union(graphs) -> IraGraph:
    """Disjoint union of code graphs: the nodes of each are numbered after
    those of the graphs before it, and each keeps its own parity chains and
    its edge order, so graphs in check order give a union in check order.
    The reference that ``ira._sample_graphs`` is checked against."""
    info_off = np.cumsum([0] + [g.num_info for g in graphs])
    par_off = np.cumsum([0] + [g.num_parity for g in graphs])
    return IraGraph(
        num_info=int(info_off[-1]),
        num_parity=int(par_off[-1]),
        edge_info=np.concatenate([g.edge_info + o for g, o in zip(graphs, info_off)]),
        edge_check=np.concatenate([g.edge_check + o for g, o in zip(graphs, par_off)]),
        chain_start=np.concatenate([g.chain_start for g in graphs]),
    )


def disjoint_union(instances):
    """(a, layout, graph) triples laid side by side: the wires, info nodes
    and checks of each follow those of the ones before it."""
    slots, pinned, segments = [], [], []
    off = 0
    for _, layout, _ in instances:
        slots.append(layout.parity_slot_array + off)
        pinned += [w + off for w in layout.pinned]
        segments.append(layout.segments + (off, 0))
        off += layout.n
    layout = WireLayout(n=off, parity_slot_array=np.concatenate(slots), pinned=tuple(pinned),
                        segments=np.concatenate(segments))
    a = np.concatenate([as_bits(x) for x, _, _ in instances])
    return a, layout, graph_union([g for _, _, g in instances])


def random_instance(rng, n_max=64, dist=None, allow_shields=False):
    """Random (a, layout, graph) triple for decoder cross-testing."""
    from jointbus.ira import DegreeDistribution, sample_graph

    dist = dist or DegreeDistribution.regular(3, 12)
    while True:
        n = int(rng.integers(8, n_max + 1))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        p = max(1, round(n * 0.2))
        try:
            layout = build_layout(a, p)
        except ValueError:
            continue
        if layout.pinned and not allow_shields:
            continue
        graph = sample_graph(layout.num_info, layout.num_parity, dist, rng)
        return a, layout, graph


def encode_instance(rng, a, layout, graph):
    """Uniform random codeword for an instance (valid word + parities)."""
    from jointbus.cac import RunCodebook
    from jointbus.ira import ira_encode

    arr = as_bits(a)
    word = arr.copy()
    for s, d in layout.segments:
        book = RunCodebook(arr[s : s + d])
        word[s : s + d] = book.unrank(int(rng.integers(0, book.codeword_count)))
    word[layout.parity_slot_array] = ira_encode(word[layout.info_wire_array], graph)
    for pin in layout.pinned:
        word[pin] = arr[pin]
    return word


class ReferenceDecoder:
    """Literal message-passing decoder over dict-held per-edge messages."""

    def __init__(self, a, graph: IraGraph, layout: WireLayout):
        arr = as_bits(a)
        self.a = arr
        self.n = arr.size
        self.graph = graph
        self.layout = layout
        self.info_wires = layout.info_wire_array.tolist()
        self.parity_slots = layout.parity_slot_array.tolist()
        self.pinned = {w: int(arr[w]) for w in layout.pinned}
        # pairwise crosstalk checks inside segments: (left wire, right wire)
        self.cac_checks = []
        for s, d in layout.segments:
            for w in range(s, s + d - 1):
                self.cac_checks.append((w, w + 1))
        self.cac_of_wire = {w: [] for w in range(self.n)}
        for c, (u, v) in enumerate(self.cac_checks):
            self.cac_of_wire[u].append((c, "left"))
            self.cac_of_wire[v].append((c, "right"))
        self.edges_of_wire = {w: [] for w in range(self.n)}
        self.edges_of_check = {j: [] for j in range(graph.num_parity)}
        for e in range(graph.num_edges):
            w = self.info_wires[graph.edge_info[e]]
            j = int(graph.edge_check[e])
            self.edges_of_wire[w].append(e)
            self.edges_of_check[j].append(e)

    def decode(self, received, max_outer=200):
        g = self.graph
        num_p = g.num_parity
        channel = {w: int(s) for w, s in enumerate(np.asarray(received, dtype=np.uint8))}
        for w, v in self.pinned.items():
            channel[w] = v

        v2c_cac = {(c, side): ERASED for c, pair in enumerate(self.cac_checks) for side in ("left", "right")}
        c2v_cac = dict(v2c_cac)
        v2c_ecc = {e: ERASED for e in range(g.num_edges)}
        c2v_ecc = dict(v2c_ecc)
        p2c_pair = {j: ERASED for j in range(num_p)}
        c2p_pair = dict(p2c_pair)
        p2c_chain = dict(p2c_pair)   # parity j -> check j+1
        c2p_chain = dict(p2c_pair)   # check j+1 -> parity j

        def wire_inputs(w, skip=None):
            vals = [channel[w]]
            for c, side in self.cac_of_wire.get(w, ()):
                if skip != ("cac", c, side):
                    vals.append(c2v_cac[(c, side)])
            for e in self.edges_of_wire.get(w, ()):
                if skip != ("ecc", e):
                    vals.append(c2v_ecc[e])
            return vals

        def known(vals):
            seen = {v for v in vals if v != ERASED}
            if len(seen) > 1:
                raise AssertionError("contradictory messages on an erasure channel")
            return seen.pop() if seen else ERASED

        iterations = 0
        for it in range(1, max_outer + 1):
            iterations = it
            before = (dict(c2v_cac), dict(c2v_ecc), dict(p2c_pair), dict(p2c_chain))
            # steps 1-2 (repeated until the run messages settle)
            while True:
                for c, (u, v) in enumerate(self.cac_checks):
                    v2c_cac[(c, "left")] = known(wire_inputs(u, skip=("cac", c, "left")))
                    v2c_cac[(c, "right")] = known(wire_inputs(v, skip=("cac", c, "right")))
                changed = False
                for c, (u, v) in enumerate(self.cac_checks):
                    pair = (int(self.a[u]), int(self.a[v]))
                    out_r = cac_node_update(pair, v2c_cac[(c, "left")], "left")
                    out_l = cac_node_update(pair, v2c_cac[(c, "right")], "right")
                    if c2v_cac[(c, "right")] != out_r or c2v_cac[(c, "left")] != out_l:
                        changed = True
                    c2v_cac[(c, "right")] = out_r
                    c2v_cac[(c, "left")] = out_l
                if not changed:
                    break
            # step 3
            for e in range(g.num_edges):
                w = self.info_wires[g.edge_info[e]]
                v2c_ecc[e] = known(wire_inputs(w, skip=("ecc", e)))
            # step 4: chain to convergence
            while True:
                snapshot = (dict(p2c_pair), dict(p2c_chain), dict(c2p_pair), dict(c2p_chain))
                for j in range(num_p):
                    inputs = [v2c_ecc[e] for e in self.edges_of_check[j]]
                    inputs.append(p2c_pair[j])
                    if j >= 1:
                        inputs.append(p2c_chain[j - 1])
                    outs = ecc_node_update(inputs)
                    c2p_pair[j] = outs[len(self.edges_of_check[j])]
                    if j >= 1:
                        c2p_chain[j - 1] = outs[len(self.edges_of_check[j]) + 1]
                for j in range(num_p):
                    ch = channel[self.parity_slots[j]]
                    right = c2p_chain[j] if j < num_p - 1 else ERASED
                    p2c_pair[j] = known([ch, right])
                    p2c_chain[j] = known([ch, c2p_pair[j]]) if j < num_p - 1 else ERASED
                if (dict(p2c_pair), dict(p2c_chain), dict(c2p_pair), dict(c2p_chain)) == snapshot:
                    break
            # step 5
            for j in range(num_p):
                edges = self.edges_of_check[j]
                inputs = [v2c_ecc[e] for e in edges]
                inputs.append(p2c_pair[j])
                if j >= 1:
                    inputs.append(p2c_chain[j - 1])
                outs = ecc_node_update(inputs)
                for k, e in enumerate(edges):
                    c2v_ecc[e] = outs[k]
            if (dict(c2v_cac), dict(c2v_ecc), dict(p2c_pair), dict(p2c_chain)) == before:
                break

        out = np.empty(self.n, dtype=np.uint8)
        for w in range(self.n):
            if w in self.pinned:
                out[w] = self.pinned[w]
                continue
            vals = [channel[w]]
            for c, side in self.cac_of_wire.get(w, ()):
                vals.append(c2v_cac[(c, side)])
            for e in self.edges_of_wire.get(w, ()):
                vals.append(c2v_ecc[e])
            if w in self.parity_slots:
                j = self.parity_slots.index(w)
                vals.append(c2p_pair[j])
                if j < num_p - 1:
                    vals.append(c2p_chain[j])
            out[w] = known(vals)
        return out, iterations


def peel_decode(a, graph: IraGraph, layout: WireLayout, received) -> np.ndarray:
    """Worklist peeling: apply any single-unknown rule until stalled.

    Rules: a known transitioning wire pins its in-run neighbours; a parity
    check with exactly one unknown participant instance solves it.
    """
    arr = as_bits(a)
    n = arr.size
    sym = np.asarray(received, dtype=np.uint8).copy()
    for pin in layout.pinned:
        sym[pin] = arr[pin]
    pairs = []
    for s, d in layout.segments:
        pairs.extend((w, w + 1) for w in range(s, s + d - 1))
    info_wires = layout.info_wire_array.tolist()
    slots = layout.parity_slot_array.tolist()
    # participants of check j as wire instances (parities via sentinel ids)
    participants = {j: [] for j in range(graph.num_parity)}
    for e in range(graph.num_edges):
        participants[int(graph.edge_check[e])].append(info_wires[graph.edge_info[e]])
    for j in range(graph.num_parity):
        participants[j].append(slots[j])
        if j >= 1:
            participants[j].append(slots[j - 1])
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if sym[u] != ERASED and sym[u] != arr[u] and sym[v] == ERASED:
                sym[v] = arr[v]
                changed = True
            if sym[v] != ERASED and sym[v] != arr[v] and sym[u] == ERASED:
                sym[u] = arr[u]
                changed = True
        for j in range(graph.num_parity):
            inst = participants[j]
            unknown = [w for w in inst if sym[w] == ERASED]
            if len(unknown) == 1:
                acc = 0
                for w in inst:
                    if sym[w] != ERASED:
                        acc ^= int(sym[w])
                sym[unknown[0]] = acc
                changed = True
    return sym


def sweep_decode(
    received: SymbolsLike,
    fg: FactorGraph,
    max_outer: Optional[int] = None,
    saturate_runs: bool = True,
    record_trace: bool = False,
    extract_payload: bool = True,
) -> DecodeResult:
    """The full-sweep decode loop: every outer iteration recomputes every
    per-edge message over the whole graph, and ``saturate_runs`` repeats the
    crosstalk pass until it forces nothing new. Reference for ``bp_decode``,
    which must return an equal ``DecodeResult``.

    Stops at the first outer iteration that adds no knowledge, or after
    ``max_outer`` iterations when given (the cut decodes of
    ``bpdecode._propagate``): its signature (wires resolved,
    check-to-variable messages known, wires whose intrinsic message is
    known) is that of the iteration before, or of the received word for the
    first. When every wire resolves and ``extract_payload`` is
    set, the word is first checked against the received pinned wires, the
    crosstalk constraints and the parity checks; an inconsistent word yields
    ``info_bits=None`` and names what it breaks in ``violation``. Otherwise the payload is re-extracted
    from the code-carrying wires; a word whose index falls outside the
    payload range yields ``info_bits=None`` and the codec's out-of-range
    message in ``violation``. ``record_trace`` captures the
    erased fraction of the variable-to-check messages of step 3 per
    iteration.
    """
    rcv = received if isinstance(received, ErasureWord) else ErasureWord(received)
    n = fg.n
    if len(rcv) != n:
        raise ValueError(f"received word has {len(rcv)} symbols, bus has {n} wires")
    a = fg.a_bits
    symbols = rcv.symbols

    pins, adj_prev, edge_wire = wire_maps(fg)
    resolved = symbols != ERASED
    val = np.where(resolved, symbols, 0).astype(np.uint8)
    if pins.size:
        # The receiver knows pinned wires repeat their past bit.
        val[pins] = a[pins]
        resolved[pins] = True
    # A wire's intrinsic message is known from the channel, a pin or a
    # crosstalk check.
    intrinsic = resolved.copy()

    num_e = edge_wire.size
    num_p = fg.layout.num_parity
    num_i = fg.layout.num_info
    slots = fg.layout.parity_slot_array
    e_info = fg.graph.edge_info
    e_chk = fg.graph.edge_check
    known_ci = np.zeros(num_e, dtype=bool)
    cnt_ci = np.zeros(num_i, dtype=np.int64)
    src_ecc_wire = np.zeros(n, dtype=bool)

    ch_p = resolved[slots]
    val_p_ch = val[slots]
    idx_p = np.arange(num_p, dtype=np.int64)
    cs = fg.graph.chain_start
    # Knowledge sources along the chains, fixed for the whole decode: the
    # last channel-known parity at or before j, the first one after j, and
    # the start of j's chain, whose implicit zero parity sits just before it.
    lch = np.maximum.accumulate(np.where(ch_p, idx_p, -1))
    lcs = np.maximum.accumulate(np.where(cs, idx_p, 0))
    lsp = np.maximum(lch, lcs - 1)
    src_idx = np.concatenate(([-1], lch[:-1]))
    lsp_r = np.maximum.accumulate(np.where(ch_p[::-1], idx_p, -1))
    nxt_seed = np.concatenate((lsp_r[::-1][1:], [-1]))
    r_star = np.where(nxt_seed >= 0, num_p - 1 - nxt_seed, 0)

    trace: list[float] = []
    iterations = 0
    prev_sig = (int(resolved.sum()), 0, int(intrinsic.sum()))

    # Every iteration before the last adds knowledge, so a fixed point comes
    # within 2N + E + 1 iterations.
    for it in range(1, (2 * n + num_e + 1 if max_outer is None else max_outer) + 1):
        iterations = it

        # Steps 1-2: a known transitioning wire pins both in-run neighbours
        # to their past bits; pinned values never transition, so repeating
        # the pass cannot force anything new.
        passes = 0
        while True:
            passes += 1
            m = (intrinsic | src_ecc_wire) & (val != a) & resolved
            force = np.zeros(n, dtype=bool)
            force[1:] = m[:-1] & adj_prev[1:]
            force[:-1] |= m[1:] & adj_prev[1:]
            grew = bool(np.any(force & ~intrinsic))
            intrinsic |= force
            newly = force & ~resolved
            val[newly] = a[newly]
            resolved |= force
            if not (saturate_runs and grew and passes < n):
                break

        # Step 3: extrinsic variable-to-check messages.
        if num_e:
            ext = intrinsic[edge_wire] | ((cnt_ci[e_info] - known_ci) > 0)
        else:
            ext = np.zeros(0, dtype=bool)
        if record_trace:
            trace.append(float(1.0 - ext.mean()) if num_e else 0.0)

        # Step 4: chain fixed point. ok marks checks whose sparse inputs are
        # all known; knowledge spreads along each chain from known parities
        # (and the implicit zero before its first parity) until a break.
        unk = np.bincount(e_chk[~ext], minlength=num_p) if num_e else np.zeros(num_p, np.int64)
        ok = unk == 0
        s = np.zeros(num_p, dtype=np.int64)
        if num_e:
            ones = ext & (val[edge_wire] == 1)
            s = np.bincount(e_chk[ones], minlength=num_p) & 1
        if num_p:
            okl = ok & ~cs  # check j is satisfied and links parity j-1 to j
            lbp = np.maximum.accumulate(np.where(~ok, idx_p, -1))
            kf = lsp >= lbp  # parity j -> check j+1 known
            pass_r = np.concatenate(([False], okl[::-1][:-1]))
            lbp_r = np.maximum.accumulate(np.where(~pass_r, idx_p, -1))
            kb = (lsp_r >= lbp_r)[::-1]  # parity j -> check j known
            kf_prev = np.concatenate(([True], kf[:-1])) | cs
            res_fwd = ok & kf_prev
            res_bwd = np.concatenate((okl[1:] & kb[1:], [False]))
            parity_known = ch_p | res_fwd | res_bwd

            cum = np.bitwise_xor.accumulate(s)
            from_zero = lcs > src_idx
            base_fwd = np.where(from_zero, np.concatenate(([0], cum))[lcs],
                                val_p_ch[src_idx] ^ cum[src_idx])
            v_fwd = (base_fwd ^ cum).astype(np.uint8)
            v_bwd = (val_p_ch[r_star] ^ cum[r_star] ^ cum).astype(np.uint8)
            val_p = np.where(ch_p, val_p_ch, np.where(res_fwd, v_fwd, v_bwd)).astype(np.uint8)

            newly_p = parity_known & ~resolved[slots]
            if newly_p.any():
                wires = slots[newly_p]
                val[wires] = val_p[newly_p]
                resolved[wires] = True
        else:
            kf_prev = np.zeros(0, dtype=bool)
            kb = np.zeros(0, dtype=bool)
            val_p = np.zeros(0, dtype=np.uint8)
            parity_known = np.zeros(0, dtype=bool)

        # Step 5: check-to-variable messages and value fill-in.
        if num_e:
            chain_ok = kf_prev & kb
            other_ok = (unk[e_chk] == 0) | ((unk[e_chk] == 1) & ~ext)
            known_ci = other_ok & chain_ok[e_chk]
            newly_edges = known_ci & ~resolved[edge_wire]
            if newly_edges.any():
                ej = e_chk[newly_edges]
                valp_prev = np.where(cs, 0, np.concatenate(([0], val_p[:-1]))).astype(np.uint8)
                fill = (s[ej] ^ valp_prev[ej] ^ val_p[ej]).astype(np.uint8)
                wires = edge_wire[newly_edges]
                val[wires] = fill
                resolved[wires] = True
            cnt_ci = np.bincount(e_info[known_ci], minlength=num_i)
            src_ecc_wire[fg.layout.info_wire_array] = cnt_ci > 0

        if resolved.all():
            break
        sig = (int(resolved.sum()), int(known_ci.sum()), int(intrinsic.sum()))
        if sig == prev_sig:
            break
        prev_sig = sig

    residual = int(np.count_nonzero(~resolved))
    out = np.where(resolved, val, ERASED).astype(np.uint8)
    info_bits = None
    violation = None
    if residual == 0 and extract_payload:
        # A resolved word that breaks a constraint or indexes past the
        # payload range carries no payload; the word itself is still
        # returned for inspection.
        violation = _first_violation(symbols, val, fg)
        if violation is None:
            try:
                info_bits = tuple(_decode_segments(val, a, fg.layout.segments).tolist())
            except ValueError as exc:
                violation = str(exc)
    return DecodeResult(
        word=ErasureWord(out),
        info_bits=info_bits,
        iterations=iterations,
        residual_erasures=residual,
        x_ecc_trace=tuple(trace) if record_trace else None,
        violation=violation,
    )
