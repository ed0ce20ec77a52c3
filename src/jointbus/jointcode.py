"""Embedded joint coding: parities placed on free wires of the past state.

The encoder chain: pick parity wires among the free wires of the past bus
state (falling back to shield pairs carved out of long runs when free wires
run short), CAC-encode the payload onto the remaining wires, feed those bits
to the repeat-accumulate code, and drop the parities into the reserved
slots. Parity placement is a deterministic function of the past state, so a
receiver that tracks the bus can reproduce it without side information.

The payload codec itself lives once, in ``cac.py``: ``payload_size``,
``embedded_encode`` and ``decode_payload`` apply it to the segments of the
layout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buscore import BitsLike, BusState, as_bits, _check_int, _run_bounds
from .cac import cac_rate, _decode_segments, _encode_segments, _payload_bits
from .ira import IraGraph, ira_encode

__all__ = [
    "WireLayout",
    "EmbeddedCodeword",
    "RateComparison",
    "DminResult",
    "build_layout",
    "payload_size",
    "embedded_encode",
    "decode_payload",
    "rate_shielded",
    "rate_embedded",
    "wires_needed",
    "compare_rates",
    "dmin_witness",
    "dmin_bruteforce",
]


@dataclass(frozen=True, eq=False)
class WireLayout:
    """Wire placement for one code instance, in 0-based array positions.

    ``parity_slot_array`` (int64, ascending) lists every parity-carrying
    wire, which is also the accumulator chain order. ``pinned`` (ascending)
    lists the wires that repeat their own past bit to shield the parity to
    their right. ``segments`` is an int64 (k, 2) array with one (start,
    length) row per alternating stretch left for CAC-coded payload bits, in
    wire order; their union, in wire order, is ``info_wire_array``. Layouts
    compare equal by value.
    """

    n: int
    parity_slot_array: np.ndarray
    pinned: tuple[int, ...]
    segments: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WireLayout):
            return NotImplemented
        return (self.n == other.n and self.pinned == other.pinned
                and np.array_equal(self.parity_slot_array, other.parity_slot_array)
                and np.array_equal(self.segments, other.segments))

    @cached_property
    def info_wire_array(self) -> np.ndarray:
        starts, lengths = self.segments.T
        offsets = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)

    @property
    def num_info(self) -> int:
        return int(self.segments[:, 1].sum())

    @property
    def num_parity(self) -> int:
        return self.parity_slot_array.size


@dataclass(frozen=True)
class EmbeddedCodeword:
    """One encoded bus word together with the layout of its wire roles."""

    word: BusState
    layout: WireLayout


@dataclass(frozen=True)
class RateComparison:
    """Shielded vs embedded rate for one past state and ECC rate."""

    r_cac: float
    r_shielded: float
    r_embedded: float
    margin: float
    cac_rate_lower_bound: float


@dataclass(frozen=True)
class DminResult:
    """Exhaustive minimum distances of the joint code and the ECC alone."""

    d_embedded: int
    d_ecc: int


def _stride_select(free_counts: np.ndarray, p_needed: int) -> np.ndarray:
    """Per instance (row), the indices of its parity wires within its
    free-wire list, spread uniformly: round(i * count / p_needed).

    Needs count >= p_needed: consecutive targets then lie at least one
    apart, so they round to distinct indices below count.
    """
    return np.rint(np.arange(p_needed) * free_counts[:, None] / p_needed).astype(np.int64)


def _layout_from_runs(n: int, starts: np.ndarray, lengths: np.ndarray,
                      slot_runs: np.ndarray) -> WireLayout:
    """Layout whose parity slots are the chosen length-1 runs and whose
    segments are all other runs; nothing is pinned."""
    seg = ~slot_runs
    return WireLayout(n=n, parity_slot_array=starts[slot_runs], pinned=(),
                      segments=np.column_stack((starts[seg], lengths[seg])))


def _stride_layout(n: int, starts: np.ndarray, lengths: np.ndarray, offsets: np.ndarray,
                   p_needed: int) -> WireLayout:
    """Layout of bus words laid side by side (word i on wires
    offsets[i]:offsets[i+1], runs cut at the offsets), each of which has
    at least ``p_needed`` free wires: every word takes its parity slots
    from its own free-wire list by uniform stride."""
    free_runs = (lengths == 1).nonzero()[0]
    # Every offset starts a run: word i's free runs are free_runs[first[i]:first[i+1]].
    first = np.searchsorted(starts[free_runs], offsets)
    counts = np.diff(first)
    slot_runs = np.zeros(starts.size, dtype=bool)
    slot_runs[free_runs[(first[:-1, None] + _stride_select(counts, p_needed)).ravel()]] = True
    return _layout_from_runs(n, starts, lengths, slot_runs)


def build_layout(a: BitsLike, p_needed: int) -> WireLayout:
    """Deterministic parity/info/shield placement for ``p_needed`` parities.

    With enough free wires, parity wires are taken from the free-wire list
    by uniform stride. Otherwise every free wire carries a parity and each
    remaining parity claims a shield pair: the two rightmost wires of the
    longest remaining segment (the leftmost one on ties), the left one
    pinned to its past bit so that the parity on the right one can never
    oppose a neighbour.
    """
    arr = as_bits(a)
    _check_int("p_needed", p_needed, 0)
    starts, lengths = _run_bounds(arr)
    if p_needed <= np.count_nonzero(lengths == 1):
        return _stride_layout(arr.size, starts, lengths, np.array([0, arr.size]), p_needed)
    free = starts[lengths == 1].tolist()
    long_runs = lengths > 1
    # Shield order: the longest segment first, the leftmost on ties.
    heap = [(-d, s) for s, d in zip(starts[long_runs].tolist(), lengths[long_runs].tolist())]
    heapq.heapify(heap)
    pinned: list[int] = []
    shields: list[int] = []
    for _ in range(p_needed - len(free)):
        if not heap or heap[0][0] > -2:
            raise ValueError(
                f"cannot place {p_needed} parities: {len(free)} free wires and "
                f"shield capacity exhausted (at most {(arr.size - len(free)) // 2} pairs)"
            )
        neg_d, s = heapq.heappop(heap)
        d = -neg_d
        pinned.append(s + d - 2)
        shields.append(s + d - 1)
        if d - 2 >= 1:
            heapq.heappush(heap, (2 - d, s))
    return WireLayout(
        n=arr.size,
        parity_slot_array=np.array(sorted(free + shields), dtype=np.int64),
        pinned=tuple(sorted(pinned)),
        segments=np.array(sorted((s, -d) for d, s in heap), dtype=np.int64).reshape(-1, 2),
    )


def payload_size(a: BitsLike, p_needed: int) -> int:
    """Payload bits carried by one bus word under the given parity budget."""
    return _payload_bits(build_layout(a, p_needed).segments)


def embedded_encode(info_bits: BitsLike, a: BitsLike, graph: IraGraph) -> EmbeddedCodeword:
    """Encode a payload into a crosstalk-safe bus word with embedded parities.

    ``graph`` must be sized for the layout: num_parity parities and one info
    node per payload-carrying wire.
    """
    arr = as_bits(a)
    layout = build_layout(arr, graph.num_parity)
    _check_fit(graph, layout)
    word = _complete_word(_encode_segments(info_bits, arr, layout.segments), arr, layout, graph)
    return EmbeddedCodeword(word=BusState(word), layout=layout)


def _check_fit(graph: IraGraph, layout: WireLayout) -> None:
    """Refuse a graph without one info node per payload wire and one parity per slot."""
    if (graph.num_info, graph.num_parity) != (layout.num_info, layout.num_parity):
        raise ValueError(f"graph sized ({graph.num_info}, {graph.num_parity}) does not match "
                         f"the layout ({layout.num_info}, {layout.num_parity})")


def _complete_word(word: np.ndarray, a: np.ndarray, layout: WireLayout,
                   graph: IraGraph) -> np.ndarray:
    """Fill in the wires outside the segments of a word whose info wires are
    set: every such wire is a parity slot, which takes its parity of the info
    wires, or a pinned wire, which takes its bit of past state ``a``. Works
    in place."""
    word[layout.parity_slot_array] = ira_encode(word[layout.info_wire_array], graph)
    pins = list(layout.pinned)
    word[pins] = a[pins]
    return word


def decode_payload(word: BitsLike, a: BitsLike, p_needed: int) -> np.ndarray:
    """Recover the payload from a fully known bus word (no erasures).

    Raises if the payload-carrying wires violate a crosstalk constraint or
    if the recombined index falls outside the 2**K payload range.
    """
    arr = as_bits(a)
    return _decode_segments(as_bits(word), arr, build_layout(arr, p_needed).segments)


def _check_recc(r_ecc: float) -> None:
    if not 0.0 < r_ecc <= 1.0:
        raise ValueError(f"r_ecc must lie in (0, 1], got {r_ecc}")


def rate_shielded(r_cac: float, r_ecc: float) -> float:
    """Bus rate when every parity is duplicated onto a shield pair."""
    _check_recc(r_ecc)
    return r_cac / (2.0 / r_ecc - 1.0)


def rate_embedded(r_cac: float, r_ecc: float) -> float:
    """Bus rate when parities ride free wires: r_cac + r_ecc - 1.

    Assumes the past state offers enough free wires for all parities.
    """
    _check_recc(r_ecc)
    return r_cac + r_ecc - 1.0


def wires_needed(k_info: int, rate: float) -> int:
    """ceil(k_info / rate): bus width needed to move k_info payload bits."""
    _check_int("k_info", k_info, 0)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    return math.ceil(k_info / rate)


def compare_rates(a: BitsLike, r_ecc: float) -> RateComparison:
    """Shielded vs embedded rates for one past state.

    Requires a free-wire fraction of at least 1 - r_ecc, under which the
    CAC rate is certifiably at least 1 - r_ecc/2 and the embedded margin is
    non-negative.
    """
    _check_recc(r_ecc)
    arr = as_bits(a)
    _, lengths = _run_bounds(arr)
    free_fraction = int(np.count_nonzero(lengths == 1)) / arr.size
    if free_fraction < 1.0 - r_ecc:
        raise ValueError(
            f"free-wire fraction {free_fraction:.4f} is below the required {1.0 - r_ecc:.4f}"
        )
    r_cac = cac_rate(arr)
    r_s = rate_shielded(r_cac, r_ecc)
    r_e = rate_embedded(r_cac, r_ecc)
    return RateComparison(
        r_cac=r_cac,
        r_shielded=r_s,
        r_embedded=r_e,
        margin=r_e - r_s,
        cac_rate_lower_bound=1.0 - r_ecc / 2.0,
    )


def _companion(a_run: np.ndarray, c0_run: np.ndarray) -> np.ndarray:
    """The half c1 of the split c0 = c1 xor (c1 xor c0) on one alternating
    run ``a_run`` of the past, where every adjacent pair is constrained.

    With t = c0 xor a (neighbours outside the run read as 0), c1 is 0
    outside every stretch of two or more consecutive ones of t, 1 strictly
    inside one, and the past bit at its two ends. Neither transition word
    then has two adjacent ones, so both halves are valid:
    - c1 xor a is a outside the stretches, its complement strictly inside,
      and 0 at the stretch ends between them; a and its complement
      alternate.
    - c1 xor c0 xor a keeps only the lone ones of t and the complemented
      past bits at the stretch ends; two ends are adjacent only in a
      stretch of two, where the alternating past gives them opposite bits.
    """
    t = np.pad(c0_run ^ a_run, 1)
    left, mid, right = t[:-2], t[1:-1], t[2:]
    return mid & (left | right) & (a_run | (left & right))


def dmin_witness(c0_info: BitsLike, a: BitsLike, graph: IraGraph) -> tuple[BusState, BusState]:
    """Split a code difference word into two constraint-satisfying codewords.

    Given the systematic part of a nonzero ECC codeword c0, returns full bus
    words (c1, c2) that each satisfy every crosstalk constraint of ``a`` and
    every parity check, with c1 xor c2 = c0. Their Hamming distance is the
    weight of c0, so minimum distance pairs exist inside the joint code.
    c1 is ``_companion`` on each segment.
    """
    arr = as_bits(a)
    layout = build_layout(arr, graph.num_parity)
    if layout.pinned:
        raise ValueError("witness construction requires all parities on free wires")
    _check_fit(graph, layout)
    c0 = as_bits(c0_info)
    if c0.size != layout.num_info:
        raise ValueError(f"expected {layout.num_info} systematic bits, got {c0.size}")
    if not c0.any():
        raise ValueError("c0 must be a nonzero codeword")
    c0_word = np.zeros(arr.size, dtype=np.uint8)
    c0_word[layout.info_wire_array] = c0
    c1_word = np.zeros_like(c0_word)
    for s, d in layout.segments.tolist():
        c1_word[s : s + d] = _companion(arr[s : s + d], c0_word[s : s + d])
    c1, c2 = (BusState(_complete_word(w, arr, layout, graph))
              for w in (c1_word, c1_word ^ c0_word))
    return c1, c2


def _segment_words(past_run: np.ndarray) -> np.ndarray:
    """All valid continuations of one alternating run, packed as integers
    (first wire most significant), ascending: the words whose transitions
    against the past run never fall on two adjacent wires."""
    d = past_run.size
    words = np.arange(1 << d, dtype=np.int64)
    t = words ^ int((past_run.astype(np.int64) << np.arange(d - 1, -1, -1)).sum())
    return words[(t & (t >> 1)) == 0]


def _xor_closure(values: np.ndarray, width: int) -> np.ndarray:
    """All pairwise XOR differences of ``values`` (width-bit ints)."""
    seen = np.zeros(1 << width, dtype=bool)
    chunk = max(1, (1 << 22) // max(values.size, 1))
    for i in range(0, values.size, chunk):
        seen[(values[i : i + chunk, None] ^ values[None, :]).ravel()] = True
    return np.flatnonzero(seen).astype(np.int64)


def _word_weights(packed: np.ndarray, width: int, graph: IraGraph) -> np.ndarray:
    """Weight of the full codeword (systematic + accumulated parities) for
    each packed systematic word."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    adj = np.zeros((width, graph.num_parity), dtype=np.int64)
    if graph.num_edges:
        np.add.at(adj, (graph.edge_info, graph.edge_check), 1)
    adj &= 1
    weights = np.empty(packed.size, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(width, 1))
    for i in range(0, packed.size, chunk):
        bits = (packed[i : i + chunk, None] >> shifts[None, :]) & 1
        s = bits @ adj & 1
        par = np.cumsum(s, axis=1) & 1
        weights[i : i + chunk] = bits.sum(axis=1) + par.sum(axis=1)
    return weights


def dmin_bruteforce(a: BitsLike, graph: IraGraph) -> DminResult:
    """Exhaustive minimum distances of the joint code and the ECC alone.

    The joint code is every constraint-satisfying systematic word completed
    with its parities; distances reduce to weights of XOR differences,
    which factor across runs. Feasible up to 20 systematic bits.
    """
    arr = as_bits(a)
    layout = build_layout(arr, graph.num_parity)
    if layout.pinned:
        raise ValueError("distance scan requires all parities on free wires")
    _check_fit(graph, layout)
    width = layout.num_info
    if width > 20:
        raise ValueError(f"exhaustive scan limited to 20 systematic bits, got {width}")
    if width == 0:
        raise ValueError("no systematic bits to scan")
    diffs = np.zeros(1, dtype=np.int64)
    for s, d in layout.segments:
        seg = _xor_closure(_segment_words(arr[s : s + d]), d)
        diffs = ((diffs[:, None] << d) | seg[None, :]).ravel()
    diffs = diffs[diffs != 0]
    d_emb = int(_word_weights(diffs, width, graph).min())
    everything = np.arange(1, 1 << width, dtype=np.int64)
    d_ecc = int(_word_weights(everything, width, graph).min())
    return DminResult(d_embedded=d_emb, d_ecc=d_ecc)
