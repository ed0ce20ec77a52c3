"""Joint iterative erasure decoding over the combined constraint graph.

The decoder passes {0, 1, ?} messages over a factor graph holding pairwise
crosstalk checks inside each alternating run, the sparse code checks, and
the parity accumulator chain. One outer iteration follows the schedule:

  1. information variables -> crosstalk checks
  2. crosstalk checks -> information variables (one pass reaches the fixed
     point within runs: a forced wire never transitions)
  3. information variables -> code checks
  4. code checks <-> parity variables until the chain converges
  5. code checks -> information variables

Erasures only ever disappear, so the outer loop stops at the first
iteration that adds no knowledge: no wire resolves, no check-to-variable
message becomes known, and no wire's intrinsic message (from the channel,
a pin or a crosstalk check) becomes known. The engine below is
array-based: known/unknown flags are tracked per edge, the chain fixed
point is computed by prefix scans, and values are filled in as nodes
resolve.

Because message knowledge is monotone, the decoder keeps each fact once
and works on a frontier: steps 1-2 force only around the wires that
became known and transitioning since the last iteration, step 3 revisits
only the edges whose variable-to-check message is still erased, and the
per-check and per-node counts move by the edges that became known. Step
4's chain scans run only in an iteration where step 3 completed a check
(ok_grew), and only the parities that became known get values. The graph lists its
edges in check order, so step 5 visits each check whose level rose as one
block of edges, and only those. Each step notes whether it added one of
those three facts (grew), and the loop stops at an iteration where none
did, the first included, with no recount of the bus. An outer iteration
thus costs O(active edges + N + P); iterations, trace and output are
those of the full sweep (``tests/helpers.sweep_decode``). The per-wire
and per-edge maps are derived once per decode, and only when something
is erased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .buscore import BitsLike, as_bits, check_transition
from .cac import _decode_segments
from .ira import IraGraph, ira_encode, _gather
from .jointcode import WireLayout, _check_fit

__all__ = [
    "ERASED",
    "ErasureWord",
    "FactorGraph",
    "DecodeResult",
    "build_factor_graph",
    "bp_decode",
]

ERASED = 2  # symbol value for '?'

SymbolsLike = Union["ErasureWord", str, Iterable[int], np.ndarray]

# Symbol of each byte of an erasure string, 255 for any other byte.
# Every non-ASCII character encodes to bytes >= 0x80, so it is rejected too.
_SYMBOL_OF_BYTE = np.full(256, 255, dtype=np.uint8)
_SYMBOL_OF_BYTE[np.frombuffer(b"01e?", dtype=np.uint8)] = (0, 1, ERASED, ERASED)
_CHAR_OF_SYMBOL = np.frombuffer(b"01e", dtype=np.uint8)


def _erase(word: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """The symbols of ``word``, a uint8 array of 0 and 1, with ERASED at the
    wires where the bool array ``erased`` is set. The maximum of the word and
    ERASED times the mask gives the bytes ``np.where(erased, ERASED, word)``
    does, about 7x faster on uint8 (2-vCPU Xeon, numpy 2.4.6)."""
    return np.maximum(word, erased.view(np.uint8) * np.uint8(ERASED))


class ErasureWord:
    """Length-N channel output over {0, 1, ?}.

    Serializes as a string over {0, 1, e} ('?' also accepted on input).
    Known symbols are never altered by decoding.
    """

    __slots__ = ("_symbols",)

    def __init__(self, symbols: SymbolsLike):
        if isinstance(symbols, ErasureWord):
            arr = symbols.symbols
        elif isinstance(symbols, str):
            # surrogatepass: an undecodable argv byte arrives as a lone
            # surrogate, which must meet the message below, not a codec error
            raw = np.frombuffer(symbols.encode("utf-8", "surrogatepass"), dtype=np.uint8)
            arr = _SYMBOL_OF_BYTE[raw]
            if np.any(arr > ERASED):
                raise ValueError(f"erasure string may contain only 0, 1, e, got {symbols!r}")
        else:
            arr = np.asarray(symbols)
        if arr.ndim != 1:
            raise ValueError("an erasure word must be one row of symbols, got an array of "
                             f"shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("an erasure word needs at least one symbol")
        # Checked as given: a cast first would wrap 258 onto 2 and 0.7 onto 0.
        if not np.all((arr == 0) | (arr == 1) | (arr == ERASED)):
            raise ValueError("erasure-word symbols must be 0, 1, or the erasure marker")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._symbols = arr

    @property
    def symbols(self) -> np.ndarray:
        return self._symbols

    @property
    def num_erased(self) -> int:
        return int(np.count_nonzero(self._symbols == ERASED))

    def __len__(self) -> int:
        return self._symbols.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ErasureWord):
            return np.array_equal(self._symbols, other._symbols)
        return NotImplemented

    def __str__(self) -> str:
        return _CHAR_OF_SYMBOL[self._symbols].tobytes().decode("ascii")

    def __repr__(self) -> str:
        return f"ErasureWord({str(self)!r})"


@dataclass(frozen=True)
class FactorGraph:
    """Decoding graph for one past state, code instance, and wire layout.

    Built from a disjoint union of instances (past states, graphs with one
    chain per instance, and segments that never cross from one instance
    into the next), it decodes every instance at once: no crosstalk check
    and no chain link joins two instances. The constructor checks that its
    parts agree in size and that the edges come in check order; it keeps
    ``as_bits`` of the past state, a copy no later write by the caller reaches.
    """

    a_bits: np.ndarray
    layout: WireLayout
    graph: IraGraph

    def __post_init__(self):
        arr, layout, graph = as_bits(self.a_bits), self.layout, self.graph
        if layout.n != arr.size:
            raise ValueError("layout does not match the past-state length")
        _check_fit(graph, layout)
        if np.any(graph.edge_check[1:] < graph.edge_check[:-1]):
            raise ValueError("graph edges must be listed in check order")
        object.__setattr__(self, "a_bits", arr)

    @property
    def n(self) -> int:
        return self.a_bits.size


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decoding run."""

    word: ErasureWord
    info_bits: Optional[tuple[int, ...]]
    iterations: int
    residual_erasures: int
    x_ecc_trace: Optional[tuple[float, ...]] = None
    # Set when payload extraction found the resolved word inconsistent: the
    # first pinned wire, crosstalk pair or parity check it breaks, or its
    # payload index past the 2**K range.
    violation: Optional[str] = None


def build_factor_graph(a: BitsLike, graph: IraGraph, layout: WireLayout) -> FactorGraph:
    """The checked decoding graph ``FactorGraph(a, layout, graph)``."""
    return FactorGraph(a, layout, graph)


def bp_decode(
    received: SymbolsLike,
    fg: FactorGraph,
    record_trace: bool = False,
    extract_payload: bool = True,
) -> DecodeResult:
    """Run the scheduled message-passing decoder on one received word.

    Runs to its fixed point, by the rule every trial decode follows: it
    stops at the first outer iteration that adds no knowledge (no wire
    resolves, and no check-to-variable message and no wire's intrinsic
    message becomes known). When every wire resolves and
    ``extract_payload`` is set, the word is first checked against the
    received pinned wires, the crosstalk constraints and the parity checks;
    an inconsistent word yields ``info_bits=None`` and names what it breaks
    in ``violation``. Otherwise the payload is re-extracted from the
    code-carrying wires; a word whose index falls outside the payload range
    yields ``info_bits=None`` and the codec's out-of-range message in
    ``violation``. ``record_trace`` captures the erased fraction of the
    variable-to-check messages of step 3 per iteration.
    """
    rcv = received if isinstance(received, ErasureWord) else ErasureWord(received)
    if len(rcv) != fg.n:
        raise ValueError(f"received word has {len(rcv)} symbols, bus has {fg.n} wires")
    symbols = rcv.symbols
    # The decode's per-edge and per-check arrays are freed before the
    # payload is read, the step that needs the most memory on a wide bus.
    dec = _propagate(symbols, fg)

    residual = int(np.count_nonzero(~dec.resolved))
    out = _erase(dec.val, ~dec.resolved)
    info_bits = None
    violation = None
    if residual == 0 and extract_payload:
        # A resolved word that breaks a constraint or indexes past the
        # payload range carries no payload; the word itself is still
        # returned for inspection.
        violation = _first_violation(symbols, dec.val, fg)
        if violation is None:
            # Every crosstalk pair holds, so only the index range can fail.
            try:
                info_bits = tuple(_decode_segments(dec.val, fg.a_bits, fg.layout.segments).tolist())
            except ValueError as exc:
                violation = str(exc)
    return DecodeResult(
        word=ErasureWord(out),
        info_bits=info_bits,
        iterations=dec.iterations,
        residual_erasures=residual,
        x_ecc_trace=tuple(dec.trace) if record_trace else None,
        violation=violation,
    )


class _Decoded(NamedTuple):
    """What one run of the decode engine found."""

    val: np.ndarray  # each wire's value, 0 where it stayed erased
    resolved: np.ndarray  # whether each wire resolved
    iterations: int
    trace: list[float]  # erased fraction of step 3's messages per iteration


def _propagate(symbols: np.ndarray, fg: FactorGraph, max_outer: Optional[int] = None) -> _Decoded:
    """The decode engine of ``bp_decode`` and the trials, on the received
    ``symbols``. With no ``max_outer`` it runs to its fixed point: every
    iteration before the last makes one more wire's intrinsic message, wire
    value or check-to-variable message known, so on E sparse edges a limit
    of 2N + E + 1 iterations cannot bind. ``max_outer`` cuts it short, as
    ``de_vs_simulation`` does to stop at the trace it reports."""
    n = fg.n
    a = fg.a_bits
    layout = fg.layout
    resolved = symbols != ERASED
    val = symbols * resolved  # erased wires hold 0
    if layout.pinned:
        # The receiver knows pinned wires repeat their past bit.
        pins = np.array(layout.pinned, dtype=np.int64)
        val[pins] = a[pins]
        resolved[pins] = True
    if resolved.all():
        # Nothing erased: the first iteration adds no knowledge, and its
        # step 3 finds every variable-to-check message known.
        return _Decoded(val, resolved, 1, [0.0])

    num_p = layout.num_parity
    slots = layout.parity_slot_array
    # The graph may hold int32 edges; the loop indexes faster with intp.
    e_chk = fg.graph.edge_check.astype(np.intp, copy=False)
    e_wire = _gather(layout.info_wire_array, fg.graph.edge_info)  # wire of each sparse edge
    num_e = e_wire.size
    # The edges of check j are the degree[j] edges before end_edge[j].
    degree = np.bincount(e_chk, minlength=num_p)
    end_edge = degree.cumsum()
    # Every segment wire but the first shares a segment with the wire
    # before it, and the crosstalk checks join exactly those pairs.
    adj_prev = np.zeros(n, dtype=bool)
    adj_prev[layout.info_wire_array] = True
    adj_prev[layout.segments[:, 0]] = False
    # A wire's intrinsic message is known from the channel, a pin or a
    # crosstalk check.
    intrinsic = resolved.copy()
    # Per-edge knowledge only grows: ext (variable-to-check known) and
    # known_ci (check-to-variable known) never revert, and a wire's value
    # never changes once resolved. So the per-check counts of erased inputs
    # (unk) and of known ones mod 2 (s), and the per-wire count of known
    # check messages (cnt_ci), move only by the edges that became known.
    # Edges out of channel-known wires carry known messages from the start,
    # and erased wires hold 0, so the known ones are val[e_wire].
    ext = intrinsic[e_wire]
    open_v2c = (~ext).nonzero()[0]
    unk = np.bincount(e_chk[open_v2c], minlength=num_p)
    s = np.bincount(e_chk.compress(val[e_wire].view(bool)), minlength=num_p) & 1
    known_ci = np.zeros(num_e, dtype=bool)
    level = np.zeros(num_p, dtype=np.int64)
    cnt_ci = np.zeros(n, dtype=np.int64)

    ch_p = resolved[slots]  # only the channel and step 4 resolve parities
    idx_p = np.arange(num_p, dtype=np.int64)
    cs = fg.graph.chain_start
    # Knowledge sources along the chains, fixed for the whole decode: the
    # last channel-known parity at or before j (lch), the first one at or
    # after j (nch), and the start of j's chain (lcs), whose implicit zero
    # parity precedes it.
    lch = np.maximum.accumulate(np.where(ch_p, idx_p, -1))
    lcs = np.maximum.accumulate(np.where(cs, idx_p, 0))
    # lch_r: lch of the reversed chain, read back in parity order (-1 where
    # no channel-known parity follows; nch is then 0)
    lch_r = np.maximum.accumulate(np.where(ch_p[::-1], idx_p, -1))[::-1]
    nch = np.where(lch_r >= 0, num_p - 1 - lch_r, 0)
    from_zero = lcs > lch
    # Parity j has two sources: entry j backward, nch[j], where one exists
    # in j's chain (from_right); entry num_p + j forward, lch[j] or the
    # implicit zero before j's chain, whichever is later. The checks
    # between a source and j are those from src_pos to j (forward) or from
    # j + 1 to src_pos - 1 (backward). Once all of them are satisfied, their
    # s is final, and parity j takes src_val ^ s[src_pos] ^ ... ^ s[j] or
    # src_val ^ s[j + 1] ^ ... ^ s[src_pos - 1], in both cases src_val ^
    # cum0[src_pos] ^ cum0[j + 1] with cum0 the prefix xor of s.
    from_right = (lch_r >= 0) & (lcs[nch] <= idx_p)
    src_pos = np.concatenate((nch + 1, np.where(from_zero, lcs, lch + 1)))
    src_val = np.concatenate((val[slots[nch]], np.where(from_zero, 0, val[slots[lch]])))
    cum0 = np.zeros(num_p + 1, dtype=np.int64)
    brk = np.zeros(num_p + 1, dtype=np.int64)
    # Check j reads parity j - 1 unless j starts a chain.
    has_prev = ~cs
    has_prev[:1] = False
    prev_known = np.ones(num_p, dtype=bool)  # parity j - 1 -> check j known
    # Wires known from the channel or a check stay known and keep their
    # value, so those that transition only accumulate: each iteration's
    # crosstalk pass forces only around the ones that joined since the last,
    # the wires that step 5 filled in. (A wire forced by the crosstalk
    # checks keeps its past bit; one resolved otherwise got its value from
    # the channel or its first check message.)
    moved = (intrinsic & (val != a)).nonzero()[0]
    adj_next = np.append(adj_prev[1:], False)  # wire i shares a segment with wire i+1

    trace: list[float] = []
    iterations = 0

    for it in range(1, (2 * n + num_e + 1 if max_outer is None else max_outer) + 1):
        iterations = it

        # Steps 1-2: a known transitioning wire pins both in-run neighbours
        # to their past bits. A forced wire keeps its past bit and so never
        # transitions: one pass reaches the fixed point.
        grew = False
        if moved.size:
            force = np.concatenate((moved.compress(adj_prev[moved]) - 1,
                                    moved.compress(adj_next[moved]) + 1))
            moved = moved[:0]
            grew = not intrinsic[force].all()
            intrinsic[force] = True
            force = force.compress(~resolved[force])
            val[force] = a[force]
            resolved[force] = True

        # Step 3: extrinsic variable-to-check messages of the open edges.
        # ok (checks whose sparse inputs are all known) grows only here.
        ok_grew = it == 1
        if open_v2c.size:
            w = e_wire[open_v2c]
            now = intrinsic[w] | (cnt_ci[w] > known_ci[open_v2c])
            closed, open_v2c = open_v2c.compress(now), open_v2c.compress(~now)
            ext[closed] = True
            c = e_chk[closed]
            unk -= np.bincount(c, minlength=num_p)
            s ^= np.bincount(c, val[w.compress(now)], minlength=num_p).astype(np.int64) & 1
            ok_grew |= not unk[c].all()
            # Edge-sized arrays go before the next step: on a wide bus the
            # first iterations touch most edges.
            del w, now, closed, c
        trace.append(float(1.0 - (num_e - open_v2c.size) / num_e) if num_e else 0.0)

        # Step 4: chain fixed point. Knowledge spreads along each chain from
        # known parities (and the implicit zero before its first parity)
        # until a check not in ok. The scans depend on ok alone, so they
        # run only in an iteration where it grew, the first among them.
        if ok_grew:
            # A source reaches parity j when no check between them breaks
            # the chain: brk grows at each check not in ok.
            unk.cumsum(out=brk[1:])
            reach = brk[src_pos].reshape(2, num_p) == brk[1:]
            kb = reach[0] & from_right  # parity j -> check j known
            kf = reach[1]  # parity j -> check j+1 known
            np.logical_or(kf[:-1], cs[1:], out=prev_known[1:])
            chain_ok = prev_known & kb
            new_p = ((kf | kb) > resolved[slots]).nonzero()[0]
            if new_p.size:
                grew = True
                np.bitwise_xor.accumulate(s, out=cum0[1:])
                k = new_p + num_p * kf[new_p]
                wires = slots[new_p]
                val[wires] = src_val[k] ^ cum0[src_pos[k]] ^ cum0[new_p + 1]
                resolved[wires] = True

        # Step 5: check-to-variable messages and value fill-in. A check
        # whose two chain messages are known sends a known message to its
        # one erased sparse input (level 1) or, with none erased, to all of
        # them (level 2); only checks whose level rose send new ones, and
        # only their blocks of edges are visited. With every wire resolved
        # there is nothing left to fill.
        if num_e and not resolved.all():
            prev_level = level
            level = np.where(chain_ok, 2 - np.minimum(unk, 2), 0)
            rose = (level > prev_level).nonzero()[0]
            if rose.size:
                cnt = degree[rose]
                e = (end_edge[rose] - cnt.cumsum()).repeat(cnt)
                e += np.arange(e.size)
                # An edge gets a new message unless it has one: every edge
                # of a check at level 2, the erased one at level 1.
                # (For bools, x >= y is x or not y, and x > y is x and not y.)
                closed = e.compress(((level[rose] == 2).repeat(cnt) >= ext[e]) > known_ci[e])
                del e
                grew |= closed.size > 0
                known_ci[closed] = True
                w = e_wire[closed]
                fresh = ~resolved[w]
                if fresh.any():
                    # The blocks of ascending checks are ascending edges, so
                    # a wire filled twice keeps its last fill, as in a sweep
                    # over every edge.
                    ej = e_chk[closed.compress(fresh)]
                    wires = w.compress(fresh)
                    val[wires] = s[ej] ^ val[slots[ej]] ^ (val[slots[ej - 1]] & has_prev[ej])
                    resolved[wires] = True
                    moved = wires.compress(val[wires] != a[wires])
                del closed, fresh
                np.add.at(cnt_ci, w, 1)
                del w

        # Knowledge only grows: an iteration that added none is the fixed
        # point.
        if resolved.all() or not grew:
            break
    return _Decoded(val, resolved, iterations, trace)


def _first_violation(received: np.ndarray, word: np.ndarray, fg: FactorGraph) -> Optional[str]:
    """The first pinned wire, crosstalk pair or parity check, in that
    order, that a fully resolved word contradicts; None if it is a
    codeword."""
    pins = np.array(fg.layout.pinned, dtype=np.int64)
    got = received[pins]
    bad = np.flatnonzero((got != ERASED) & (got != fg.a_bits[pins]))
    if bad.size:
        w = int(pins[bad[0]])
        return (f"wire {w + 1} is pinned to its past bit {int(fg.a_bits[w])} "
                f"but {int(got[bad[0]])} was received")
    pairs = check_transition(fg.a_bits, word).opposing_pairs
    if pairs:
        return f"wires {pairs[0][0]} and {pairs[0][1]} make opposing transitions"
    slots = fg.layout.parity_slot_array
    bad = np.flatnonzero(word[slots] != ira_encode(word[fg.layout.info_wire_array], fg.graph))
    if bad.size:
        j = int(bad[0])
        return f"parity check {j + 1} fails (parity wire {int(slots[j]) + 1})"
    return None
