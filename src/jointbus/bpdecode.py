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
iteration that changes no message. The engine below is array-based: known/
unknown flags are tracked per edge, the chain fixed point is computed by
prefix scans, and values are filled in as nodes resolve.

Because message knowledge is monotone, the decoder works on a frontier:
step 3 revisits only the edges whose variable-to-check message is still
erased, step 5 only the edges of checks that gained knowledge, and the
per-check and per-node counts move by the edges that became known. An
outer iteration thus costs O(active edges + N + P) plus one gather over
the edges, not a full recomputation of every message; iterations, trace
and output are those of the full sweep (``tests/helpers.sweep_decode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .buscore import BitsLike, as_bits, check_transition
from .cac import _decode_segments
from .ira import IraGraph, ira_encode, validate_checks
from .jointcode import WireLayout

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
            table = {"0": 0, "1": 1, "e": ERASED, "?": ERASED}
            try:
                arr = np.array([table[c] for c in symbols], dtype=np.uint8)
            except KeyError:
                raise ValueError(f"erasure string may contain only 0, 1, e, got {symbols!r}")
        else:
            arr = np.asarray(symbols, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("an erasure word needs at least one symbol")
        if not np.all(arr <= ERASED):
            raise ValueError("erasure-word symbols must be 0, 1, or the erasure marker")
        arr = arr.copy()
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
        return "".join("01e"[s] for s in self._symbols)

    def __repr__(self) -> str:
        return f"ErasureWord({str(self)!r})"


@dataclass(frozen=True)
class FactorGraph:
    """Decoding graph for one past state, code instance, and wire layout.

    Built from a disjoint union of instances (past states side by side,
    ``IraGraph.union`` and segments that never cross from one instance
    into the next), it decodes every instance at once: no crosstalk check
    and no chain link joins two instances.
    """

    a_bits: np.ndarray
    layout: WireLayout
    graph: IraGraph
    info_wires: np.ndarray     # wire index of info node i
    parity_slots: np.ndarray   # wire index of parity j, chain order
    pinned_wires: np.ndarray
    pinned_vals: np.ndarray
    adj_prev: np.ndarray       # wire i shares a segment with wire i-1
    edge_wire: np.ndarray      # wire index of each sparse edge's variable end
    chain_start: np.ndarray    # parity j starts an accumulator chain

    @property
    def n(self) -> int:
        return self.a_bits.size

    @property
    def num_info_vars(self) -> int:
        return self.info_wires.size

    @property
    def num_parity_vars(self) -> int:
        return self.parity_slots.size

    @property
    def num_cac_checks(self) -> int:
        return int(np.count_nonzero(self.adj_prev))

    @property
    def num_ecc_checks(self) -> int:
        return self.parity_slots.size


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decoding run."""

    word: ErasureWord
    info_bits: Optional[tuple[int, ...]]
    iterations: int
    converged: bool
    residual_erasures: int
    x_ecc_trace: Optional[tuple[float, ...]] = None
    # Set when payload extraction found the resolved word inconsistent: the
    # first pinned wire, crosstalk pair or parity check it breaks, or its
    # payload index past the 2**K range.
    violation: Optional[str] = None


def build_factor_graph(a: BitsLike, graph: IraGraph, layout: WireLayout) -> FactorGraph:
    """Assemble the decoding graph of past state ``a``, code ``graph`` and
    wire ``layout``."""
    arr = as_bits(a)
    if layout.n != arr.size:
        raise ValueError("layout does not match the past-state length")
    if graph.num_parity != layout.num_parity or graph.num_info != layout.num_info:
        raise ValueError(
            f"graph sized ({graph.num_info}, {graph.num_parity}) does not match the layout "
            f"({layout.num_info}, {layout.num_parity})"
        )
    info_wires = layout.info_wire_array
    seg_id = np.full(arr.size, -1, dtype=np.int64)
    if info_wires.size:
        seg_id[info_wires] = np.repeat(
            np.arange(len(layout.segments), dtype=np.int64), layout.seg_lengths
        )
    adj_prev = np.zeros(arr.size, dtype=bool)
    adj_prev[1:] = (seg_id[1:] >= 0) & (seg_id[1:] == seg_id[:-1])
    pinned_wires = np.fromiter((w for w, _ in layout.pinned), dtype=np.int64, count=len(layout.pinned))
    pinned_vals = np.fromiter((v for _, v in layout.pinned), dtype=np.uint8, count=len(layout.pinned))
    parity_slots = layout.parity_slot_array
    edge_wire = info_wires[graph.edge_info] if graph.num_edges else np.zeros(0, dtype=np.int64)
    return FactorGraph(
        a_bits=arr,
        layout=layout,
        graph=graph,
        info_wires=info_wires,
        parity_slots=parity_slots,
        pinned_wires=pinned_wires,
        pinned_vals=pinned_vals,
        adj_prev=adj_prev,
        edge_wire=edge_wire,
        chain_start=graph.chain_start_mask(),
    )


def bp_decode(
    received: SymbolsLike,
    fg: FactorGraph,
    max_outer: int = 200,
    record_trace: bool = False,
    extract_payload: bool = True,
) -> DecodeResult:
    """Run the scheduled message-passing decoder on one received word.

    Stops at the first outer iteration that changes no message (reported as
    ``converged``) or after ``max_outer`` iterations. When every wire
    resolves and ``extract_payload`` is set, the word is first checked
    against the received pinned wires, the crosstalk constraints and the
    parity checks; an inconsistent word yields ``info_bits=None`` and names
    what it breaks in ``violation``. Otherwise the payload is re-extracted
    from the code-carrying wires; a word whose index falls outside the
    payload range yields ``info_bits=None`` and the codec's out-of-range
    message in ``violation``. ``record_trace`` captures the
    erased fraction of the variable-to-check messages of step 3 per
    iteration.
    """
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    rcv = received if isinstance(received, ErasureWord) else ErasureWord(received)
    n = fg.n
    if len(rcv) != n:
        raise ValueError(f"received word has {len(rcv)} symbols, bus has {n} wires")
    a = fg.a_bits
    symbols = rcv.symbols

    resolved = symbols != ERASED
    val = np.where(resolved, symbols, 0).astype(np.uint8)
    src_ch = resolved.copy()
    if fg.pinned_wires.size:
        # The receiver knows pinned wires repeat their past bit.
        val[fg.pinned_wires] = fg.pinned_vals
        resolved[fg.pinned_wires] = True
        src_ch[fg.pinned_wires] = True

    num_e = fg.edge_wire.size
    num_p = fg.num_parity_vars
    e_chk = fg.graph.edge_check
    e_wire = fg.edge_wire
    # Per-edge knowledge only grows: ext (variable-to-check known) and
    # known_ci (check-to-variable known) never revert, and a wire's value
    # never changes once resolved. So the per-check counts of erased inputs
    # (unk) and of known ones mod 2 (s), and the per-wire count of known
    # check messages (cnt_ci), move only by the edges that became known.
    # Edges out of channel-known wires carry known messages from the start.
    ext = src_ch[e_wire]
    open_v2c = np.flatnonzero(~ext)
    unk = np.bincount(e_chk[open_v2c], minlength=num_p)
    s = np.bincount(e_chk[ext & (val[e_wire] == 1)], minlength=num_p) & 1
    known_ci = np.zeros(num_e, dtype=bool)
    num_known_ci = 0
    level = np.zeros(num_p, dtype=np.int64)
    cnt_ci = np.zeros(n, dtype=np.int64)
    src_cac = np.zeros(n, dtype=bool)

    ch_p = src_ch[fg.parity_slots]
    val_p_ch = val[fg.parity_slots]
    idx_p = np.arange(num_p, dtype=np.int64)
    cs = fg.chain_start
    # Knowledge sources along the chains, fixed for the whole decode: the
    # last channel-known parity at or before j, the first one after j, and
    # the start of j's chain, whose implicit zero parity sits just before it.
    lch = np.maximum.accumulate(np.where(ch_p, idx_p, -1))
    lcs = np.maximum.accumulate(np.where(cs, idx_p, 0))
    lsp = np.maximum(lch, lcs - 1)
    src_idx = np.concatenate(([-1], lch))[:-1]
    lsp_r = np.maximum.accumulate(np.where(ch_p[::-1], idx_p, -1))
    nxt_seed = np.concatenate((lsp_r[::-1], [-1]))[1:]
    r_star = np.where(nxt_seed >= 0, num_p - 1 - nxt_seed, 0)
    from_zero = lcs > src_idx
    val_src, val_r_star = val_p_ch[src_idx], val_p_ch[r_star]

    trace: list[float] = []
    iterations = 0
    converged = False
    prev_sig = (-1, -1, -1)

    for it in range(1, max_outer + 1):
        iterations = it

        # Steps 1-2: a known transitioning wire pins both in-run neighbours
        # to their past bits. A forced wire keeps its past bit and so never
        # transitions: one pass reaches the fixed point.
        m = (src_ch | (cnt_ci > 0)) & (val != a) & resolved
        force = np.zeros(n, dtype=bool)
        force[1:] = m[:-1] & fg.adj_prev[1:]
        force[:-1] |= m[1:] & fg.adj_prev[1:]
        src_cac |= force
        newly = force & ~resolved
        val[newly] = a[newly]
        resolved |= force

        # Step 3: extrinsic variable-to-check messages of the open edges.
        if open_v2c.size:
            w = e_wire[open_v2c]
            now = (src_ch | src_cac)[w] | (cnt_ci[w] > known_ci[open_v2c])
            one = (val[w] == 1)[now]
            closed, open_v2c = open_v2c[now], open_v2c[~now]
            ext[closed] = True
            c = e_chk[closed]
            unk -= np.bincount(c, minlength=num_p)
            s ^= np.bincount(c[one], minlength=num_p) & 1
            # Edge-sized arrays go before the next step: on a wide bus the
            # first iterations touch most edges.
            del w, now, one, closed, c
        if record_trace:
            trace.append(float(1.0 - (num_e - open_v2c.size) / num_e) if num_e else 0.0)

        # Step 4: chain fixed point. ok marks checks whose sparse inputs are
        # all known; knowledge spreads along each chain from known parities
        # (and the implicit zero before its first parity) until a break.
        ok = unk == 0
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
            base_fwd = np.where(from_zero, np.concatenate(([0], cum))[lcs],
                                val_src ^ cum[src_idx])
            v_fwd = (base_fwd ^ cum).astype(np.uint8)
            v_bwd = (val_r_star ^ cum[r_star] ^ cum).astype(np.uint8)
            val_p = np.where(ch_p, val_p_ch, np.where(res_fwd, v_fwd, v_bwd)).astype(np.uint8)

            newly_p = parity_known & ~resolved[fg.parity_slots]
            if newly_p.any():
                wires = fg.parity_slots[newly_p]
                val[wires] = val_p[newly_p]
                resolved[wires] = True

        # Step 5: check-to-variable messages and value fill-in. A check
        # whose two chain messages are known sends a known message to its
        # one erased sparse input (level 1) or, with none erased, to all of
        # them (level 2); only checks whose level rose send new ones.
        if num_e:
            prev_level = level
            level = np.where(kf_prev & kb, 2 - np.minimum(unk, 2), 0)
            rose = level > prev_level
            if rose.any():
                # g: per edge, the level its check rose to (0: no rise).
                # closed is in ascending edge order, so a wire filled twice
                # keeps its last fill, as in a sweep over every edge.
                g = np.where(rose, level, 0).astype(np.int8)[e_chk]
                closed = np.flatnonzero(((g == 2) | ((g == 1) & ~ext)) & ~known_ci)
                known_ci[closed] = True
                num_known_ci += closed.size
                w = e_wire[closed]
                fresh = ~resolved[w]
                if fresh.any():
                    ej = e_chk[closed[fresh]]
                    valp_prev = np.where(cs, 0, np.concatenate(([0], val_p[:-1]))).astype(np.uint8)
                    wires = w[fresh]
                    val[wires] = (s[ej] ^ valp_prev[ej] ^ val_p[ej]).astype(np.uint8)
                    resolved[wires] = True
                del g, closed, fresh
                cnt_ci += np.bincount(w, minlength=n)
                del w

        if resolved.all():
            converged = True
            break
        sig = (int(np.count_nonzero(resolved)), num_known_ci, int(np.count_nonzero(src_cac)))
        if sig == prev_sig:
            converged = True
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
            # Every crosstalk pair holds, so only the index range can fail.
            try:
                info_bits = tuple(_decode_segments(val, a, fg.layout.segments).tolist())
            except ValueError as exc:
                violation = str(exc)
    return DecodeResult(
        word=ErasureWord(out),
        info_bits=info_bits,
        iterations=iterations,
        converged=converged,
        residual_erasures=residual,
        x_ecc_trace=tuple(trace) if record_trace else None,
        violation=violation,
    )


def _first_violation(received: np.ndarray, word: np.ndarray, fg: FactorGraph) -> Optional[str]:
    """The first pinned wire, crosstalk pair or parity check, in that
    order, that a fully resolved word contradicts; None if it is a
    codeword."""
    pins = fg.pinned_wires
    got = received[pins]
    bad = np.flatnonzero((got != ERASED) & (got != fg.pinned_vals))
    if bad.size:
        w = int(pins[bad[0]])
        return (f"wire {w + 1} is pinned to its past bit {int(fg.pinned_vals[bad[0]])} "
                f"but {int(got[bad[0]])} was received")
    pairs = check_transition(fg.a_bits, word).opposing_pairs
    if pairs:
        return f"wires {pairs[0][0]} and {pairs[0][1]} make opposing transitions"
    info, par = word[fg.info_wires], word[fg.parity_slots]
    if not validate_checks(info, par, fg.graph):
        j = int(np.flatnonzero(par != ira_encode(info, fg.graph))[0])
        return f"parity check {j + 1} fails (parity wire {int(fg.parity_slots[j]) + 1})"
    return None
