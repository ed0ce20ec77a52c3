"""Erasure channel, past-state ensembles, and the Monte-Carlo trial engine.

Each trial draws a fresh past state, builds a code instance sized to it,
sends one bus word through the erasure channel, and decodes. Trials are
keyed by (seed, trial index) through a counter-based generator, so results
are reproducible and independent of execution order, batching or
parallelism. Short trials run in batches: their instances are laid side by
side as one disjoint union and decoded by a single decoder call.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from math import sqrt
from typing import Iterable, Optional

import numpy as np

from .buscore import BitsLike, BusState, as_bits, fib, _run_bounds, _state_from_runs
from .bpdecode import ERASED, ErasureWord, bp_decode, build_factor_graph
from .cac import _encode_segments, _payload_bits
from .densevo import DeModel, de_trajectory
from .ira import DegreeDistribution, IraGraph, rate_ldpc, recc_from_rldpc, sample_graph
from .jointcode import WireLayout, build_layout, _complete_word, _layout_from_runs, _stride_layout

__all__ = [
    "EnsembleSpec",
    "SimConfig",
    "TrialStats",
    "ModifiedPastState",
    "CodeInstances",
    "build_instances",
    "bec_transmit",
    "gen_past_uniform",
    "gen_past_modified",
    "run_trials",
    "trial_rng",
    "de_vs_simulation",
    "wilson_interval",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """How past bus states are drawn: 'uniform' over all words of length n,
    or 'modified' (independent runs interleaved at random, parities tied to
    the dedicated length-1 runs, sized for the rate of the code)."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("uniform", "modified"):
            raise ValueError(f"ensemble kind must be 'uniform' or 'modified', got {self.kind!r}")
        if self.n < 1:
            raise ValueError("ensemble length must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    ensemble: EnsembleSpec
    dist: DegreeDistribution
    eps: float
    trials: int
    seed: int
    mode: str = "uniform-codeword"
    jobs: int = 1

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode not in ("uniform-codeword", "info-bits"):
            raise ValueError(f"mode must be 'uniform-codeword' or 'info-bits', got {self.mode!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class TrialStats:
    """Aggregated error counts; ratios are derived, never stored."""

    trials: int = 0
    bits_code: int = 0
    bit_errors_code: int = 0
    bits_info: int = 0
    bit_errors_info: int = 0
    block_errors: int = 0
    insufficient_free_wire_events: int = 0
    rng_seed: int = 0

    def add(self, other: "TrialStats") -> "TrialStats":
        return TrialStats(
            trials=self.trials + other.trials,
            bits_code=self.bits_code + other.bits_code,
            bit_errors_code=self.bit_errors_code + other.bit_errors_code,
            bits_info=self.bits_info + other.bits_info,
            bit_errors_info=self.bit_errors_info + other.bit_errors_info,
            block_errors=self.block_errors + other.block_errors,
            insufficient_free_wire_events=(
                self.insufficient_free_wire_events + other.insufficient_free_wire_events
            ),
            rng_seed=self.rng_seed or other.rng_seed,
        )

    @property
    def pb_code(self) -> float:
        return self.bit_errors_code / self.bits_code if self.bits_code else 0.0

    @property
    def pb_info(self) -> float:
        return self.bit_errors_info / self.bits_info if self.bits_info else 0.0

    @property
    def pe(self) -> float:
        return self.block_errors / self.trials if self.trials else 0.0

    @property
    def insufficient_rate(self) -> float:
        return self.insufficient_free_wire_events / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class ModifiedPastState:
    """A modified-ensemble draw: the state plus the 1-based wires of the
    payload part and of the parity-designated part."""

    state: BusState
    part1_wires: tuple[int, ...]
    part2_wires: tuple[int, ...]


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream for one trial; streams never overlap across
    trial indices, so any execution order gives identical statistics."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def bec_transmit(b: BitsLike, eps: float, rng: np.random.Generator) -> ErasureWord:
    """Erase each symbol independently with probability eps; never flips."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    bits = as_bits(b)
    out = bits.copy()
    out[rng.random(bits.size) < eps] = ERASED
    return ErasureWord(out)


def gen_past_uniform(n: int, rng: np.random.Generator) -> BusState:
    """Past state with independent fair bits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return BusState(rng.integers(0, 2, n, dtype=np.uint8))


# Fibonacci ratio table for uniform sampling of valid run continuations in
# transition space (strings with no two adjacent transitions): with r
# positions left, P(transition here) = F(r) / F(r+2).
_RATIO1: list[float] = []


def _ratio1(up_to: int) -> np.ndarray:
    while len(_RATIO1) <= up_to:
        r = len(_RATIO1)
        _RATIO1.append(fib(r) / fib(r + 2) if r >= 1 else 0.0)
    return np.asarray(_RATIO1)


def _valid_word(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray, u: np.ndarray,
                word_of_run: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniform valid continuation from one uniform draw per wire.

    Works on transition indicators t = b xor a: validity is exactly 'no two
    adjacent transitions inside a run', and the runs decouple. Within a run
    the wires are sampled in order, a transition coming with Fibonacci-ratio
    probability unless the previous wire transitioned. The draws ``u`` are
    consumed position by position across all runs: first wire of every
    run, then second wire of every run long enough, and so on; for words
    laid side by side (``word_of_run``), word by word.
    """
    n = a.size
    run_of_wire = np.repeat(np.arange(starts.size), lengths)
    pos = np.arange(n)
    offset = pos - starts[run_of_wire]
    d_max = int(lengths.max())
    key = offset if word_of_run is None else word_of_run[run_of_wire] * d_max + offset
    uw = np.empty(n)
    uw[np.argsort(key, kind="stable")] = u
    c = uw < _ratio1(d_max + 1)[lengths[run_of_wire] - offset]
    # t_j = c_j and not t_{j-1}: inside each stretch where c holds, the
    # transitions fall on every other wire, starting at its first.
    first = np.maximum.accumulate(np.where(~c, pos + 1, np.where(offset == 0, pos, 0)))
    t = c & ((pos - first) % 2 == 0)
    return (a ^ t).astype(np.uint8)


def _sample_run_length(n_runs: int, r_ecc: float, rng: np.random.Generator) -> np.ndarray:
    """Lengths for the payload part of the modified ensemble: length 1 with
    probability (2r - 3/2)/(2r - 1), otherwise 1 + Geometric(1/2)."""
    p1 = (2 * r_ecc - 1.5) / (2 * r_ecc - 1.0)
    lengths = np.where(
        rng.random(n_runs) < p1,
        1,
        1 + rng.geometric(0.5, n_runs),
    )
    return lengths.astype(np.int64)


def gen_past_modified(n: int, r_ecc: float, rng: np.random.Generator) -> ModifiedPastState:
    """Draw a past state as randomly interleaved independent runs, for a
    code of rate ``r_ecc`` in (3/4, 1].

    The payload part contributes round(n (r_ecc - 1/2)) runs with the
    heavy-tailed length law above; the parity part contributes
    round(len1 (1 - r_ecc)/r_ecc) runs of length one, where len1 is the
    realized payload-part length. The first bit is uniform and the rest
    follow from the run structure.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.75 < r_ecc <= 1.0:
        raise ValueError(f"modified ensemble needs r_ecc in (3/4, 1], got {r_ecc}")
    r = float(r_ecc)
    n1 = max(1, round(n * (r - 0.5)))
    lengths1 = _sample_run_length(n1, r, rng)
    ell1 = int(lengths1.sum())
    n2 = round(ell1 * (1.0 - r) / r)
    lengths = np.concatenate((lengths1, np.ones(n2, dtype=np.int64)))
    labels = np.concatenate((np.ones(n1, dtype=bool), np.zeros(n2, dtype=bool)))
    perm = rng.permutation(n1 + n2)
    lengths, labels = lengths[perm], labels[perm]
    first_bit = int(rng.integers(0, 2))
    state = _state_from_runs(first_bit, lengths)
    wire_is_part1 = np.repeat(labels, lengths)
    part1 = np.flatnonzero(wire_is_part1) + 1
    part2 = np.flatnonzero(~wire_is_part1) + 1
    return ModifiedPastState(
        state=state,
        part1_wires=tuple(int(w) for w in part1),
        part2_wires=tuple(int(w) for w in part2),
    )


# Wires decoded together: run_trials batches max(1, BATCH_WIRES // N) trials,
# so the fixed cost of each numpy call in the decoder is shared by many
# short trials, while a bus this wide or wider runs one trial at a time.
BATCH_WIRES = 4096


@dataclass(frozen=True)
class CodeInstances:
    """The code instances of some trials, laid side by side as one
    disjoint union.

    Instance i is trial ``trials[i]`` on wires offsets[i]:offsets[i+1]:
    no segment of ``layout`` crosses into the next instance, and ``graph``
    (``IraGraph.union``) restarts its parity chain at each instance, so
    ``build_factor_graph`` and ``bp_decode`` treat the instances as
    independent. A single trial is the case of one instance. ``word`` is
    the transmitted codeword, and ``rngs`` holds each trial's stream,
    positioned after the draws of its instance.
    """

    trials: tuple[int, ...]
    offsets: np.ndarray
    a: np.ndarray
    layout: WireLayout
    graph: IraGraph
    word: np.ndarray
    rngs: tuple[np.random.Generator, ...]
    insufficient: int = 0  # trials dropped: a uniform past state short of free wires


def _sample_code(num_info: int, num_parity: int, dist: DegreeDistribution,
                 rng: np.random.Generator) -> IraGraph:
    if num_parity == 0:
        empty = np.zeros(0, dtype=np.int64)
        return IraGraph(num_info, 0, empty, empty.copy())
    return sample_graph(num_info, num_parity, dist, rng)


def _side_by_side(pasts: list[np.ndarray]):
    """Past states laid side by side: the bits, the word offsets, and the
    runs, cut at every offset."""
    offsets = np.cumsum([0] + [x.size for x in pasts])
    a = np.concatenate(pasts)
    starts, lengths = _run_bounds(a, offsets[:-1])
    return a, offsets, starts, lengths


def build_instances(
    seed: int,
    trials: Iterable[int],
    dist: DegreeDistribution,
    ensemble: Optional[EnsembleSpec] = None,
    past: Optional[BitsLike] = None,
    mode: str = "uniform-codeword",
) -> CodeInstances:
    """Code instances of the given trials: past state, layout, graph and
    the transmitted word.

    Trial t draws from its own stream ``trial_rng(seed, t)``, in order: the
    past state (from ``ensemble``, unless ``past`` fixes it for a single
    trial), the graph, then the word. A code of ``dist`` needs
    round(N (1 - r_ecc)) parities: a uniform-ensemble state with fewer free
    wires drops its trial (counted in ``insufficient``), a given ``past``
    falls back to shield pairs (see ``build_layout``), and a
    modified-ensemble state, drawn for the rate r_ecc of ``dist``, brings
    its own parity wires.

    The word is drawn on the trial's own layout, the one it is decoded on.
    'uniform-codeword' draws it uniformly over the valid words of the
    layout's runs, where a shield pair cuts its run at the pinned wire and
    at the wire after it; 'info-bits' CAC-encodes a uniform payload of as
    many bits as the trial's own segments carry. Either way the parity
    slots then take their parities and the pinned wires their past bits.
    """
    trials = tuple(trials)
    if not trials:
        raise ValueError("at least one trial is required")
    if (ensemble is None) == (past is None):
        raise ValueError("give either an ensemble or a past state")
    if mode not in ("uniform-codeword", "info-bits"):
        raise ValueError(f"mode must be 'uniform-codeword' or 'info-bits', got {mode!r}")
    if past is not None and len(trials) != 1:
        raise ValueError("a given past state makes exactly one instance")
    rngs = [trial_rng(seed, t) for t in trials]
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    if past is not None:
        pasts = [as_bits(past)]
    elif ensemble.kind == "uniform":
        pasts = [rng.integers(0, 2, ensemble.n, dtype=np.uint8) for rng in rngs]
    else:
        draws = [gen_past_modified(ensemble.n, r_ecc, rng) for rng in rngs]
        pasts = [d.state.bits for d in draws]
    a, offsets, starts, lengths = _side_by_side(pasts)

    insufficient = 0
    if past is not None:
        layout = build_layout(a, round(a.size * (1.0 - r_ecc)))
    elif ensemble.kind == "uniform":
        p = round(ensemble.n * (1.0 - r_ecc))
        keep = np.bincount(starts[lengths == 1] // ensemble.n, minlength=len(pasts)) >= p
        insufficient = len(trials) - int(np.count_nonzero(keep))
        if insufficient == len(trials):
            empty = np.zeros(0, dtype=np.int64)
            return CodeInstances((), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.uint8),
                                 WireLayout(n=0, parity_slots=(), pinned=(), segments=()),
                                 IraGraph(0, 0, empty, empty.copy(), chain_starts=()),
                                 np.zeros(0, dtype=np.uint8), (), insufficient)
        if insufficient:
            kept = np.flatnonzero(keep).tolist()
            trials = tuple(trials[i] for i in kept)
            rngs = [rngs[i] for i in kept]
            pasts = [pasts[i] for i in kept]
            a, offsets, starts, lengths = _side_by_side(pasts)
        layout = _stride_layout(a.size, starts, lengths, offsets, p)
    else:
        part2 = np.zeros(a.size, dtype=bool)
        part2[np.concatenate([np.asarray(d.part2_wires, dtype=np.int64) + (o - 1)
                              for d, o in zip(draws, offsets)])] = True
        layout = _layout_from_runs(a.size, starts, lengths, (lengths == 1) & part2[starts])
    num_info = np.diff(np.searchsorted(layout.info_wire_array, offsets)).tolist()
    num_parity = np.diff(np.searchsorted(layout.parity_slot_array, offsets)).tolist()
    graphs = [_sample_code(k, q, dist, rng) for k, q, rng in zip(num_info, num_parity, rngs)]
    graph = IraGraph.union(graphs)

    if mode == "uniform-codeword":
        if layout.pinned:
            pins = np.array([w for w, _ in layout.pinned])
            starts, lengths = _run_bounds(a, np.concatenate((offsets[:-1], pins, pins + 1)))
        u = np.concatenate([rng.random(x.size) for rng, x in zip(rngs, pasts)])
        word_of_run = np.searchsorted(offsets, starts, side="right") - 1
        word = _valid_word(a, starts, lengths, u, word_of_run)
    else:
        bounds = np.searchsorted(layout.seg_starts, offsets).tolist()
        parts = []
        for x, o, lo, hi, rng in zip(pasts, offsets.tolist(), bounds, bounds[1:], rngs):
            segments = [(s - o, d) for s, d in layout.segments[lo:hi]]
            payload = rng.integers(0, 2, _payload_bits(segments), dtype=np.uint8)
            parts.append(_encode_segments(payload, x, segments))
        word = np.concatenate(parts)
    _complete_word(word, layout, graph)
    return CodeInstances(trials=trials, offsets=offsets, a=a, layout=layout, graph=graph,
                         word=word, rngs=tuple(rngs), insufficient=insufficient)


def _run_batch(config: SimConfig, trials: range) -> TrialStats:
    """Counts of one batch of trials, decoded as one disjoint union."""
    n = config.ensemble.n
    inst = build_instances(config.seed, trials, config.dist, ensemble=config.ensemble,
                           mode=config.mode)
    k = inst.insufficient
    stats = TrialStats(trials=k, bits_code=k * n, bit_errors_code=k * n, block_errors=k,
                       insufficient_free_wire_events=k, rng_seed=config.seed)
    if not inst.trials:
        return stats
    sizes = np.diff(inst.offsets)
    u = np.concatenate([rng.random(size) for rng, size in zip(inst.rngs, sizes.tolist())])
    received = np.where(u < config.eps, ERASED, inst.word)
    fg = build_factor_graph(inst.a, inst.graph, inst.layout)
    out = bp_decode(received, fg, extract_payload=False).word.symbols
    erased = out == ERASED
    if not np.array_equal(out[~erased], inst.word[~erased]):
        raise RuntimeError("decoder emitted a bit that differs from the transmitted word")
    instance_of_wire = np.repeat(np.arange(sizes.size), sizes)
    residual = np.bincount(instance_of_wire[erased], minlength=sizes.size)
    return stats.add(TrialStats(
        trials=sizes.size,
        bits_code=inst.a.size,
        bit_errors_code=int(residual.sum()),
        bits_info=fg.num_info_vars,
        bit_errors_info=int(np.count_nonzero(erased[fg.info_wires])),
        block_errors=int(np.count_nonzero(residual)),
        rng_seed=config.seed,
    ))


def run_trials(config: SimConfig) -> TrialStats:
    """Run the configured Monte-Carlo campaign and aggregate counts.

    A trial whose past state lacks enough free wires for the required
    parities is declared a block error without decoding; its code bits all
    count as errors, and it is tallied separately so alternative accounting
    can be recomputed. Payload-bit counts skip such trials (no layout
    exists). Trials run in batches of max(1, BATCH_WIRES // N), each
    decoded at once; statistics are invariant to batching and ``jobs``.
    """
    size = max(1, BATCH_WIRES // config.ensemble.n)
    batches = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    if config.jobs > 1 and len(batches) > 1:
        workers = min(config.jobs, len(batches))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_batch, [config] * len(batches), batches,
                                  chunksize=-(-len(batches) // (workers * 4))))
    else:
        parts = [_run_batch(config, batch) for batch in batches]
    return reduce(TrialStats.add, parts, TrialStats(rng_seed=config.seed))


def de_vs_simulation(
    eps: float,
    dist: DegreeDistribution,
    n: int,
    iterations: int,
    seed: int,
) -> list[tuple[int, float, float]]:
    """Pair the decoder's per-iteration erased-edge fraction with the
    density-evolution prediction.

    Runs one uniform-ensemble instance of length n with trace recording and
    the analytic recursion side by side; traces shorter than ``iterations``
    (early convergence) are padded with their final value. Rows are
    (iteration, empirical fraction, predicted fraction).
    """
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    inst = build_instances(seed, [0], dist, ensemble=EnsembleSpec("uniform", n),
                           mode="uniform-codeword")
    if inst.insufficient:
        raise ValueError("drawn past state lacks free wires; use a larger n or another seed")
    received = bec_transmit(inst.word, eps, inst.rngs[0])
    fg = build_factor_graph(inst.a, inst.graph, inst.layout)
    result = bp_decode(received, fg, max_outer=iterations, record_trace=True,
                       extract_payload=False)
    empirical = list(result.x_ecc_trace or ())
    model = DeModel.for_code(dist, r_ecc)
    states, _ = de_trajectory(eps, model, max_iter=iterations)
    predicted = [s.x_ecc for s in states]
    empirical += [empirical[-1] if empirical else 0.0] * (iterations - len(empirical))
    predicted += [predicted[-1] if predicted else 0.0] * (iterations - len(predicted))
    return [(t + 1, empirical[t], predicted[t]) for t in range(iterations)]
