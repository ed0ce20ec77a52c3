"""Erasure channel, past-state ensembles, and the Monte-Carlo trial engine.

Each trial draws a fresh past state, builds a code instance sized to it,
sends one bus word through the erasure channel, and decodes. Trials are
keyed by (seed, trial index) through a counter-based generator, so results
are reproducible and independent of execution order, batching or
parallelism. Short trials run in batches: their instances are laid side by
side as one disjoint union and decoded by a single decoder call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import reduce
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .buscore import (BitsLike, BusState, as_bits, fib, _run_bounds, _stable_argsort,
                      _state_from_runs)
from .bpdecode import ERASED, ErasureWord, FactorGraph, bp_decode, build_factor_graph
from .cac import _encode_segments, _payload_bits
from .densevo import DeModel, de_trajectory
from .ira import DegreeDistribution, IraGraph, _sample_graphs, rate_ldpc, recc_from_rldpc
from .jointcode import WireLayout, _complete_word, _layout_from_runs, _stride_layout

__all__ = [
    "EnsembleSpec",
    "SimConfig",
    "TrialStats",
    "CodeInstances",
    "build_instances",
    "bec_transmit",
    "gen_past_uniform",
    "run_trials",
    "trial_rng",
    "de_vs_simulation",
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
        _check_int("ensemble length n", self.n)
        if self.n < 1:
            raise ValueError("ensemble length n must be >= 1")


def _check_mode(mode: str) -> None:
    if mode not in ("uniform-codeword", "info-bits"):
        raise ValueError(f"mode must be 'uniform-codeword' or 'info-bits', got {mode!r}")


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
        _check_int("trials", self.trials)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_mode(self.mode)
        _check_int("jobs", self.jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _check_key_word("seed", self.seed)


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
        """Counts summed field by field; the first seed set is kept."""
        sums = {f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self) if f.name != "rng_seed"}
        return TrialStats(**sums, rng_seed=self.rng_seed or other.rng_seed)

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


def _check_int(name: str, value: object) -> None:
    """Refuse anything but an integer (Python or numpy, not a bool): 1.5 or
    True would otherwise run as the integer it truncates to."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_key_word(name: str, value: object) -> None:
    """A seed or trial index: one uint64 word of a trial stream's key."""
    _check_int(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


class _TrialKey(ISeedSequence):
    """The seed sequence of one trial stream: it hands Philox the key
    [seed, trial_index] as it is. ``Philox(seed=None)`` and ``Philox(key=)``
    both first draw a SeedSequence from OS entropy, most of the cost of a
    stream, and Philox asks its seed sequence for no other state."""

    __slots__ = ("words",)

    def __init__(self, seed: int, trial_index: int):
        self.words = (seed, trial_index)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial key is two uint64 words: the seed and the trial index")
        return np.array(self.words, dtype=np.uint64)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream for one trial: Philox with counter 0 and key
    [seed, trial_index], built from that key alone (no OS entropy is read).
    Streams never overlap across trial indices, so any execution order gives
    identical statistics. Seed and trial index must be integers in
    [0, 2**64)."""
    _check_key_word("seed", seed)
    _check_key_word("trial index", trial_index)
    return np.random.Generator(np.random.Philox(_TrialKey(seed, trial_index)))


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
                word_of_run: np.ndarray) -> np.ndarray:
    """Uniform valid continuation from one uniform draw per wire.

    Works on transition indicators t = b xor a: validity is exactly 'no two
    adjacent transitions inside a run', and the runs decouple. Within a run
    the wires are sampled in order, a transition coming with Fibonacci-ratio
    probability unless the previous wire transitioned. The draws ``u`` are
    consumed word by word, ``word_of_run`` naming the word of each run (all
    zeros for one word), and within a word position by position across its
    runs: first wire of every run, then second wire of every run long
    enough, and so on.
    """
    n = a.size
    pos = np.arange(n)
    longest = int(lengths.max())
    # Sort key (word, offset in run), built per run and spread over its wires.
    key = np.repeat(word_of_run * longest - starts, lengths) + pos
    uw = np.empty(n)
    uw[_stable_argsort(key, (int(word_of_run[-1]) + 1) * longest)] = u
    left = np.repeat(starts + lengths, lengths) - pos  # wires left in the run, this one included
    c = uw < _ratio1(longest + 1)[left]
    # t_j = c_j and not t_{j-1}: inside each stretch where c holds, the
    # transitions fall on every other wire, starting at its first. A
    # stretch starts at a run's first wire or after a wire where c fails.
    may_start = np.empty(n, dtype=bool)
    np.logical_not(c[:-1], out=may_start[1:])
    may_start[starts] = True
    first = np.maximum.accumulate(pos * may_start)
    return a ^ (c & ((pos ^ first) & 1 == 0))


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


def _draw_modified(n: int, r_ecc: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a modified-ensemble past state, for a code of rate ``r_ecc`` in
    (3/4, 1], as randomly interleaved independent runs.

    The payload part contributes max(1, round(n (r_ecc - 1/2))) runs with
    the heavy-tailed length law above; the parity part contributes
    round(len1 (1 - r_ecc)/r_ecc) runs of length one, where len1 is the
    realized payload-part length. The first bit is uniform and the rest
    follow from the run structure. Returns the state's bits and, per run in
    wire order, whether it is a parity run. ``_run_bounds`` parses the bits
    into exactly these runs: each run starts by repeating the bit before it.
    """
    n1 = max(1, round(n * (r_ecc - 0.5)))
    lengths1 = _sample_run_length(n1, r_ecc, rng)
    n2 = round(int(lengths1.sum()) * (1.0 - r_ecc) / r_ecc)
    lengths = np.concatenate((lengths1, np.ones(n2, dtype=np.int64)))
    is_parity = np.concatenate((np.zeros(n1, dtype=bool), np.ones(n2, dtype=bool)))
    perm = rng.permutation(n1 + n2)
    first_bit = int(rng.integers(0, 2))
    return _state_from_runs(first_bit, lengths[perm]).bits, is_parity[perm]


# Wires decoded together: run_trials batches max(1, BATCH_WIRES // N) trials,
# so the fixed cost of each numpy call in the decoder is shared by many
# short trials, while a bus this wide or wider runs one trial at a time.
# Measured on a 2-vCPU Xeon: at 10,000 a 100-trial point at N = 100 is one
# union, 1.3x the trials per second of 4096 (three unions); N = 10^4 stays
# alone, since unions of 4 or 8 such trials raised the benchmark's peak RSS
# by 15% or 29%; and fewer, larger batches at small N leave ``jobs`` fewer
# work units to share.
BATCH_WIRES = 10_000


@dataclass(frozen=True)
class CodeInstances:
    """The code instances of some trials, laid side by side as one
    disjoint union.

    Instance i is trial ``trials[i]`` on wires offsets[i]:offsets[i+1] of
    the decoding graph ``fg``: no segment of ``fg.layout`` crosses into the
    next instance, and ``fg.graph``, the disjoint union of the sampled
    graphs, restarts its parity chain at each instance, so ``bp_decode``
    treats the instances as independent. A single trial is the case of one
    instance. ``word`` is the transmitted codeword, and ``rngs`` holds each
    trial's stream, positioned after the draws of its instance.
    """

    trials: tuple[int, ...]
    offsets: np.ndarray
    fg: FactorGraph
    word: np.ndarray
    rngs: tuple[np.random.Generator, ...]
    insufficient: int = 0  # trials dropped: a uniform past state short of free wires


def build_instances(
    seed: int,
    trials: Iterable[int],
    dist: DegreeDistribution,
    ensemble: EnsembleSpec,
    mode: str = "uniform-codeword",
) -> CodeInstances:
    """Code instances of the given trials: their decoding graph (past
    state, layout and graph) and the transmitted word.

    Trial t draws from its own stream ``trial_rng(seed, t)``, in order: the
    past state from ``ensemble``, the graph, then the word. A code of
    ``dist`` needs round(N (1 - r_ecc)) parities: a uniform-ensemble state
    with fewer free wires drops its trial (counted in ``insufficient``),
    and a modified-ensemble state, drawn for the rate r_ecc of ``dist``,
    brings its own parity wires.

    The word is drawn on the trial's own layout, the one it is decoded on.
    'uniform-codeword' draws it uniformly over the valid words of the
    layout's runs; 'info-bits' CAC-encodes a uniform payload of as many
    bits as the trial's own segments carry. Either way the parity slots
    then take their parities.
    """
    trials = tuple(trials)
    if not trials:
        raise ValueError("at least one trial is required")
    _check_mode(mode)
    rngs = [trial_rng(seed, t) for t in trials]
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    if ensemble.kind == "uniform":
        pasts = [rng.integers(0, 2, ensemble.n, dtype=np.uint8) for rng in rngs]
    else:
        pasts, parity_runs = zip(*(_draw_modified(ensemble.n, r_ecc, rng) for rng in rngs))
    # The past states side by side, their runs cut at every word offset.
    offsets = np.cumsum([0] + [x.size for x in pasts])
    a = np.concatenate(pasts)
    starts, lengths = _run_bounds(a, offsets[:-1])

    insufficient = 0
    if ensemble.kind == "uniform":
        p = round(ensemble.n * (1.0 - r_ecc))
        keep = np.diff(np.searchsorted(starts[lengths == 1], offsets)) >= p
        insufficient = len(trials) - int(np.count_nonzero(keep))
        if insufficient == len(trials):
            empty, no_bits = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
            fg = FactorGraph(no_bits, WireLayout(0, empty, (), np.zeros((0, 2), dtype=np.int64)),
                             IraGraph(0, 0, empty, empty))
            return CodeInstances((), np.zeros(1, dtype=np.int64), fg, no_bits, (), insufficient)
        if insufficient:
            kept = np.flatnonzero(keep).tolist()
            trials = tuple(trials[i] for i in kept)
            rngs = [rngs[i] for i in kept]
            pasts = [pasts[i] for i in kept]
            a = a.reshape(-1, ensemble.n)[keep].ravel()
            offsets = offsets[:len(kept) + 1]
            starts, lengths = _run_bounds(a, offsets[:-1])
        layout = _stride_layout(a.size, starts, lengths, offsets, p)
    else:
        layout = _layout_from_runs(a.size, starts, lengths, np.concatenate(parity_runs))
    num_info = np.diff(np.searchsorted(layout.info_wire_array, offsets)).tolist()
    num_parity = np.diff(np.searchsorted(layout.parity_slot_array, offsets)).tolist()
    graph = _sample_graphs(num_info, num_parity, dist, rngs)

    if mode == "uniform-codeword":
        u = np.concatenate([rng.random(x.size) for rng, x in zip(rngs, pasts)])
        word_of_run = np.searchsorted(offsets, starts, side="right") - 1
        word = _valid_word(a, starts, lengths, u, word_of_run)
    else:
        bounds = np.searchsorted(layout.segments[:, 0], offsets).tolist()
        parts = []
        for x, o, lo, hi, rng in zip(pasts, offsets.tolist(), bounds, bounds[1:], rngs):
            segments = layout.segments[lo:hi] - (o, 0)
            payload = rng.integers(0, 2, _payload_bits(segments), dtype=np.uint8)
            parts.append(_encode_segments(payload, x, segments))
        word = np.concatenate(parts)
    _complete_word(word, a, layout, graph)
    return CodeInstances(trials=trials, offsets=offsets, fg=build_factor_graph(a, graph, layout),
                         word=word, rngs=tuple(rngs), insufficient=insufficient)


def _run_batch(config: SimConfig, trials: range) -> TrialStats:
    """Counts of one batch of trials, decoded as one disjoint union."""
    n = config.ensemble.n
    inst = build_instances(config.seed, trials, config.dist, config.ensemble, config.mode)
    k = inst.insufficient
    stats = TrialStats(trials=k, bits_code=k * n, bit_errors_code=k * n, block_errors=k,
                       insufficient_free_wire_events=k, rng_seed=config.seed)
    if not inst.trials:
        return stats
    sizes = np.diff(inst.offsets)
    u = np.concatenate([rng.random(size) for rng, size in zip(inst.rngs, sizes.tolist())])
    received = np.where(u < config.eps, ERASED, inst.word)
    fg = inst.fg
    out = bp_decode(received, fg, extract_payload=False).word.symbols
    erased = out == ERASED
    if not np.array_equal(out[~erased], inst.word[~erased]):
        raise RuntimeError("decoder emitted a bit that differs from the transmitted word")
    instance_of_wire = np.repeat(np.arange(sizes.size), sizes)
    residual = np.bincount(instance_of_wire[erased], minlength=sizes.size)
    return stats.add(TrialStats(
        trials=sizes.size,
        bits_code=fg.n,
        bit_errors_code=int(residual.sum()),
        bits_info=fg.layout.num_info,
        bit_errors_info=int(np.count_nonzero(erased[fg.layout.info_wire_array])),
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
    decoded at once, over at most min(``jobs``, CPU count) worker
    processes; statistics are invariant to batching and ``jobs``.
    """
    size = max(1, BATCH_WIRES // config.ensemble.n)
    batches = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    workers = min(config.jobs, len(batches), os.cpu_count() or 1)
    if workers > 1:
        # The pool's module costs about half of this module's import time,
        # so only a campaign that uses it imports it.
        from concurrent.futures import ProcessPoolExecutor

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
    inst = build_instances(seed, [0], dist, EnsembleSpec("uniform", n))
    if inst.insufficient:
        raise ValueError("drawn past state lacks free wires; use a larger n or another seed")
    received = bec_transmit(inst.word, eps, inst.rngs[0])
    result = bp_decode(received, inst.fg, max_outer=iterations, record_trace=True,
                       extract_payload=False)
    empirical = list(result.x_ecc_trace or ())
    model = DeModel.for_code(dist, r_ecc)
    states, _ = de_trajectory(eps, model, max_iter=iterations)
    predicted = [s.x_ecc for s in states]
    empirical += [empirical[-1] if empirical else 0.0] * (iterations - len(empirical))
    predicted += [predicted[-1] if predicted else 0.0] * (iterations - len(predicted))
    return [(t + 1, empirical[t], predicted[t]) for t in range(iterations)]
