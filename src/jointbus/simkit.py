"""Erasure channel, past-state ensembles, and the Monte-Carlo trial engine.

Each trial draws a fresh past state, builds a code instance sized to it,
sends one bus word through the erasure channel, and decodes. Trials are
keyed by (seed, trial index) through a counter-based generator, so results
are reproducible and independent of execution order, batching or
parallelism. Short trials run in batches: their instances are laid side by
side as one disjoint union and decoded by a single decoder call. A sweep
builds each batch once, channel draws included, and decodes it at every
erasure probability of its grid.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, fields
from functools import cache, reduce
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .buscore import (BitsLike, BusState, as_bits, fib, _check_int, _free_wire_counts,
                      _run_bounds, _stable_argsort, _state_from_runs)
from .bpdecode import ErasureWord, FactorGraph, build_factor_graph, _erase, _propagate
from .cac import _encode_segments, _payload_bits
from .densevo import DeModel, de_trajectory, _check_eps
from .ira import (DegreeDistribution, _check_graph_size, _permutation_size, _sample_graphs,
                  rate_ldpc, recc_from_rldpc)
from .jointcode import _complete_word, _layout_from_runs, _stride_layout

__all__ = [
    "EnsembleSpec",
    "SimConfig",
    "TrialStats",
    "CodeInstances",
    "build_instances",
    "bec_transmit",
    "gen_past_uniform",
    "run_sweep",
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
        _check_int("ensemble length n", self.n, 1)


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
        _check_eps(self.eps)
        _check_int("trials", self.trials, 1)
        _check_mode(self.mode)
        _check_int("jobs", self.jobs, 1)
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


def _check_key_word(name: str, value: object) -> None:
    """A seed or trial index: one uint64 word of a trial stream's key."""
    _check_int(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def _check_trial_indices(trials: tuple) -> None:
    """Refuse a batch in which any trial index is not a key word, naming
    the first such index. Python ints in range pass in one sweep; anything
    else is checked index by index."""
    if not (set(map(type, trials)) <= {int} and min(trials) >= 0 and max(trials) < 2**64):
        for t in trials:
            _check_key_word("trial index", t)


def _trial_state(seed: int, trial_index: int) -> dict:
    """The state a trial stream starts from: Philox with counter 0, key
    [seed, trial_index] and an empty buffer, which also drops the half
    uint32 a draw before it may have left behind."""
    return {"bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (seed, trial_index)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream for one trial: Philox with counter 0 and key
    [seed, trial_index], set as the state of a Philox built from a fixed
    seed (no OS entropy is read); ``build_instances`` sets its one
    generator to this state for each trial. Streams never overlap across
    trial indices, so any execution order gives identical statistics. Seed
    and trial index must be integers in [0, 2**64)."""
    _check_key_word("seed", seed)
    _check_key_word("trial index", trial_index)
    bitgen = np.random.Philox(0)
    bitgen.state = _trial_state(seed, trial_index)
    return np.random.Generator(bitgen)


def bec_transmit(b: BitsLike, eps: float, rng: np.random.Generator) -> ErasureWord:
    """Erase each symbol independently with probability eps; never flips."""
    _check_eps(eps)
    bits = as_bits(b)
    return ErasureWord(_erase(bits, rng.random(bits.size) < eps))


def gen_past_uniform(n: int, rng: np.random.Generator) -> BusState:
    """Past state with independent fair bits."""
    _check_int("n", n, 1)
    return BusState(rng.integers(0, 2, n, dtype=np.uint8))


def _draw_uniform_pasts(bitgen: np.random.Philox, seed: int, trials: Sequence[int],
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass 1 of a uniform-ensemble batch: the bits
    ``gen_past_uniform(n, trial_rng(seed, t))`` draws for each trial t, as
    the rows of one (len(trials), n) uint8 array, and the last Philox block
    each trial reads, as the rows of a (len(trials), 4) uint64 array.

    ``integers(0, 2, n, dtype=np.uint8)`` reads ceil(n/4) uint32 words, two
    to a uint64 draw, low half first, and returns the top bit of each of
    their bytes, lowest first: the top bits of the bytes of the uint64
    draws read as little-endian '<u8'. Each trial reads its whole blocks
    with one ``random_raw`` call into its row, and one shift of the whole
    batch gives every past state. ``bitgen`` is left past the last trial's
    blocks: ``_uniform_past_states`` gives the state each draw leaves.
    """
    blocks = -(-n // 32)  # a block is 4 uint64 draws: 32 bytes, one bit each
    raw = np.empty((len(trials), 4 * blocks), dtype=np.uint64)
    for row, t in zip(raw, trials):
        bitgen.state = _trial_state(seed, t)
        row[:] = bitgen.random_raw(4 * blocks)
    return np.right_shift(raw.astype("<u8", copy=False).view(np.uint8)[:, :n], 7), raw[:, -4:]


def _uniform_past_states(seed: int, trials: Sequence[int], last_blocks: np.ndarray,
                         n: int) -> Iterator[dict]:
    """Pass 2's start: for each trial t, with the last block of its pass 1
    draw as its row of the (len(trials), 4) uint64 array ``last_blocks``,
    the state ``gen_past_uniform(n, trial_rng(seed, t))`` leaves its
    stream in. That is ceil(n/32) blocks drawn, the last one read up to
    draw ceil(n/8), and, after an odd count of uint32 words, the upper
    half of that draw buffered. ``integers`` leaves the last upper half it
    read in ``uinteger`` even when it buffers none; no draw reads it."""
    blocks, draws = -(-n // 32), -(-n // 8)
    pos = draws - 4 * (blocks - 1)
    odd = -(-n // 4) & 1  # an odd count of uint32 words
    for t, last in zip(trials, last_blocks.tolist()):
        yield {"bit_generator": "Philox",
               "state": {"counter": (blocks, 0, 0, 0), "key": (seed, t)},
               "buffer": last, "buffer_pos": pos, "has_uint32": odd,
               "uinteger": last[pos - 1] >> 32 if odd else 0}


@cache
def _transition_odds(longest: int) -> np.ndarray:
    """For uniform sampling of valid run continuations in transition space
    (strings with no two adjacent transitions): with r positions left,
    r = 1..``longest``, P(transition here) = F(r) / F(r+2). Read-only: every
    batch whose longest run has this length shares it."""
    odds = np.array([0.0] + [fib(r) / fib(r + 2) for r in range(1, longest + 1)])
    odds.setflags(write=False)
    return odds


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
    c = uw < _transition_odds(longest)[left]
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


# Wires decoded together: run_sweep batches max(1, BATCH_WIRES // N) trials,
# so the fixed cost of each numpy call in the decoder is shared by many
# short trials, while a bus this wide or wider runs one trial at a time. A
# batch is built once and decoded at every eps of a sweep, so one batch,
# with its channel draws, is what a worker holds. Measured on a 2-vCPU
# Xeon: at 10,000 a 100-trial point at N = 100 is one union, 1.3x the
# trials per second of 4096 (three unions); N = 10^4 stays alone, since
# unions of 4 or 8 such trials raised the benchmark's peak RSS by 15% or
# 29%; and fewer, larger batches at small N leave ``jobs`` fewer work units
# to share.
BATCH_WIRES = 10_000


@dataclass(frozen=True)
class CodeInstances:
    """The code instances of some trials, laid side by side as one
    disjoint union.

    Instance i is trial ``trials[i]`` on wires offsets[i]:offsets[i+1] of
    the decoding graph ``fg``: no segment of ``fg.layout`` crosses into the
    next instance, and ``fg.graph``, the disjoint union of the sampled
    graphs, restarts its parity chain at each instance, so the decoder
    treats the instances as independent. A single trial is the case of one
    instance, and with no trial kept ``fg`` is None and ``word`` and ``u``
    empty. ``word`` is the transmitted codeword, and ``u`` holds the
    channel draws: one uniform per wire (float64, in instance order), the
    last draws of each trial's stream. The erasure channel at eps erases
    the wires whose draw lies below eps, so one set of draws serves every
    eps of a sweep.
    """

    trials: tuple[int, ...]
    offsets: np.ndarray
    fg: Optional[FactorGraph]
    word: np.ndarray
    u: np.ndarray
    insufficient: int = 0  # trials dropped: a uniform past state short of free wires


def build_instances(
    seed: int,
    trials: Iterable[int],
    dist: DegreeDistribution,
    ensemble: EnsembleSpec,
    mode: str = "uniform-codeword",
) -> CodeInstances:
    """Code instances of the given trials: their decoding graph (past
    state, layout and graph), the transmitted word and the channel draws.

    Trial t draws from its own stream ``trial_rng(seed, t)``, in order: the
    past state from ``ensemble``, the graph, the word, then one channel
    uniform per wire. A code of ``dist`` needs round(N (1 - r_ecc))
    parities: a uniform-ensemble state with fewer free wires drops its
    trial (counted in ``insufficient``), and a modified-ensemble state,
    drawn for the rate r_ecc of ``dist``, brings its own parity wires.

    The word is drawn on the trial's own layout, the one it is decoded on.
    'uniform-codeword' draws it uniformly over the valid words of the
    layout's runs; 'info-bits' CAC-encodes a uniform payload of as many
    bits as the trial's own segments carry. Either way the parity slots
    then take their parities.

    The trial indices are checked before any draw. One generator serves
    the whole batch: it is set, for each trial in turn, to a state of that
    trial's stream. The streams are independent, so the order in which
    they are drawn leaves every value unchanged. A modified-ensemble trial
    draws in full before the next is keyed. The uniform ensemble draws in
    two passes: first every trial's past state, read from whole Philox
    blocks (``_draw_uniform_pasts``), and the count of its free wires, for
    the whole batch at once; then each kept trial, from the state its past
    draw left, draws its graph, its payload in 'info-bits' mode, and its
    word and channel uniforms into its row of one array, whose columns are
    the batch's word and channel draws. A dropped trial draws nothing past
    its past state. The rows of the kept trials are the union's past
    state, and N and their count fix its offsets and sizes.
    """
    trials = tuple(trials)
    if not trials:
        raise ValueError("at least one trial is required")
    _check_mode(mode)
    _check_key_word("seed", seed)
    _check_trial_indices(trials)
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    n = ensemble.n
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    codeword = mode == "uniform-codeword"
    # A kept trial shuffles its socket permutation as the range of the
    # sockets that the graph union numbers after those of the trials before
    # it (shuffled as intp: an int32 shuffle draws the same permutation,
    # slower).
    words = []  # the CAC-encoded words of 'info-bits' mode
    uniform = ensemble.kind == "uniform"
    if uniform:
        p = round(n * (1.0 - r_ecc))  # parities of a trial
        # Refused before anything is drawn and allocated.
        _check_graph_size([n - p] * len(trials), [p] * len(trials), dist)
        past, last_blocks = _draw_uniform_pasts(bitgen, seed, trials, n)
        keep = _free_wire_counts(past) >= p
        kept = tuple(itertools.compress(trials, keep.tolist()))
        k = len(kept)
        if not k:
            return _no_instances(len(trials))
        past, last_blocks = past[keep], last_blocks[keep]
        sockets = _permutation_size(n - p, p, dist)
        perm = np.arange(k * sockets)
        rows = np.empty((k, (1 + codeword) * n))  # each trial's word and channel draws
        for i, state in enumerate(_uniform_past_states(seed, kept, last_blocks, n)):
            bitgen.state = state
            rng.shuffle(perm[i * sockets:(i + 1) * sockets])
            if not codeword:
                x = past[i]
                starts, lengths = _run_bounds(x)
                segments = _stride_layout(n, starts, lengths, np.array([0, n]), p).segments
                payload = rng.integers(0, 2, _payload_bits(segments), dtype=np.uint8)
                words.append(_encode_segments(payload, x, segments))
            rng.random(out=rows[i])
        # The past states side by side, their runs cut at every word offset.
        offsets = np.arange(k + 1) * n
        a = past.reshape(-1)
        starts, lengths = _run_bounds(a, offsets[:-1])
        layout = _stride_layout(a.size, starts, lengths, offsets, p)
        num_info, num_parity = np.full(k, n - p), np.full(k, p)
    else:
        kept, pasts, parity_runs, num_parity, perms, tails = [], [], [], [], [], []
        offset = 0  # sockets of the trials drawn so far
        for t in trials:
            bitgen.state = _trial_state(seed, t)
            x, runs = _draw_modified(n, r_ecc, rng)
            q = int(np.count_nonzero(runs))
            # Sizes vary per trial, and are checked once drawn.
            trial_perm = np.arange(offset, offset + _permutation_size(x.size - q, q, dist))
            offset += trial_perm.size
            parity_runs.append(runs)
            perms.append(trial_perm)
            pasts.append(x)
            num_parity.append(q)
            kept.append(t)
            rng.shuffle(trial_perm)
            if not codeword:
                starts, lengths = _run_bounds(x)
                segments = _layout_from_runs(x.size, starts, lengths, runs).segments
                payload = rng.integers(0, 2, _payload_bits(segments), dtype=np.uint8)
                words.append(_encode_segments(payload, x, segments))
            # its word's uniforms in 'uniform-codeword' mode, then its channel's
            tails.append(rng.random((1 + codeword) * x.size))
        kept = tuple(kept)
        offsets = np.cumsum([0] + [x.size for x in pasts])
        a = np.concatenate(pasts)
        starts, lengths = _run_bounds(a, offsets[:-1])
        layout = _layout_from_runs(a.size, starts, lengths, np.concatenate(parity_runs))
        num_parity = np.array(num_parity)
        num_info = np.diff(offsets) - num_parity
        perm = np.concatenate(perms)
        del perms, trial_perm
    graph = _sample_graphs(num_info, num_parity, dist, perm)
    del perm
    if codeword:
        heads = (rows[:, :n].reshape(-1) if uniform
                 else np.concatenate([tail[:x.size] for tail, x in zip(tails, pasts)]))
        word_runs = np.diff(np.searchsorted(starts, offsets))
        word = _valid_word(a, starts, lengths, heads,
                           np.repeat(np.arange(word_runs.size), word_runs))
    else:
        word = np.concatenate(words)
    u = (rows[:, -n:].flatten() if uniform
         else np.concatenate([tail[-x.size:] for tail, x in zip(tails, pasts)]))
    _complete_word(word, a, layout, graph)
    return CodeInstances(trials=kept, offsets=offsets,
                         fg=build_factor_graph(a, graph, layout), word=word, u=u,
                         insufficient=len(trials) - len(kept))


def _no_instances(insufficient: int) -> CodeInstances:
    """The instances of a batch that kept no trial."""
    empty = np.zeros(0)
    return CodeInstances((), np.zeros(1, dtype=np.int64), None, empty.astype(np.uint8), empty,
                         insufficient)


def _run_batch(config: SimConfig, eps: list[float], trials: range) -> list[TrialStats]:
    """Counts of one batch of trials at each point of ``eps``: the batch is
    built once and decoded, as one disjoint union, at every point.

    With the channel draws shared, the erased wires at a lower eps are a
    subset of those at a higher one, and BP on the erasure channel is
    monotone under that degradation (Richardson and Urbanke, Modern Coding
    Theory, 2008, ch. 3): the wires a decode leaves unresolved at its fixed
    point contain those of every decode at a lower eps. The points are
    decoded in ascending eps, and a break of that nesting raises, as a
    decoded bit that differs from the transmitted word does.
    """
    n = config.ensemble.n
    inst = build_instances(config.seed, trials, config.dist, config.ensemble, config.mode)
    k = inst.insufficient
    dropped = TrialStats(trials=k, bits_code=k * n, bit_errors_code=k * n, block_errors=k,
                         insufficient_free_wire_events=k, rng_seed=config.seed)
    if not inst.trials:
        return [dropped] * len(eps)
    fg = inst.fg
    out: list[TrialStats] = [dropped] * len(eps)
    below = None  # the wires left unresolved by the last decode
    for i in sorted(range(len(eps)), key=eps.__getitem__):
        dec = _propagate(_erase(inst.word, inst.u < eps[i]), fg)
        if ((dec.val ^ inst.word) & dec.resolved).any():
            raise RuntimeError("decoder emitted a bit that differs from the transmitted word")
        if below is not None and np.any(below & dec.resolved):
            wire = int(np.flatnonzero(below & dec.resolved)[0])
            raise RuntimeError(
                f"decoder resolved wire {wire} at eps {eps[i]} but not at a lower eps "
                "on the same channel draws: unresolved wires must nest")
        erased = below = ~dec.resolved
        residual = np.add.reduceat(erased, inst.offsets[:-1], dtype=np.int64)  # per instance
        out[i] = dropped.add(TrialStats(
            trials=residual.size,
            bits_code=fg.n,
            bit_errors_code=int(residual.sum()),
            bits_info=fg.layout.num_info,
            bit_errors_info=int(np.count_nonzero(erased[fg.layout.info_wire_array])),
            block_errors=int(np.count_nonzero(residual)),
            rng_seed=config.seed,
        ))
    return out


def run_sweep(config: SimConfig, eps: Sequence[float]) -> list[TrialStats]:
    """``run_trials`` at every point of ``eps``, in the order given: each
    point's counts are those of ``replace(config, eps=point)``, and
    ``config.eps`` itself is not read.

    Every batch of trials is built once and decoded at every point: a
    trial's instance and channel draws do not depend on eps. The batches
    are the work units of the ``jobs`` worker processes. Within a batch the
    residual erasures must nest across eps, or ``RuntimeError`` is raised.
    """
    eps = [float(x) for x in eps]
    if not eps:
        raise ValueError("at least one eps point is required")
    for x in eps:
        _check_eps(x)
    size = max(1, BATCH_WIRES // config.ensemble.n)
    batches = [range(lo, min(lo + size, config.trials)) for lo in range(0, config.trials, size)]
    workers = 1 if config.jobs == 1 else min(config.jobs, len(batches), os.cpu_count() or 1)
    if workers > 1:
        # The pool's module costs about half of this module's import time,
        # so only a campaign that uses it imports it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_batch, [config] * len(batches), [eps] * len(batches),
                                  batches, chunksize=-(-len(batches) // (workers * 4))))
    else:
        parts = [_run_batch(config, eps, batch) for batch in batches]
    return [reduce(TrialStats.add, point, TrialStats(rng_seed=config.seed))
            for point in zip(*parts)]


def run_trials(config: SimConfig) -> TrialStats:
    """Run the configured Monte-Carlo campaign and aggregate counts.

    A trial whose past state lacks enough free wires for the required
    parities is declared a block error without decoding; its code bits all
    count as errors, and it is tallied separately so alternative accounting
    can be recomputed. Payload-bit counts skip such trials (no layout
    exists). Trials run in batches of max(1, BATCH_WIRES // N), each
    decoded at once, over at most min(``jobs``, CPU count) worker
    processes; statistics are invariant to batching and ``jobs``. This is
    ``run_sweep`` at the one point ``config.eps``.
    """
    return run_sweep(config, [config.eps])[0]


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
    _check_int("iterations", iterations, 1)
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    # The recursion first: it refuses an eps outside [0, 1] before a decode.
    states, _ = de_trajectory(eps, DeModel.for_code(dist, r_ecc), max_iter=iterations)
    predicted = [s.x_ecc for s in states]
    inst = build_instances(seed, [0], dist, EnsembleSpec("uniform", n))
    if inst.insufficient:
        raise ValueError("drawn past state lacks free wires; use a larger n or another seed")
    empirical = _propagate(_erase(inst.word, inst.u < eps), inst.fg, iterations).trace
    empirical += [empirical[-1]] * (iterations - len(empirical))
    predicted += [predicted[-1] if predicted else 0.0] * (iterations - len(predicted))
    return [(t + 1, empirical[t], predicted[t]) for t in range(iterations)]
