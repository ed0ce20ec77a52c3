import concurrent.futures
import dataclasses
import hashlib
import re
import time
from functools import reduce

import numpy as np
import pytest

from jointbus import (
    ERASED,
    CodeInstances,
    DegreeDistribution,
    EnsembleSpec,
    IraGraph,
    SimConfig,
    TrialStats,
    WireLayout,
    bec_transmit,
    build_factor_graph,
    build_instances,
    bp_decode,
    build_layout,
    check_transition,
    de_vs_simulation,
    gen_past_uniform,
    parse_runs,
    run_trials,
    sample_graph,
    trial_rng,
    validate_checks,
)
from jointbus import simkit
from jointbus.simkit import (BATCH_WIRES, _draw_modified, _run_batch, _sample_run_length,
                             _valid_word)
from jointbus.buscore import _run_bounds, fib
from jointbus.cac import _payload_bits
from jointbus.jointcode import _complete_word

from helpers import disjoint_union, sequential_valid_word, trial_instance, valid_words

DIST = DegreeDistribution.regular(3, 12)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("trial", [0, 1, 2**32 + 5])
def test_trial_rng_is_the_philox_stream_of_its_key(seed, trial):
    # the stream is Philox keyed [seed, trial] with counter 0: every pinned
    # CSV, codec word and fingerprint rests on it
    ours = trial_rng(seed, trial)
    ref = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    np.testing.assert_equal(ours.bit_generator.state, ref.bit_generator.state)
    # the draws the engine makes, in one interleaved order
    def draws(rng):
        bits = rng.integers(0, 2, 37, dtype=np.uint8)
        block = np.arange(50)
        rng.shuffle(block[5:40])
        return [bits, block, rng.random(23), rng.geometric(0.5, 11), rng.integers(0, 2)]

    np.testing.assert_equal(draws(ours), draws(ref))
    np.testing.assert_equal(ours.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_trial_rng_rejects_keys_outside_64_bits(seed, trial):
    # no key word wraps around onto another stream
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        trial_rng(seed, trial)


@pytest.mark.parametrize("seed, trials", [(2, (0, 5)), (2**64 - 1, (2**64 - 1, 0))])
def test_uniform_past_passes_are_the_integers_draw(seed, trials):
    # pass 1's past bits, read from whole Philox blocks, are those of
    # rng.integers, and pass 2 sets each trial's stream as it leaves it:
    # one bit per byte, so n = 1..70 ends a draw at every position in a
    # uint32 word, a uint64 and a 32-byte block, and 10^4 + 1 reads an odd
    # count of uint32 words over many blocks
    bitgen = np.random.Philox(0)
    for n in [*range(1, 71), 10**4 + 1]:
        past, last_blocks = simkit._draw_uniform_pasts(bitgen, seed, trials, n)
        assert past.shape == (len(trials), n) and past.dtype == np.uint8
        states = simkit._uniform_past_states(seed, trials, last_blocks, n)
        for t, bits, state in zip(trials, past, states, strict=True):
            ref = trial_rng(seed, t)
            assert np.array_equal(bits, ref.integers(0, 2, n, dtype=np.uint8)), n
            bitgen.state = state
            ours, theirs = bitgen.state, ref.bit_generator.state
            if not theirs["has_uint32"]:
                # integers leaves the last upper half it read, which no draw reads
                theirs["uinteger"] = ours["uinteger"]
            np.testing.assert_equal(ours, theirs, err_msg=f"n = {n}")
            rng = np.random.Generator(bitgen)
            for draw in (lambda r: r.integers(0, 2**32, dtype=np.uint32),
                         lambda r: r.integers(0, 2**64, dtype=np.uint64),
                         lambda r: r.random(), lambda r: r.permutation(240)):
                np.testing.assert_equal(draw(rng), draw(ref), err_msg=f"n = {n}")


def _config(**fields):
    base = dict(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.1, trials=2, seed=1)
    return SimConfig(**{**base, **fields})


@pytest.mark.parametrize("make, field", [
    (lambda: trial_rng(1.5, 0), "seed"),
    (lambda: trial_rng(True, 0), "seed"),
    (lambda: trial_rng(1, 2.0), "trial index"),
    (lambda: trial_rng(1, np.True_), "trial index"),
    (lambda: _config(seed=1.5), "seed"),
    (lambda: _config(seed=np.float64(1)), "seed"),
    (lambda: _config(trials=2.5), "trials"),
    (lambda: _config(trials=True), "trials"),
    (lambda: _config(jobs=2.0), "jobs"),
    (lambda: EnsembleSpec("uniform", 100.0), "ensemble length n"),
    (lambda: EnsembleSpec("uniform", True), "ensemble length n"),
    (lambda: build_instances(0.5, [0], DIST, EnsembleSpec("uniform", 100)), "seed"),
    (lambda: build_instances(0, [1.0], DIST, EnsembleSpec("uniform", 100)), "trial index"),
])
def test_integer_fields_refuse_other_numbers(make, field):
    # a float or a bool would run as the integer it truncates to: seed 1.5
    # drew seed 1's trials and reported rng_seed 1.5
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        make()


@pytest.mark.parametrize("kind", ["uniform", "modified"])
@pytest.mark.parametrize("bad, message", [
    (1.5, "must be an integer, got 1.5"),
    (True, "must be an integer, got True"),
    (-1, r"must lie in \[0, 2\*\*64\), got -1$"),
    (2**64, r"must lie in \[0, 2\*\*64\), got 18446744073709551616$"),
])
@pytest.mark.parametrize("at", [2, 3], ids=["middle", "end"])
def test_build_instances_checks_every_trial_index_before_any_draw(monkeypatch, kind, bad,
                                                                  message, at):
    # the whole batch is checked before the first trial's stream is set,
    # and the error names the bad index as a one-trial batch would
    def no_draw(seed, trial_index):
        raise AssertionError("a trial stream was set before the indices were checked")

    trials = [0, 1, 2]
    trials.insert(at, bad)
    monkeypatch.setattr(simkit, "_trial_state", no_draw)
    with pytest.raises(ValueError, match="^trial index " + message):
        build_instances(3, trials, DIST, EnsembleSpec(kind, 100))


def test_integer_fields_take_numpy_integers():
    assert trial_rng(np.uint64(3), np.int32(2)).random() == trial_rng(3, 2).random()
    config = _config(trials=np.int64(3), seed=np.uint64(5), jobs=np.int8(1),
                     ensemble=EnsembleSpec("uniform", np.int64(100)))
    assert run_trials(config) == run_trials(_config(trials=3, seed=5))


def test_bec_transmit_extremes():
    rng = trial_rng(0, 0)
    bits = rng.integers(0, 2, 64, dtype=np.uint8)
    assert np.array_equal(bec_transmit(bits, 0.0, rng).symbols, bits)
    assert np.all(bec_transmit(bits, 1.0, rng).symbols == ERASED)
    with pytest.raises(ValueError):
        bec_transmit(bits, 1.5, rng)


def test_bec_transmit_fraction():
    rng = trial_rng(1, 0)
    bits = np.zeros(1_000_000, dtype=np.uint8)
    frac = bec_transmit(bits, 0.3, rng).num_erased / bits.size
    sigma = np.sqrt(0.3 * 0.7 / bits.size)
    assert abs(frac - 0.3) < 3 * sigma


def test_gen_past_uniform_reproducible():
    a = gen_past_uniform(100, trial_rng(7, 3))
    b = gen_past_uniform(100, trial_rng(7, 3))
    assert a == b


def test_gen_past_uniform_free_wire_count():
    a = gen_past_uniform(100_000, trial_rng(5, 0))
    free = len(parse_runs(a).free_wires)
    expect = 100_000 / 4
    sigma = np.sqrt(expect)
    assert abs(free - expect) < 3 * sigma + 3


def one_word(starts):
    """``word_of_run`` of a single word: every run belongs to word 0."""
    return np.zeros(starts.size, dtype=np.int64)


def test_sample_valid_word_uniform_per_run():
    # empirical distribution over one run of length 3 matches the uniform
    # law over its five valid continuations
    a = np.array([0, 1, 0], dtype=np.uint8)
    starts, lengths = _run_bounds(a)
    rng = trial_rng(11, 0)
    counts = {}
    trials = 20_000
    for _ in range(trials):
        w = tuple(_valid_word(a, starts, lengths, rng.random(a.size), one_word(starts)))
        counts[w] = counts.get(w, 0) + 1
    expected = {tuple(w) for w in valid_words(a)}
    assert set(counts) == expected
    for k, c in counts.items():
        assert abs(c - trials / 5) < 4 * np.sqrt(trials * 0.2 * 0.8)


def test_sample_valid_word_never_violates():
    rng = trial_rng(13, 0)
    for _ in range(200):
        a = rng.integers(0, 2, 512, dtype=np.uint8)
        starts, lengths = _run_bounds(a)
        w = _valid_word(a, starts, lengths, rng.random(a.size), one_word(starts))
        t = w ^ a
        assert not np.any((a[:-1] != a[1:]) & (t[:-1] == 1) & (t[1:] == 1))


def test_sample_valid_word_matches_sequential_sampler():
    # one draw per wire, consumed in the sequential sampler's order
    rng = np.random.default_rng(29)
    for seed in range(300):
        a = rng.integers(0, 2, int(rng.integers(1, 120)), dtype=np.uint8)
        starts, lengths = _run_bounds(a)
        u = trial_rng(seed, 1).random(a.size)
        fast = _valid_word(a, starts, lengths, u, one_word(starts))
        slow = sequential_valid_word(a, starts, lengths, trial_rng(seed, 1))
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("words, run", [(3, 40), (257, 256)])
def test_sample_valid_word_batch_matches_sequential_sampler(words, run):
    # the draws of a batch are sorted by (word, position in run), keys
    # below words * longest run: as uint16 keys when that fits 16 bits, as
    # int64 keys past it (the second case); either way each word consumes
    # its own draws as the sequential sampler does
    rng = np.random.default_rng(31)
    pasts = [np.concatenate((rng.integers(0, 2, 20), np.arange(run) % 2,
                             rng.integers(0, 2, 20))).astype(np.uint8) for _ in range(words)]
    offsets = np.cumsum([0] + [x.size for x in pasts])
    a = np.concatenate(pasts)
    starts, lengths = _run_bounds(a, offsets[:-1])
    word_of_run = np.searchsorted(offsets, starts, side="right") - 1
    assert (words * int(lengths.max()) > 1 << 16) == (words > 3)
    u = np.concatenate([trial_rng(k, 1).random(x.size) for k, x in enumerate(pasts)])
    fast = _valid_word(a, starts, lengths, u, word_of_run)
    slow = [sequential_valid_word(x, *_run_bounds(x), trial_rng(k, 1))
            for k, x in enumerate(pasts)]
    assert np.array_equal(fast, np.concatenate(slow))


def test_transition_odds_are_whole_under_two_threads(monkeypatch):
    # two threads build the odds of one new run length at once, each
    # sleeping in every Fibonacci number, so each yields the GIL to the
    # other mid-build; a table grown in place took F(1)/F(3) twice this way,
    # and every longer run then read the odds of a run one wire shorter:
    # valid words, no longer uniform, and no error
    ensemble = EnsembleSpec("uniform", 100)
    alone = [trial_instance(2, t, DIST, ensemble, "uniform-codeword") for t in range(12)]
    alone = [x for x in alone if x is not None]
    longest = max(int(_run_bounds(x[0])[1].max()) for x in alone)
    expect = np.array([0.0] + [fib(r) / fib(r + 2) for r in range(1, longest + 1)])

    def yielding_fib(r):
        time.sleep(1e-3)
        return fib(r)

    simkit._transition_odds.cache_clear()
    monkeypatch.setattr(simkit, "fib", yielding_fib)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        tables = list(pool.map(simkit._transition_odds, [longest] * 2))
    monkeypatch.undo()
    for table in tables:
        assert np.array_equal(table, expect)
    # the batch's longest run reads the table the threads built
    inst = build_instances(2, range(12), DIST, ensemble)
    assert np.array_equal(inst.word, np.concatenate([x[3] for x in alone]))


def test_build_instances_one_trial_keeps_the_sampled_graph():
    # a batch of one goes through no union copy: its graph holds the edges
    # that sample_graph drew, the socket array itself on the check side
    inst = build_instances(4, [9], DIST, EnsembleSpec("uniform", 1000))
    rng = trial_rng(4, 9)
    rng.integers(0, 2, 1000, dtype=np.uint8)
    graph = sample_graph(inst.fg.layout.num_info, inst.fg.layout.num_parity, DIST, rng)
    assert inst.fg.graph.edge_check is graph.edge_check
    assert np.array_equal(inst.fg.graph.edge_info, graph.edge_info)


def test_modified_run_length_law():
    rng = trial_rng(17, 0)
    lengths = _sample_run_length(200_000, 0.8, rng)
    p1 = np.count_nonzero(lengths == 1) / lengths.size
    sigma = np.sqrt((1 / 6) * (5 / 6) / lengths.size)
    assert abs(p1 - 1 / 6) < 4 * sigma
    p3 = np.count_nonzero(lengths == 3) / lengths.size
    expect3 = 2.0 ** -3 / 0.6
    assert abs(p3 - expect3) < 4 * np.sqrt(expect3 / lengths.size)


@pytest.mark.parametrize("r_ecc", [0.76, 0.8, 0.95, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 10_000])
def test_draw_modified_bits_parse_into_the_drawn_runs(n, r_ecc):
    # the runs are replayed from a second stream of the same key: their
    # lengths, in drawn order, must be exactly the runs the bits parse into
    for seed in range(40 if n < 10_000 else 10):
        bits, parity_runs = _draw_modified(n, r_ecc, trial_rng(seed, 5))
        rng = trial_rng(seed, 5)
        n1 = max(1, round(n * (r_ecc - 0.5)))
        lengths1 = _sample_run_length(n1, r_ecc, rng)
        n2 = round(int(lengths1.sum()) * (1.0 - r_ecc) / r_ecc)
        perm = rng.permutation(n1 + n2)
        drawn = np.concatenate((lengths1, np.ones(n2, dtype=np.int64)))[perm]
        _, lengths = _run_bounds(bits)
        assert np.array_equal(lengths, drawn)
        assert np.array_equal(parity_runs, perm >= n1)
        assert np.all(lengths[parity_runs] == 1)
        assert bits[0] == rng.integers(0, 2)


def test_draw_modified_lengths():
    bits, parity_runs = _draw_modified(100_000, 0.8, trial_rng(19, 0))
    n = bits.size
    assert abs(n - 100_000) < 5 * np.sqrt(100_000)
    _, lengths = _run_bounds(bits)
    ell1 = int(lengths[~parity_runs].sum())
    assert abs(ell1 - 0.8 * n) < 5 * np.sqrt(n)
    # parity runs are length-one runs, free wires, of the realized state
    assert np.all(lengths[parity_runs] == 1)


def test_modified_matches_uniform_run_statistics():
    uniform = gen_past_uniform(100_000, trial_rng(23, 0))
    modified, _ = _draw_modified(100_000, 0.8, trial_rng(23, 1))
    lu = np.array(parse_runs(uniform).run_lengths)
    lm = np.array(parse_runs(modified).run_lengths)
    for d in range(1, 9):
        cu = np.count_nonzero(lu == d) / len(uniform)
        cm = np.count_nonzero(lm == d) / modified.size
        sigma = np.sqrt(2.0 ** (-d - 1) / 100_000)
        assert abs(cu - cm) < 4 * sigma + 1e-4


def test_run_trials_reproducible_and_parallel_invariant():
    cfg = SimConfig(ensemble=EnsembleSpec("uniform", 60), dist=DIST, eps=0.2,
                    trials=64, seed=99)
    s1 = run_trials(cfg)
    s2 = run_trials(cfg)
    assert s1 == s2
    s3 = run_trials(SimConfig(ensemble=cfg.ensemble, dist=DIST, eps=0.2,
                              trials=64, seed=99, jobs=2))
    assert s1 == s3


ENSEMBLES = [EnsembleSpec("uniform", 100), EnsembleSpec("modified", 100)]
MODES = ["uniform-codeword", "info-bits"]


def _drawn_payload(seed, trial, inst, ensemble):
    """The payload an info-bits trial draws: its stream replayed past its
    past state and its graph, sized by its own segments."""
    rng = trial_rng(seed, trial)
    if ensemble.kind == "uniform":
        gen_past_uniform(ensemble.n, rng)
    else:
        _draw_modified(ensemble.n, 0.8, rng)
    sample_graph(inst.fg.layout.num_info, inst.fg.layout.num_parity, DIST, rng)
    return rng.integers(0, 2, _payload_bits(inst.fg.layout.segments), dtype=np.uint8)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=["uniform", "modified"])
@pytest.mark.parametrize("mode", MODES)
def test_build_instances_batch_is_union_of_single_trials(ensemble, mode):
    batch = build_instances(2, range(12), DIST, ensemble=ensemble, mode=mode)
    # 200 trials: enough for a modified-ensemble word whose payload index
    # leaves the range of a wrongly sized payload to show
    singles = [build_instances(2, [t], DIST, ensemble=ensemble, mode=mode) for t in range(200)]
    kept = [inst for inst in singles[:12] if inst.trials]
    assert batch.trials == tuple(t for inst in kept for t in inst.trials)
    assert batch.insufficient == sum(inst.insufficient for inst in singles[:12])
    assert batch.insufficient == (3 if ensemble.kind == "uniform" else 0)
    a, layout, graph = disjoint_union([(inst.fg.a_bits, inst.fg.layout, inst.fg.graph)
                                       for inst in kept])
    assert np.array_equal(batch.fg.a_bits, a)
    assert batch.fg.layout == layout
    assert np.array_equal(batch.fg.graph.edge_info, graph.edge_info)
    assert np.array_equal(batch.fg.graph.edge_check, graph.edge_check)
    assert np.array_equal(batch.fg.graph.chain_start, graph.chain_start)
    assert np.array_equal(batch.word, np.concatenate([inst.word for inst in kept]))
    for t, inst in enumerate(singles):
        if not inst.trials:
            assert inst.fg is None and inst.word.size == 0
            continue
        fg = inst.fg
        assert check_transition(fg.a_bits, inst.word).ok
        assert validate_checks(inst.word[fg.layout.info_wire_array],
                               inst.word[fg.layout.parity_slot_array], fg.graph)
        if ensemble.kind == "uniform":
            assert fg.layout == build_layout(fg.a_bits, fg.layout.num_parity)
        # the noiseless word decodes on the layout it was drawn on
        result = bp_decode(inst.word, fg)
        if mode == "info-bits":
            assert result.violation is None, (t, result.violation)
            assert np.array_equal(result.info_bits, _drawn_payload(2, t, inst, ensemble))
        else:
            # a uniform valid word may index past the payload range, but it
            # breaks no crosstalk pair or parity check
            assert (result.violation is None
                    or "falls outside the used range" in result.violation), t


@pytest.mark.parametrize("n", [1, 2, 5, 8, 32, 33, 100, 10**4 + 1])
@pytest.mark.parametrize("kind", ["uniform", "modified"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed, trials", [(2, range(12)), (2**64 - 1, range(2**64 - 6, 2**64)),
                                           (2, (11, 3, 40, 3, 0, 2**64 - 1, 7)),
                                           (2, (20, 2, 5, 2))],
                         ids=["low", "top", "unsorted", "dropped"])
def test_build_instances_is_each_trial_built_alone(n, kind, mode, seed, trials):
    # the batch builder keys one generator per trial; its instances, words
    # and channel draws are those of each trial built alone from a fresh
    # trial_rng(seed, t) by the slow path, dropped trials included (uniform
    # N = 5 and 100 drop some, and N = 5 drops every trial of "dropped") and
    # at trial indices up to 2**64 - 1, in any order, with gaps and repeats.
    # A uniform past draw of N wires reads ceil(N/4) uint32 words: an even
    # count at N = 8, one whole Philox block at N = 32, and an odd count at
    # N = 33, 100 and 10^4 + 1, which leaves half a uint32 buffered for the
    # trial's next draw but not for the next trial; at N = 1 and 2 a uniform
    # trial has no parity, and N = 1 is one free wire
    ensemble = EnsembleSpec(kind, n)
    inst = build_instances(seed, trials, DIST, ensemble, mode)
    alone = {t: trial_instance(seed, t, DIST, ensemble, mode) for t in trials}
    kept = [t for t in trials if alone[t] is not None]
    assert inst.trials == tuple(kept)
    assert inst.insufficient == len(trials) - len(kept)
    if (kind, n, trials) == ("uniform", 5, (20, 2, 5, 2)):
        assert not kept
    if not kept:
        assert inst.fg is None and inst.word.size == 0 and inst.u.size == 0
        return
    a, layout, graph = disjoint_union([alone[t][:3] for t in kept])
    assert np.array_equal(inst.offsets, np.cumsum([0] + [alone[t][0].size for t in kept]))
    assert np.array_equal(inst.fg.a_bits, a)
    assert inst.fg.layout == layout
    assert np.array_equal(inst.fg.graph.edge_info, graph.edge_info)
    assert np.array_equal(inst.fg.graph.edge_check, graph.edge_check)
    assert np.array_equal(inst.fg.graph.chain_start, graph.chain_start)
    assert np.array_equal(inst.word, np.concatenate([alone[t][3] for t in kept]))
    assert inst.u.dtype == np.float64
    assert np.array_equal(inst.u, np.concatenate([alone[t][4] for t in kept]))
    if (kind, n) == ("uniform", 100):
        rng = trial_rng(seed, trials[0])
        gen_past_uniform(n, rng)
        assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=["uniform", "modified"])
@pytest.mark.parametrize("mode", MODES)
def test_run_trials_invariant_to_batching_and_jobs(ensemble, mode):
    size = max(1, BATCH_WIRES // ensemble.n)
    base = SimConfig(ensemble=ensemble, dist=DIST, eps=0.2, trials=size + 1, seed=21,
                     mode=mode)
    singles = [_run_batch(base, [0.2], range(t, t + 1))[0] for t in range(size + 1)]
    for trials in (size - 1, size, size + 1):
        expect = reduce(TrialStats.add, singles[:trials], TrialStats(rng_seed=21))
        for jobs in (1, 2):
            assert run_trials(dataclasses.replace(base, trials=trials, jobs=jobs)) == expect


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
def test_run_trials_caps_workers_at_cpu_count(monkeypatch, cpus, pools):
    # --jobs 5000 over 5 batches asks for no more workers than there are
    # CPUs, and for no pool on one CPU; the stand-in pool maps in-process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(simkit.os, "cpu_count", lambda: cpus)
    config = SimConfig(ensemble=EnsembleSpec("uniform", BATCH_WIRES), dist=DIST, eps=0.2,
                       trials=5, seed=3, jobs=5000)
    stats = run_trials(config)
    assert sizes == pools
    assert stats == run_trials(dataclasses.replace(config, jobs=1))


@pytest.mark.parametrize("value, field", [(0, "jobs"), (-3, "jobs"), (-1, "seed"),
                                          (2**64, "seed")])
def test_sim_config_rejects_out_of_range_jobs_and_seed(value, field):
    with pytest.raises(ValueError, match=field):
        SimConfig(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.1, trials=5,
                  **{"seed": 0, field: value})


def test_run_trials_insufficient_accounting():
    # tiny buses often lack free wires; those trials are block errors with
    # every code bit counted errored and no payload-bit accounting
    cfg = SimConfig(ensemble=EnsembleSpec("uniform", 10), dist=DIST, eps=0.0,
                    trials=300, seed=5)
    stats = run_trials(cfg)
    assert stats.insufficient_free_wire_events > 0
    assert stats.block_errors >= stats.insufficient_free_wire_events
    assert stats.bit_errors_code == stats.insufficient_free_wire_events * 10
    assert stats.pe == stats.insufficient_rate  # eps=0 decodes perfectly otherwise


def test_batch_with_no_usable_trial_has_no_factor_graph():
    # a 5-wire past short of free wires keeps no trial: no graph is built,
    # and the trial counts as one insufficient block error
    ensemble = EnsembleSpec("uniform", 5)
    inst = build_instances(8, range(1), DIST, ensemble)
    assert inst.trials == () and inst.insufficient == 1
    assert inst.fg is None and inst.word.size == 0
    stats = run_trials(SimConfig(ensemble=ensemble, dist=DIST, eps=0.1, trials=1, seed=8))
    assert stats == TrialStats(trials=1, bits_code=5, bit_errors_code=5, block_errors=1,
                               insufficient_free_wire_events=1, rng_seed=8)


def test_run_batch_refuses_a_decoded_bit_that_differs(monkeypatch):
    # the trial engine checks every resolved bit against the sent word
    engine = simkit._propagate

    def flip_one(symbols, fg, max_outer=None):
        dec = engine(symbols, fg, max_outer)
        val = dec.val.copy()
        val[dec.resolved.nonzero()[0][0]] ^= 1
        return dec._replace(val=val)

    monkeypatch.setattr(simkit, "_propagate", flip_one)
    config = SimConfig(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.1, trials=4,
                       seed=1)
    with pytest.raises(RuntimeError, match="differs from the transmitted word"):
        _run_batch(config, [0.1], range(4))


def test_run_batch_checks_that_residual_erasures_nest(monkeypatch):
    # the points of a batch are decoded in ascending eps on shared channel
    # draws: a decode at eps 0.1 stopped after one iteration leaves wires
    # unresolved that the full decode at 0.2 resolves. Every trial decode
    # runs to its fixed point, so the batch compares every decode and
    # refuses this one
    engine = simkit._propagate
    cut = []

    def stop_the_first(symbols, fg, max_outer=None):
        if cut:
            return engine(symbols, fg, max_outer)
        cut.append(engine(symbols, fg, 1))
        return cut[0]

    monkeypatch.setattr(simkit, "_propagate", stop_the_first)
    config = SimConfig(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.1, trials=100,
                       seed=1)
    with pytest.raises(RuntimeError, match="unresolved wires must nest"):
        _run_batch(config, [0.2, 0.1], range(100))


def _path_instance() -> CodeInstances:
    """One 600-wire instance whose decode takes 299 iterations: on an
    all-zero past, info wire i sits at wire 2i as its own segment, with a
    parity slot after it. Every parity starts its own chain, and check j
    joins info nodes j and j + 1 (check 299 none). Every wire but info
    nodes 1..299 draws 1, so at any eps in (0, 1] only info node 0 and the
    parities arrive, and each iteration resolves one more info node."""
    n = 600
    info = np.arange(0, n, 2)
    layout = WireLayout(n=n, parity_slot_array=np.arange(1, n, 2), pinned=(),
                        segments=np.column_stack((info, np.ones(300, dtype=np.int64))))
    check = np.arange(299).repeat(2)
    graph = IraGraph(300, 300, check + np.tile([0, 1], 299), check, np.ones(300, dtype=bool))
    a = np.zeros(n, dtype=np.uint8)
    word = np.zeros(n, dtype=np.uint8)
    word[info] = np.random.default_rng(0).integers(0, 2, 300)
    _complete_word(word, a, layout, graph)
    u = np.ones(n)
    u[info[1:]] = 0.0
    return CodeInstances(trials=(0,), offsets=np.array([0, n]),
                         fg=build_factor_graph(a, graph, layout), word=word, u=u)


def test_run_batch_and_bp_decode_run_past_two_hundred_iterations(monkeypatch):
    # no decode stops at a guessed limit: this one needs 299 iterations, and
    # bp_decode, like the trial engine, runs it to the sent word, so the
    # trial counts no error (a 200-iteration cut left 99 wires erased)
    inst = _path_instance()
    received = np.where(inst.u < 0.5, ERASED, inst.word)
    res = bp_decode(received, inst.fg)
    assert (res.iterations, res.residual_erasures) == (299, 0)
    assert np.array_equal(res.word.symbols, inst.word)
    monkeypatch.setattr(simkit, "build_instances", lambda *args: inst)
    config = SimConfig(ensemble=EnsembleSpec("uniform", 600), dist=DIST, eps=0.5, trials=1,
                       seed=1)
    assert _run_batch(config, [0.5], range(1)) == [
        TrialStats(trials=1, bits_code=600, bits_info=300, rng_seed=1)]
    dec = simkit._propagate(received, inst.fg)
    assert dec.iterations == 299
    assert np.array_equal(dec.val, inst.word)
    assert simkit._propagate(received, inst.fg, 200).resolved.sum() == 501


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=["uniform", "modified"])
def test_bp_decode_stops_where_the_trial_engine_stops(monkeypatch, ensemble):
    # one stop rule: on the unions the trials decode, bp_decode leaves
    # exactly the wires the engine leaves for _run_batch, after as many
    # iterations. The engine decodes the sent word erased where the channel
    # draw lies strictly below eps: the grid holds both ends and one eps
    # equal to a drawn u, whose wire arrives
    engine = simkit._propagate
    seen = []

    def record(symbols, fg, max_outer=None):
        seen.append((symbols, engine(symbols, fg, max_outer)))
        return seen[-1][1]

    monkeypatch.setattr(simkit, "_propagate", record)
    inst = build_instances(6, range(100), DIST, ensemble)
    drawn = float(inst.u[np.argmin(np.abs(inst.u - 0.2))])
    grid = [0.15, 0.22, 0.3, 0.0, 1.0, drawn]
    config = SimConfig(ensemble=ensemble, dist=DIST, eps=0.2, trials=100, seed=6)
    _run_batch(config, grid, range(100))
    assert len(seen) == len(grid)
    for eps, (symbols, dec) in zip(sorted(grid), seen):
        assert np.array_equal(symbols, np.where(inst.u < eps, ERASED, inst.word)), eps
        res = bp_decode(symbols, inst.fg, extract_payload=False)
        assert np.array_equal(res.word.symbols != ERASED, dec.resolved)
        assert np.array_equal(res.word.symbols, np.where(dec.resolved, dec.val, ERASED))
        assert res.iterations == dec.iterations
    # the grid crosses the threshold: the residual grows along it
    residuals = [int(np.count_nonzero(~dec.resolved)) for _, dec in seen]
    assert residuals == sorted(set(residuals)), residuals


def test_run_sweep_is_run_trials_at_each_point():
    # an unsorted grid with a repeated point: rows in the order given
    config = SimConfig(ensemble=EnsembleSpec("uniform", 60), dist=DIST, eps=1.0, trials=300,
                       seed=4)
    grid = [0.25, 0.0, 0.15, 0.25, 1.0]
    expect = [run_trials(dataclasses.replace(config, eps=eps)) for eps in grid]
    assert simkit.run_sweep(config, grid) == expect
    assert simkit.run_sweep(dataclasses.replace(config, jobs=2), grid) == expect


@pytest.mark.parametrize("grid, message", [([], "at least one eps point"),
                                           ([0.1, 1.5], r"eps must lie in \[0, 1\], got 1.5"),
                                           ([float("nan")], r"eps must lie in \[0, 1\]")])
def test_run_sweep_checks_its_grid(grid, message):
    config = SimConfig(ensemble=EnsembleSpec("uniform", 60), dist=DIST, eps=0.1, trials=3, seed=4)
    with pytest.raises(ValueError, match=message):
        simkit.run_sweep(config, grid)


def test_run_trials_eps_zero_matches_free_wire_deficit():
    cfg = SimConfig(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.0,
                    trials=2000, seed=12)
    stats = run_trials(cfg)
    # exact deficit probability at this size is 0.1414
    assert stats.pe == pytest.approx(0.1414, abs=0.03)


def test_run_trials_single_trial_is_binary():
    for seed in range(6):
        cfg = SimConfig(ensemble=EnsembleSpec("uniform", 30), dist=DIST, eps=0.0,
                        trials=1, seed=seed)
        assert run_trials(cfg).pe in (0.0, 1.0)


def test_run_trials_info_bits_mode():
    cfg = SimConfig(ensemble=EnsembleSpec("uniform", 50), dist=DIST, eps=0.0,
                    trials=50, seed=3, mode="info-bits")
    stats = run_trials(cfg)
    assert stats.block_errors == stats.insufficient_free_wire_events


def test_run_trials_modified_ensemble():
    cfg = SimConfig(ensemble=EnsembleSpec("modified", 400), dist=DIST,
                    eps=0.1, trials=30, seed=8)
    stats = run_trials(cfg)
    assert stats.trials == 30
    assert stats.insufficient_free_wire_events == 0


def test_de_vs_simulation_eps_zero():
    rows = de_vs_simulation(0.0, DIST, 20_000, iterations=5, seed=1)
    for _, emp, pred in rows:
        assert emp == 0.0
        assert pred == 0.0


def test_de_vs_simulation_tracks_prediction():
    rows = de_vs_simulation(0.20, DIST, 50_000, iterations=12, seed=2)
    for _, emp, pred in rows:
        assert abs(emp - pred) < 0.015


@pytest.mark.parametrize("iterations, message", [
    (0, "iterations must be >= 1, got 0"),
    (-3, "iterations must be >= 1, got -3"),
    (2.5, "iterations must be an integer, got 2.5"),
    (True, "iterations must be an integer, got True"),
])
def test_de_vs_simulation_checks_iterations(iterations, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        de_vs_simulation(0.1, DIST, 100, iterations=iterations, seed=1)


@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
def test_de_vs_simulation_checks_eps(eps):
    with pytest.raises(ValueError, match=re.escape(f"eps must lie in [0, 1], got {eps}")):
        de_vs_simulation(eps, DIST, 100, iterations=5, seed=1)


def test_de_vs_simulation_rows_are_pinned():
    # a stalled decode's trace is padded with its last value, so a stop one
    # iteration earlier leaves the rows as they were
    rows = de_vs_simulation(0.22, DIST, 10_000, iterations=40, seed=3)
    text = repr([(t, float(emp), float(pred)) for t, emp, pred in rows])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b00f3f2b2a9b28f9e91b2e6e8478f16e68de58c0be14dd7846fb04d3357898c")


def _block_failures(seed, runs, n=10**4, trials=40):
    """Block failures of each (eps, crosstalk) run on the instances and
    channel draws of run_trials; without crosstalk, the same graph decodes
    without its crosstalk checks (one length-1 segment per info wire, so no
    two wires share a segment), the code alone."""
    inst = build_instances(seed, range(trials), DIST, EnsembleSpec("uniform", n))
    assert inst.insufficient == 0
    # the channel draws of run_trials, the same at every eps
    u = inst.u
    info = inst.fg.layout.info_wire_array
    layout = dataclasses.replace(inst.fg.layout,
                                 segments=np.column_stack((info, np.ones_like(info))))
    code_only = dataclasses.replace(inst.fg, layout=layout)
    failures = []
    for eps, crosstalk in runs:
        received = np.where(u < eps, ERASED, inst.word)
        out = bp_decode(received, inst.fg if crosstalk else code_only,
                        extract_payload=False).word.symbols
        failures.append(int(np.count_nonzero((out == ERASED).reshape(trials, n).any(axis=1))))
    return failures


def test_crosstalk_checks_decode_past_the_code_erasure_limit():
    # eps = 0.205 lies past 1 - R = 0.2, the erasure limit of the (3,12)
    # code alone: the joint decoder decodes every trial, and the code alone
    # fails nearly all
    joint, code_only = _block_failures(5, [(0.205, True), (0.205, False)])
    assert joint == 0
    assert code_only >= 36


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulation_brackets_the_code_only_threshold(seed):
    # the code alone decodes nearly every trial at eps = 0.16 and nearly
    # none at 0.18, either side of its BP threshold 0.1697; the joint
    # decoder, whose threshold is 0.2261, decodes every trial at 0.18
    code_low, code_high, joint_high = _block_failures(
        seed, [(0.16, False), (0.18, False), (0.18, True)])
    assert code_low <= 2
    assert code_high >= 38
    assert joint_high == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_waterfall_moves_toward_the_de_threshold_as_n_grows(seed):
    # at eps = 0.215, below the joint DE threshold 0.2261, the block-error
    # rate falls as the bus widens: about 1/2 at N = 10^3, at most 1/8 at
    # N = 10^4 (seeds 1-3)
    small, big = (run_trials(SimConfig(EnsembleSpec("uniform", n), DIST, 0.215, trials, seed))
                  for n, trials in ((10**3, 200), (10**4, 40)))
    assert big.pe < small.pe
