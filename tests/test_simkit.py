import dataclasses
from functools import reduce

import numpy as np
import pytest

from jointbus import (
    ERASED,
    DegreeDistribution,
    EnsembleSpec,
    SimConfig,
    TrialStats,
    bec_transmit,
    build_instances,
    bp_decode,
    build_factor_graph,
    build_layout,
    check_transition,
    de_vs_simulation,
    gen_past_modified,
    gen_past_uniform,
    parse_runs,
    run_trials,
    sample_graph,
    trial_rng,
    validate_checks,
    wilson_interval,
)
from jointbus.simkit import BATCH_WIRES, _run_batch, _sample_run_length, _valid_word
from jointbus.buscore import _run_bounds
from jointbus.cac import _payload_bits

from helpers import disjoint_union, sequential_valid_word, valid_words

DIST = DegreeDistribution.regular(3, 12)


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


def test_sample_valid_word_uniform_per_run():
    # empirical distribution over one run of length 3 matches the uniform
    # law over its five valid continuations
    a = np.array([0, 1, 0], dtype=np.uint8)
    starts, lengths = _run_bounds(a)
    rng = trial_rng(11, 0)
    counts = {}
    trials = 20_000
    for _ in range(trials):
        w = tuple(_valid_word(a, starts, lengths, rng.random(a.size)))
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
        w = _valid_word(a, starts, lengths, rng.random(a.size))
        t = w ^ a
        assert not np.any((a[:-1] != a[1:]) & (t[:-1] == 1) & (t[1:] == 1))


def test_sample_valid_word_matches_sequential_sampler():
    # one draw per wire, consumed in the sequential sampler's order
    rng = np.random.default_rng(29)
    for seed in range(300):
        a = rng.integers(0, 2, int(rng.integers(1, 120)), dtype=np.uint8)
        starts, lengths = _run_bounds(a)
        fast = _valid_word(a, starts, lengths, trial_rng(seed, 1).random(a.size))
        slow = sequential_valid_word(a, starts, lengths, trial_rng(seed, 1))
        assert np.array_equal(fast, slow)


def test_modified_run_length_law():
    rng = trial_rng(17, 0)
    lengths = _sample_run_length(200_000, 0.8, rng)
    p1 = np.count_nonzero(lengths == 1) / lengths.size
    sigma = np.sqrt((1 / 6) * (5 / 6) / lengths.size)
    assert abs(p1 - 1 / 6) < 4 * sigma
    p3 = np.count_nonzero(lengths == 3) / lengths.size
    expect3 = 2.0 ** -3 / 0.6
    assert abs(p3 - expect3) < 4 * np.sqrt(expect3 / lengths.size)


def test_gen_past_modified_lengths():
    draw = gen_past_modified(100_000, 0.8, trial_rng(19, 0))
    n = len(draw.state)
    assert abs(n - 100_000) < 5 * np.sqrt(100_000)
    ell1 = len(draw.part1_wires)
    assert abs(ell1 - 0.8 * n) < 5 * np.sqrt(n)
    # parity-part wires are length-one runs of the realized state
    free = set(parse_runs(draw.state).free_wires)
    assert set(draw.part2_wires) <= free


def test_modified_matches_uniform_run_statistics():
    uniform = gen_past_uniform(100_000, trial_rng(23, 0))
    modified = gen_past_modified(100_000, 0.8, trial_rng(23, 1))
    lu = np.array(parse_runs(uniform).run_lengths)
    lm = np.array(parse_runs(modified.state).run_lengths)
    for d in range(1, 9):
        cu = np.count_nonzero(lu == d) / len(uniform)
        cm = np.count_nonzero(lm == d) / len(modified.state)
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
SHIELDED = "0101010101010101"  # one run, no free wire: every parity takes a shield pair


def _drawn_payload(seed, trial, inst, ensemble):
    """The payload an info-bits trial draws: its stream replayed past its
    past state and its graph, sized by its own segments."""
    rng = trial_rng(seed, trial)
    if ensemble is not None and ensemble.kind == "uniform":
        gen_past_uniform(ensemble.n, rng)
    elif ensemble is not None:
        gen_past_modified(ensemble.n, 0.8, rng)
    if inst.layout.num_parity:
        sample_graph(inst.layout.num_info, inst.layout.num_parity, DIST, rng)
    return rng.integers(0, 2, _payload_bits(inst.layout.segments), dtype=np.uint8)


@pytest.mark.parametrize("source", [*ENSEMBLES, SHIELDED], ids=["uniform", "modified", "shielded"])
@pytest.mark.parametrize("mode", MODES)
def test_build_instances_batch_is_union_of_single_trials(source, mode):
    if source == SHIELDED:
        ensemble = None
        singles = [(s, 0, build_instances(s, [0], DIST, past=SHIELDED, mode=mode))
                   for s in range(10)]
        assert all(inst.layout.pinned for _, _, inst in singles)
    else:
        ensemble = source
        batch = build_instances(2, range(12), DIST, ensemble=ensemble, mode=mode)
        # 200 trials: enough for a modified-ensemble word whose payload
        # index leaves the range of a wrongly sized payload to show
        singles = [(2, t, build_instances(2, [t], DIST, ensemble=ensemble, mode=mode))
                   for t in range(200)]
        kept = [inst for _, _, inst in singles[:12] if inst.trials]
        assert batch.trials == tuple(t for inst in kept for t in inst.trials)
        assert batch.insufficient == sum(inst.insufficient for _, _, inst in singles[:12])
        assert batch.insufficient == (3 if ensemble.kind == "uniform" else 0)
        a, layout, graph = disjoint_union([(inst.a, inst.layout, inst.graph) for inst in kept])
        assert np.array_equal(batch.a, a)
        assert batch.layout == layout
        assert np.array_equal(batch.graph.edge_info, graph.edge_info)
        assert np.array_equal(batch.graph.edge_check, graph.edge_check)
        assert batch.graph.chain_starts == graph.chain_starts
        assert np.array_equal(batch.word, np.concatenate([inst.word for inst in kept]))
    for seed, t, inst in singles:
        if not inst.trials:
            continue
        assert check_transition(inst.a, inst.word).ok
        assert validate_checks(inst.word[inst.layout.info_wire_array],
                               inst.word[inst.layout.parity_slot_array], inst.graph)
        if ensemble is not None and ensemble.kind == "uniform":
            assert inst.layout == build_layout(inst.a, inst.layout.num_parity)
        # the noiseless word decodes on the layout it was drawn on
        result = bp_decode(inst.word, build_factor_graph(inst.a, inst.graph, inst.layout))
        if mode == "info-bits":
            assert result.violation is None, (seed, t, result.violation)
            assert np.array_equal(result.info_bits, _drawn_payload(seed, t, inst, ensemble))
        else:
            # a uniform valid word may index past the payload range, but it
            # breaks no pinned wire, crosstalk pair or parity check
            assert (result.violation is None
                    or "falls outside the used range" in result.violation), (seed, t)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=["uniform", "modified"])
@pytest.mark.parametrize("mode", MODES)
def test_run_trials_invariant_to_batching_and_jobs(ensemble, mode):
    size = max(1, BATCH_WIRES // ensemble.n)
    base = SimConfig(ensemble=ensemble, dist=DIST, eps=0.2, trials=size + 1, seed=21,
                     mode=mode)
    singles = [_run_batch(base, range(t, t + 1)) for t in range(size + 1)]
    for trials in (size - 1, size, size + 1):
        expect = reduce(TrialStats.add, singles[:trials], TrialStats(rng_seed=21))
        for jobs in (1, 2):
            assert run_trials(dataclasses.replace(base, trials=trials, jobs=jobs)) == expect


@pytest.mark.parametrize("field", ["jobs"])
@pytest.mark.parametrize("value", [0, -3])
def test_sim_config_rejects_nonpositive_jobs_and_max_outer(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(ensemble=EnsembleSpec("uniform", 100), dist=DIST, eps=0.1, trials=5,
                  seed=0, **{field: value})


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


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
