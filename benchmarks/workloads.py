"""The four benchmark workloads: input generation, the timed call, checks.

Every input is a pure function of (workload, seed, stream, index), so a
seed fixes the inputs whatever the run length. ``run`` is the only timed
part; ``check`` verifies the outputs and returns the bytes that feed the
output fingerprint.

- ``codec_bus``: embedded encode -> decode round trips without erasures at
  N = 16, 64, 256 in turn, (3,12) code at rate 0.8. Each word gets a fresh
  uniform past state, placement and graph; states with no admissible
  placement (short words, shield capacity exhausted) are redrawn.
- ``codec_wide``: the same round trip at N = 10^5, where bigint radix
  work grows quadratically.
- ``sim_short``: sweeps of ``run_trials`` on the uniform ensemble at
  N = 100, eps in {0, 0.1, 0.2, 0.3}: per-trial fixed costs dominate.
- ``sim_wide``: sweeps of ``run_trials`` at N = 10^4, eps in {0.20, 0.22,
  0.24} around the joint threshold, which set-up recomputes and checks.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import jointbus as jb

DIST = jb.DegreeDistribution.regular(3, 12)
R_ECC = jb.recc_from_rldpc(jb.rate_ldpc(DIST))
THRESHOLD = 0.226
THRESHOLD_TOL = 0.003


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


@dataclass(frozen=True)
class CodecInput:
    state: jb.BusState
    p: int
    payload: np.ndarray
    graph_seed: int


class CodecWorkload:
    """One call is one round trip of one word."""

    def __init__(self, name: str, sizes: tuple[int, ...], warmup_sizes: tuple[int, ...],
                 probe_calls: int):
        self.name = name
        self.sizes = sizes
        self.warmup_sizes = warmup_sizes
        self.probe_calls = probe_calls
        self.salt = zlib.crc32(name.encode())

    def setup(self) -> dict:
        return {}

    def make_input(self, seed: int, index: int, stream: int = 0) -> CodecInput:
        sizes = self.warmup_sizes if stream else self.sizes
        n = sizes[index % len(sizes)]
        rng = np.random.default_rng([self.salt, seed, stream, index])
        p = round(n * (1.0 - R_ECC))
        while True:
            state = jb.gen_past_uniform(n, rng)
            try:
                layout = jb.build_layout(state, p)
            except ValueError:  # no admissible parity placement: redraw
                continue
            break
        # Payload bits: floor(log2) of the codeword count of the payload runs.
        k = math.prod(jb.fib(d + 2) for _, d in layout.segments).bit_length() - 1
        payload = rng.integers(0, 2, k, dtype=np.uint8)
        return CodecInput(state, p, payload, int(rng.integers(2**63)))

    def warmup_inputs(self, seed: int) -> list[CodecInput]:
        return [self.make_input(seed, i, stream=1) for i in range(len(self.warmup_sizes))]

    def units(self, inp: CodecInput) -> int:
        return 1

    def run(self, inp: CodecInput):
        """Encode as a sender would (placement, graph, payload size, word),
        then decode the unerased word. Returns (output, (encode_s, decode_s))."""
        t0 = perf_counter()
        layout = jb.build_layout(inp.state, inp.p)
        graph = jb.sample_graph(layout.num_info, inp.p, DIST, np.random.default_rng(inp.graph_seed))
        k = jb.payload_size(inp.state, inp.p)
        code = jb.embedded_encode(inp.payload, inp.state, graph)
        t1 = perf_counter()
        fg = jb.build_factor_graph(inp.state, graph, layout)
        result = jb.bp_decode(code.word.bits, fg)
        t2 = perf_counter()
        return (k, layout, graph, code, result), (t1 - t0, t2 - t1)

    def check(self, inp: CodecInput, out) -> bytes:
        k, layout, graph, code, result = out
        word = np.asarray(code.word.bits, dtype=np.uint8)
        if k != inp.payload.size:
            raise CheckFailed(f"payload_size gave {k}, the word carries {inp.payload.size} bits")
        if not jb.check_transition(inp.state, word).ok:
            raise CheckFailed("encoded word breaks a crosstalk constraint")
        if not jb.validate_checks(word[layout.info_wire_array], word[layout.parity_slot_array],
                                  graph):
            raise CheckFailed("encoded word breaks a parity check")
        if result.info_bits != tuple(int(b) for b in inp.payload):
            raise CheckFailed("decoded payload differs from the sent one")
        return word.tobytes() + bytes(result.info_bits)


class SimWorkload:
    """One call is a sweep: one ``run_trials`` campaign of ``trials``
    trials at each eps point in turn, as ``jointbus simulate`` runs them.
    The op counted is the trial."""

    def __init__(self, name: str, n: int, eps: tuple[float, ...], trials: int,
                 probe_calls: int, check_threshold: bool = False):
        self.name = name
        self.n = n
        self.eps = eps
        self.trials = trials
        self.probe_calls = probe_calls
        self.check_threshold = check_threshold
        self.salt = zlib.crc32(name.encode())

    def setup(self) -> dict:
        if not self.check_threshold:
            return {}
        threshold = jb.de_threshold(jb.DeModel.for_code(DIST, R_ECC))
        if abs(threshold - THRESHOLD) > THRESHOLD_TOL:
            raise CheckFailed(f"DE threshold {threshold} is not {THRESHOLD} +- {THRESHOLD_TOL}")
        return {"de_threshold": threshold}

    def make_input(self, seed: int, index: int, stream: int = 0) -> list[jb.SimConfig]:
        seeds = np.random.SeedSequence([self.salt, seed, stream, index]).generate_state(
            len(self.eps), np.uint64)
        return [
            jb.SimConfig(
                ensemble=jb.EnsembleSpec("uniform", self.n),
                dist=DIST,
                eps=eps,
                trials=1 if stream else self.trials,
                seed=int(trial_seed),
            )
            for eps, trial_seed in zip(self.eps, seeds)
        ]

    def warmup_inputs(self, seed: int) -> list[list[jb.SimConfig]]:
        return [self.make_input(seed, 0, stream=1)]

    def units(self, sweep: list[jb.SimConfig]) -> int:
        return sum(cfg.trials for cfg in sweep)

    def run(self, sweep: list[jb.SimConfig]):
        t0 = perf_counter()
        stats = [jb.run_trials(cfg) for cfg in sweep]
        return stats, (perf_counter() - t0,)

    def check(self, sweep: list[jb.SimConfig], stats) -> bytes:
        return b"".join(self._check_point(cfg, st) for cfg, st in zip(sweep, stats))

    def _check_point(self, cfg: jb.SimConfig, stats) -> bytes:
        counts = (stats.trials, stats.bits_code, stats.bit_errors_code, stats.bits_info,
                  stats.bit_errors_info, stats.block_errors, stats.insufficient_free_wire_events)
        trials, bits_code, err_code, bits_info, err_info, blocks, insufficient = counts
        if trials != cfg.trials or bits_code != trials * self.n or stats.rng_seed != cfg.seed:
            raise CheckFailed(f"trial accounting does not match the request: {stats}")
        if not (0 <= err_code <= bits_code and 0 <= err_info <= bits_info <= bits_code
                and 0 <= insufficient <= blocks <= trials):
            raise CheckFailed(f"inconsistent trial counts: {stats}")
        if cfg.eps == 0 and (blocks != insufficient or err_info):
            raise CheckFailed(f"decoding failed on an unerased word: {stats}")
        return struct.pack("<d7q", cfg.eps, *counts)


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks the wide sizes for the self-test."""
    if name == "codec_bus":
        return CodecWorkload(name, (16, 64, 256), (16, 64, 256), probe_calls=12 if tiny else 60)
    if name == "codec_wide":
        return CodecWorkload(name, (2000,) if tiny else (100_000,), (256,), probe_calls=1)
    if name == "sim_short":
        return SimWorkload(name, 100, (0.0, 0.1, 0.2, 0.3), trials=20 if tiny else 100,
                           probe_calls=1)
    if name == "sim_wide":
        return SimWorkload(name, 1000 if tiny else 10_000, (0.20, 0.22, 0.24),
                           trials=2 if tiny else 8, probe_calls=2, check_threshold=True)
    raise ValueError(f"unknown workload {name!r}")
