#!/usr/bin/env python3
"""Benchmark of the jointbus library: closed-loop workloads, one client.

    python3 benchmarks/run.py --workload codec_bus --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Workloads are defined in ``workloads.py``. One client in one process calls
the library, waits for the result, checks it and moves on (``jobs=1``);
each input is made from ``--seed`` before its call is timed. The library is
imported from ``src/`` of the checkout that holds this file, and the run
fails (exit code 1, no result) when it is not there.

After the timed loop, a probe makes the first calls of the default seed
and hashes their outputs; the hash must equal the one recorded in
``fingerprints.json``, so results stay byte-identical across changes.

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``, counted in ops (round trips or trials); the line
before it is the run's record: environment, failure fraction, fingerprint,
the codec's encode/decode split and, when traced, the span table.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced. ``--trace 1`` reports the per-layer metrics: it runs the loop
untraced for half the time, then replays the same inputs with every layer
traced (see ``tracing.py``), requires identical outputs from both passes,
and reports the slowdown as the tracing overhead.

Times are scaled to a reference machine speed with a calibration kernel
timed between calls; see ``CAL_REF_S`` below and README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer, layer_self_ms  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
NAMES = ("codec_bus", "codec_wide", "sim_short", "sim_wide")


def load_library():
    """Import jointbus from the checkout's ``src/``, or exit."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import jointbus
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import jointbus from {src}: {exc}")
    if src not in Path(jointbus.__file__).resolve().parents:
        sys.exit(f"benchmark: jointbus came from {jointbus.__file__}, not from {src}")
    return jointbus


# Calibration. Outside load on a shared machine changes how fast the same
# code runs by tens of percent within seconds, and a fixed kernel that does
# not touch jointbus slows down with it. Every call's time is therefore
# scaled by CAL_REF_S over the kernel's time around that call: the reported
# times are those of the reference speed, a quiet run of the kernel on the
# box the baselines come from (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy
# 2.4.6). Raw wall-clock figures stay in the record.
CAL_REF_S = 0.0032
CAL_EVERY_S = 0.25


@functools.cache
def _gather_table() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1000, 1_000_000, dtype=np.int32)
    return table, rng.integers(0, table.size, 100_000)


def _kernel() -> int:
    """Interpreter loop, small numpy arrays, many small objects, a gather
    from a 4 MB table and big-int division: the kinds of work the library
    does, so outside load slows it about as much."""
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    a = np.arange(2000)
    for _ in range(50):
        a = (a * 3 + 1) % 1001
    rows = {str(i): (i, 2 * i) for i in range(4000)}
    table, idx = _gather_table()
    _, r = divmod(3 ** 20_000, 7 ** 4_500 + 1)
    return x + int(a[0]) + len(rows) + int(table[idx].sum()) + (r & 1)


def calibrate() -> float:
    """Seconds of the best of three kernel runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Call:
    """One timed call: its input, the ops it counts, its phase times, and
    the bytes of its checked output (None when the call or a check failed).
    ``scale`` converts its times to the reference speed."""

    inp: object
    units: int
    phases: Optional[tuple[float, ...]]
    digest: Optional[bytes]
    error: Optional[str] = None
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.digest is not None

    def seconds(self, phase: Optional[int] = None) -> float:
        """Time at the reference speed, of one phase or of the whole call."""
        return (sum(self.phases) if phase is None else self.phases[phase]) * self.scale


def call(wl, inp, tracer=None, op: int = -2) -> Call:
    units = wl.units(inp)
    if tracer is not None:
        tracer.op, tracer.active = op, True
    try:
        out, phases = wl.run(inp)
    except Exception as exc:  # a failing op is counted, not fatal
        return Call(inp, units, None, None, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.active = False
    try:
        digest = wl.check(inp, out)
    except Exception as exc:  # a wrong output is counted, not fatal
        return Call(inp, units, phases, None, f"{type(exc).__name__}: {exc}")
    return Call(inp, units, phases, digest)


def prepare(wl, seed: int) -> dict:
    """Set-up: the workload's own checks, then one warm-up call per shape."""
    info = wl.setup()
    for inp in wl.warmup_inputs(seed):
        c = call(wl, inp)
        if not c.ok:
            sys.exit(f"benchmark: warm-up call failed: {c.error}")
    return info


def measure(wl, seed: int, seconds: float = float("inf"), count: Optional[int] = None,
            tracer=None) -> list[Call]:
    """Closed loop: make the next input, time its call, check it; until the
    wall-clock budget is spent or ``count`` calls are made. The kernel runs
    every CAL_EVERY_S between calls, and each call is scaled by the mean of
    the two kernel times around it."""
    calls: list[Call] = []
    settled = 0
    cal = calibrate()
    cal_at = time.perf_counter()
    deadline = cal_at + seconds

    def settle(next_cal: float) -> None:
        nonlocal settled, cal
        for c in calls[settled:]:
            c.scale = CAL_REF_S / ((cal + next_cal) / 2)
        settled, cal = len(calls), next_cal

    while len(calls) < count if count is not None else time.perf_counter() < deadline:
        if time.perf_counter() - cal_at >= CAL_EVERY_S:
            settle(calibrate())
            cal_at = time.perf_counter()
        i = len(calls)
        calls.append(call(wl, wl.make_input(seed, i), tracer, op=i if tracer else -2))
    settle(calibrate())
    if not any(c.ok for c in calls):
        sys.exit(f"benchmark: every call failed; first error: {calls[0].error}")
    return calls


def fingerprint(calls: list[Call]) -> Optional[str]:
    h = hashlib.sha256()
    for c in calls:
        if not c.ok:
            return None
        h.update(len(c.digest).to_bytes(8, "little"))
        h.update(c.digest)
    return h.hexdigest()


def probe(wl, tracer=None) -> Optional[str]:
    """Fingerprint of the first ``probe_calls`` calls of the default seed."""
    return fingerprint([call(wl, wl.make_input(DEFAULT_SEED, i), tracer)
                        for i in range(wl.probe_calls)])


def expected_fingerprint(name: str, tiny: bool) -> Optional[str]:
    table = json.loads((HERE / "fingerprints.json").read_text())
    return table["tiny" if tiny else "full"].get(name)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def own_command(args, workload: str, *extra: str) -> list[str]:
    """Command line that runs this file on ``workload`` with the run's seed."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), *extra] + (["--tiny"] if args.tiny else [])


def child_setup_s(args) -> float:
    """Set-up time measured in a fresh interpreter, imports included."""
    proc = subprocess.run(own_command(args, args.workload, "--setup-only"),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def codec_latencies(calls: list[Call]) -> dict:
    """Encode, decode and round-trip latency of the codec workloads, with
    the p99 only where at least ten samples lie beyond it."""
    ok = [c for c in calls if c.ok]
    out = {
        "samples": len(ok),
        "encode_ms_p50": {"value": statistics.median(c.seconds(0) for c in ok) * 1e3, "unit": "ms"},
        "decode_ms_p50": {"value": statistics.median(c.seconds(1) for c in ok) * 1e3, "unit": "ms"},
    }
    if len(ok) >= 1000:
        p99 = statistics.quantiles([c.seconds() for c in ok], n=100)[98]
        out["op_ms_p99"] = {"value": p99 * 1e3, "unit": "ms"}
    by_n: dict[int, list[float]] = {}
    for c in ok:
        by_n.setdefault(len(c.inp.state), []).append(c.seconds())
    out["op_ms_p50_by_n"] = {n: statistics.median(v) * 1e3 for n, v in sorted(by_n.items())}
    return out


def throughput(calls: list[Call], raw: bool = False) -> float:
    ok = [c for c in calls if c.ok]
    return sum(c.units for c in ok) / sum(sum(c.phases) if raw else c.seconds() for c in ok)


def end_to_end_metrics(calls: list[Call], setup_samples: list[float], rss: float) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (throughput(calls), "1/s"),
        "op_ms_p50": (statistics.median(c.seconds() / c.units * 1e3 for c in calls if c.ok),
                      "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }


def per_layer_metrics(tracer, ops: int, overhead_pct: float) -> dict:
    spans = tracer.table()
    setup = tracer.table(setup=True)

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / ops

    def ms(name):
        return spans.get(name, {}).get("ms", 0.0) / ops

    def self_ms(layer):
        return (layer_self_ms(spans, layer) / ops, "ms")

    decodes, from_sim, iterations, ns_per_wire_iter = tracer.decoder_work()
    thresholds = setup.get("densevo.de_threshold", {}).get("calls", 0)
    return {
        "buscore.as_bits_calls_per_op": (calls("buscore.as_bits"), "count"),
        "buscore.self_ms_per_op": self_ms("buscore"),
        "cac.codebooks_per_op": (calls("cac.RunCodebook.__init__"), "count"),
        "cac.self_ms_per_op": self_ms("cac"),
        "ira.self_ms_per_op": self_ms("ira"),
        "ira.sample_graph_ms_per_op": (ms("ira.sample_graph"), "ms"),
        "ira.encode_ms_per_op": (ms("ira.ira_encode"), "ms"),
        "jointcode.self_ms_per_op": self_ms("jointcode"),
        "jointcode.layouts_per_op": (calls("jointcode.build_layout"), "count"),
        "jointcode.layout_ms_per_op": (ms("jointcode.build_layout"), "ms"),
        "jointcode.embed_ms_per_op": (ms("jointcode.embedded_encode"), "ms"),
        "jointcode.payload_size_ms_per_op": (ms("jointcode.payload_size"), "ms"),
        "bpdecode.self_ms_per_op": self_ms("bpdecode"),
        "bpdecode.decodes_per_op": (decodes / ops, "count"),
        "bpdecode.graph_ms_per_op": (ms("bpdecode.build_factor_graph"), "ms"),
        "bpdecode.decode_ms_per_op": (ms("bpdecode.bp_decode"), "ms"),
        "bpdecode.iterations_per_decode": (iterations / decodes if decodes else 0.0, "count"),
        "bpdecode.ns_per_wire_iter": (ns_per_wire_iter, "ns"),
        "densevo.self_ms_per_op": self_ms("densevo"),
        "densevo.threshold_ms": (
            setup["densevo.de_threshold"]["ms"] / thresholds if thresholds else 0.0, "ms"),
        "densevo.de_steps": (
            setup["densevo.de_step"]["calls"] / thresholds if thresholds else 0.0, "count"),
        "simkit.self_ms_per_op": self_ms("simkit"),
        "simkit.channel_ms_per_op": (ms("simkit.bec_transmit"), "ms"),
        "simkit.decoded_frac": (from_sim / ops, "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(jb) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jointbus": jb.__version__,
        "commit": git_commit(),
    }


def run_workload(args) -> int:
    jb = load_library()
    import workloads

    wl = workloads.make(args.workload, tiny=args.tiny)
    try:
        setup_info = prepare(wl, args.seed)
    except workloads.CheckFailed as exc:
        sys.exit(f"benchmark: set-up check failed: {exc}")
    own_setup_s = (time.perf_counter() - T_START) * CAL_REF_S / calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    record: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "tiny": args.tiny, "setup": setup_info}
    if args.trace:
        calls = measure(wl, args.seed, args.seconds / 2)
        tracer = Tracer()
        tracer.install(jb)
        try:
            tracer.op, tracer.active = -1, True
            try:
                wl.setup()
            finally:
                tracer.active = False
            traced = measure(wl, args.seed, count=len(calls), tracer=tracer)
            got = probe(wl, tracer)
        finally:
            tracer.uninstall()
        tracer.op_scale = [c.scale for c in traced]
        untraced_rate, traced_rate = throughput(calls), throughput(traced)
        overhead = (1.0 - traced_rate / untraced_rate) * 100.0
        same = [c.digest for c in calls] == [c.digest for c in traced]
        record["trace"] = {
            "ops_untraced": sum(c.units for c in calls),
            "ops_traced": sum(c.units for c in traced),
            "outputs_identical": same,
            "ops_per_s_untraced": untraced_rate,
            "ops_per_s_traced": traced_rate,
            "overhead_pct": overhead,
            "spans": tracer.count,
            "span_table": tracer.table(),
            "setup_span_table": tracer.table(setup=True),
        }
        calls = traced
        metrics = per_layer_metrics(tracer, sum(c.units for c in calls), overhead)
    else:
        calls = measure(wl, args.seed, args.seconds)
        rss = peak_rss_mib()
        got = probe(wl)
        samples = [own_setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        record["setup"]["samples_s"] = samples
        if isinstance(wl, workloads.CodecWorkload):
            record["codec"] = codec_latencies(calls)
        metrics = end_to_end_metrics(calls, samples, rss)
        same = True
    record["raw"] = {
        "ops_per_s": throughput(calls, raw=True),
        "slowdown_vs_reference": statistics.median(1.0 / c.scale for c in calls),
    }

    attempted = sum(c.units for c in calls)
    failed = sum(c.units for c in calls if not c.ok)
    expected = expected_fingerprint(wl.name, args.tiny)
    record.update({
        "environment": environment(jb),
        "calls": len(calls),
        "failed_frac": failed / attempted,
        "first_error": next((c.error for c in calls if c.error), None),
        "fingerprint": {"expected": expected, "got": got, "probe_calls": wl.probe_calls,
                        "seed": DEFAULT_SEED},
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and same and got is not None and got == expected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = own_command(args, name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"benchmark: workload {name} failed:\n{proc.stderr}")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(json.dumps({"workload": name, **record, "result": result}))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the self-test (own fingerprints)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit (used to repeat set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
