#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 benchmarks/selftest.py

1. Runs all four workloads, untraced and then traced, through
   ``run.py --workload all --tiny`` and checks that each result carries
   exactly the metric names and units of BENCHMARK.json, that every output
   passed its checks, that the probe fingerprints match, and that the traced
   replay produced the same outputs as the untraced pass.
2. Corrupts the decoded payload of one codec round trip and checks that the
   run counts it: ``failed`` is 1, ``failed_frac`` is above 0 and the run is
   not correct.

Exits 0 when every check passes; otherwise an AssertionError names the
first that failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "0.5"


def expected_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_all(trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    want = expected_metrics("per_layer" if trace else "end_to_end")
    for line in lines[:-1]:
        name, record, result = line["workload"], line["record"], line["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"{name}: metrics {got} differ from BENCHMARK.json {want}"
        assert all(isinstance(v["value"], float) for v in result["metrics"].values()), name
        assert result["correct"] and result["failed"] == 0, f"{name}: {record}"
        assert record["fingerprint"]["got"] == record["fingerprint"]["expected"], name
        if trace:
            assert record["trace"]["outputs_identical"], name
        elif name.startswith("codec"):
            assert {"encode_ms_p50", "decode_ms_p50"} <= set(record["codec"]), name
        print(f"ok   trace={trace} {name}: {len(got)} metrics, {result['attempted']} ops")
    assert [line["workload"] for line in lines[:-1]] == ["codec_bus", "codec_wide",
                                                        "sim_short", "sim_wide"]


def check_corrupted_payload_counts() -> None:
    sys.path.insert(0, str(HERE))
    import run

    jb = run.load_library()
    original = jb.bp_decode
    seen = 0

    def corrupting_decode(*args, **kwargs):
        # The tenth decode falls in the timed loop, after the three warm-up
        # round trips: flip the first bit of its payload.
        nonlocal seen
        result = original(*args, **kwargs)
        seen += 1
        if seen == 10:
            bits = result.info_bits
            result = dataclasses.replace(result, info_bits=(1 - bits[0],) + bits[1:])
        return result

    out = io.StringIO()
    jb.bp_decode = corrupting_decode
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "codec_bus", "--tiny", "--seed", "1",
                      "--seconds", SECONDS, "--trace", "0"])
    finally:
        jb.bp_decode = original
    record_line, result_line = out.getvalue().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert result["failed"] == 1 and not result["correct"], result
    assert record["failed_frac"] == 1 / result["attempted"] > 0, record["failed_frac"]
    assert "decoded payload differs" in record["first_error"], record["first_error"]
    print(f"ok   corrupted payload: failed_frac = {record['failed_frac']:.5f}")


def main() -> int:
    check_all(trace=0)
    check_all(trace=1)
    check_corrupted_payload_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
