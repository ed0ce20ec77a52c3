"""Packaging smoke: the ``jointbus`` CLI end to end, one child process per
command, with a non-zero exit at the first failed check. Run it from the
repository root: ``PYTHONPATH=src python tests/smoke.py``. pytest does not
collect it (no ``test_`` prefix). Max RSS is read as Linux gives it, in KiB."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import jointbus as jb


# the warning filter pyproject.toml sets for the tier-1 tests: a numpy
# overflow or deprecation on a wide CLI run fails the smoke
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")


def run(*args, timeout=None, status=0, stdin=""):
    """Stdout of ``python -m jointbus *args`` and its max RSS in MiB. Stops the
    smoke on an exit status other than ``status``, such as 124 from coreutils
    ``timeout`` past ``timeout`` seconds. ``os.wait4`` reads this child's own
    max RSS, where ``RUSAGE_CHILDREN`` would keep the largest child's so far."""
    cmd = [sys.executable, *WARNINGS_AS_ERRORS, "-m", "jointbus", *args]
    proc = subprocess.Popen(["timeout", str(timeout), *cmd] if timeout else cmd, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with proc.stdin:
        proc.stdin.write(stdin)  # small enough for the pipe
    with proc.stdout:
        out = proc.stdout.read()
    _, wstatus, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(wstatus)  # reaped here, not by Popen
    if proc.returncode != status:
        shown = " ".join(a if len(a) < 40 else a[:20] + "..." for a in args)
        sys.exit(f"jointbus {shown}: exit {proc.returncode}, expected {status}")
    return out, usage.ru_maxrss / 1024


def expect(out, line):
    if line not in out.splitlines():
        sys.exit(f"no line {line!r} in:\n{out[:1000]}")


def round_trip(past, p_needed, seed, timeout):
    """Round trip a payload drawn from ``seed``; returns the larger max RSS."""
    k = jb.payload_size(past, p_needed)
    bits = "".join(map(str, np.random.default_rng(seed).integers(0, 2, k)))
    out, enc_rss = run("codec", "encode", "--past", past, "--payload", bits, "--seed", "3",
                       timeout=timeout)
    word = re.search(r"^word: *(\S+)$", out, re.M)[1]
    out, dec_rss = run("codec", "decode", "--past", past, "--received", word, "--seed", "3",
                       timeout=timeout)
    if out != f"payload: {bits}\n":
        sys.exit(f"a {len(past)}-wire round trip did not return its payload")
    return max(enc_rss, dec_rss)


def same_csv(*args):
    """``simulate args`` writes the same CSV with ``--jobs`` 1 and 2."""
    if len({run("simulate", *args, "--jobs", jobs)[0] for jobs in "12"}) != 1:
        sys.exit(f"simulate {' '.join(args)}: the CSVs of --jobs 1 and 2 differ")


def main():
    small = ("--past", "0010011000110100", "--seed", "5")
    out, _ = run("codec", "encode", *small, "--payload", "0000000000")
    expect(out, "word:         0000000000000000")
    expect(out, "payload bits: 10")
    expect(run("codec", "decode", *small, "--received", "0000000e00000000")[0],
           "payload: 0000000000")
    # all erased: the first iteration adds no knowledge, and the decode stops
    # there; a decode that leaves erasures prints these three lines and no others
    out = run("codec", "decode", *small, "--received", "e" * 16)[0]
    if out != f"word:               {'e' * 16}\nresidual erasures:  16\niterations:         1\n":
        sys.exit(f"an all-erased decode printed:\n{out}")
    # 10^5 wires that need 2 * 10^4 shield pairs: placement must not be quadratic
    run("codec", "decode", "--past", "0011" * 25000, "--received", "e" * 10**5, "--seed", "1",
        timeout=60)
    # a 10^5-wire round trip through the payload codec, at the width of the
    # codec_wide benchmark: about 50,000 radices in one product tree
    round_trip(str(jb.gen_past_uniform(10**5, np.random.default_rng(7))), 2 * 10**4, 8, timeout=120)
    # a round trip through one long run: on a 2 * 10^4-wire alternating past,
    # 4,000 shield pairs leave one 12,000-wire segment, which the per-run codec
    # unranks and ranks whole
    round_trip("01" * 10**4, 4000, 9, timeout=60)

    dist = re.search(r'\{"L": [^`\n]*\}', (Path(__file__).parents[1] / "README.md").read_text())[0]
    run("de", "--dist-file", "/dev/stdin", "--threshold", stdin=dist)
    expect(run("de", "--regular", "3,12", "--threshold")[0], "threshold: 0.2260742188 +- 0.001")

    # a process pool gives the CSV of a single process; its work unit is one
    # batch at every eps of the sweep. 250 trials are batches of 100, 100 and
    # 50 at N = 100, so the pool also runs a partial last batch, and 25 batches
    # of 10 at N = 1000 (info-bits mode also draws payload integers from each
    # stream)
    for mode in ("uniform-codeword", "info-bits"):
        same_csv("--regular", "3,12", "--blocklen", "100,1000", "--eps", "0:0.3:0.05",
                 "--trials", "250", "--seed", "1", "--mode", mode)
    # the same on a wide bus: 8 trials at N = 10^4 are 8 one-trial batches, which
    # the pool shares between its two workers
    same_csv("--regular", "3,12", "--blocklen", "10000", "--eps", "0.22:0.24:0.01", "--trials", "8",
             "--seed", "7")

    # one 10^6-wire trial peaked at 186 MiB when this guard was set (196 MiB with
    # int64 graph edges; 2-vCPU Xeon, Python 3.11, numpy 2.4): 256 MiB leaves 70
    # MiB (38%), about nine per-wire int64 arrays, for other Python and numpy builds
    _, peak = run("simulate", "--regular", "3,12", "--blocklen", "1000000", "--eps", "0.22",
                  "--trials", "1", "--seed", "1", "--jobs", "1", timeout=120)
    print(f"one 10^6-wire trial: {peak:.0f} MiB max RSS")
    if peak > 256:
        sys.exit("over the 256 MiB ceiling")
    # every trial decode runs to its fixed point: trial 5 resolves every wire
    # after 248 iterations, and a decode cut at 200 counted it a block error
    # (pe 0.8333333333, pb_code 0.0554085); about 10 s on a 2-vCPU Xeon
    expect(run("simulate", "--regular", "3,12", "--blocklen", "1000000", "--eps", "0.226",
               "--trials", "6", "--seed", "1", "--jobs", "1", timeout=120)[0],
           "1000000,0.226,6,0.04615483333,0.03941416667,0.6666666667,0,1")
    # on a 10^5-wire alternating past, 20,000 shield pairs leave one 60,000-wire
    # segment, which the codec unranks and ranks whole, and analyze counts the
    # whole run's codewords: 50 MiB when this guard was set (same machine), 212
    # MiB (codec) and 484 MiB (analyze) with a Fibonacci table grown to the run
    past = "01" * 50000
    peak = max(round_trip(past, 2 * 10**4, 10, timeout=120), run("analyze", past, timeout=120)[1])
    print(f"long-run codec and analyze: {peak:.0f} MiB max RSS")
    if peak > 128:
        sys.exit("over the 128 MiB ceiling")

    # a seed outside [0, 2**64) is refused, not wrapped onto another seed
    run("simulate", "--regular", "3,12", "--blocklen", "100", "--eps", "0.1", "--trials", "20",
        "--seed", "-1", status=3)
    # so is a code file whose weight is NaN, which once emptied L and crashed
    run("simulate", "--dist-file", "/dev/stdin", "--blocklen", "100", "--eps", "0.1",
        "--trials", "20", stdin='{"L": [[3, NaN]], "R": [[12, 1.0]]}', status=3)
    print("smoke passed")


if __name__ == "__main__":
    main()
