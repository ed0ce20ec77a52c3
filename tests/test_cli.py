import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointbus import (
    DegreeDistribution,
    build_layout,
    gen_past_uniform,
    payload_size,
    rate_ldpc,
    recc_from_rldpc,
    sample_graph,
    trial_rng,
)
from jointbus.cli import main

from helpers import out_of_range_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_console(argv):
    """Exit code, stdout and stderr of ``jointbus argv`` as the console
    script ends: a usage error's SystemExit code, or 1 with a traceback on
    stderr for an exception that escapes ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def test_python_m_jointbus_runs_the_cli():
    # the smoke script runs every command as ``python -m jointbus``
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "jointbus", "--version"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout) == (0, "jointbus 0.1.0\n")


def test_analyze_constant(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0000")
    assert code == 0
    assert "codeword count:   16" in out
    assert "cac rate:         1" in out
    assert "[1, 2, 3, 4]" in out


def test_analyze_alternating(capsys):
    code, out, _ = run_cli(capsys, "analyze", "0101")
    assert code == 0
    assert "codeword count:   8" in out
    assert "0.75" in out


def test_analyze_with_recc(capsys):
    state = str(gen_past_uniform(20_000, trial_rng(4, 0)))
    code, out, _ = run_cli(capsys, "analyze", state, "--recc", "0.9")
    assert code == 0
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        values[key.strip()] = val.strip()
    assert float(values["shielded rate"]) == pytest.approx(0.674, abs=0.005)
    assert float(values["embedded rate"]) == pytest.approx(0.724, abs=0.005)


def test_analyze_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "analyze", "01x1")
    assert code == 3
    assert "error:" in err


def test_de_threshold(capsys):
    code, out, _ = run_cli(capsys, "de", "--regular", "3,12", "--threshold",
                           "--tol-eps", "2e-3")
    assert code == 0
    value = float(out.split()[1])
    assert 0.223 <= value <= 0.229


def test_de_trajectory_zero(capsys):
    code, out, err = run_cli(capsys, "de", "--regular", "3,12", "--trajectory", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,x_ecc,y_ecc,x_p,y_p,x_cac,y_cac"
    assert len(lines) == 2  # header plus one success row
    assert "success" in err


def test_de_trajectory_stall(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, err = run_cli(capsys, "de", "--regular", "3,12", "--trajectory", "0.25",
                           "--out", str(out_path))
    assert code == 0
    assert "stall" in err
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) > 10
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["verdict"] == "stall"
    assert "version" in sidecar
    assert sidecar["config"]["tol_eps"] is None  # a --threshold setting


@pytest.mark.parametrize("eps", ["1.5", "-0.2", "nan"])
def test_de_trajectory_rejects_eps_outside_unit_interval(capsys, eps):
    code, out, err = run_cli(capsys, "de", "--regular", "3,12", "--trajectory", eps)
    assert code == 3
    assert out == ""
    assert f"eps must lie in [0, 1], got {float(eps)}" in err


def test_de_requires_distribution(capsys):
    code, _, err = run_cli(capsys, "de", "--threshold")
    assert code == 3
    assert "degree distribution" in err


def test_simulate_csv_deterministic(capsys, tmp_path):
    args = ["simulate", "--regular", "3,12", "--blocklen", "40,60",
            "--eps", "0:0.2:0.1", "--trials", "25", "--seed", "7", "--jobs", "1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "N,eps,trials,pb_code,pb_info,pe,insufficient_rate,seed"
    assert len(lines) == 1 + 2 * 3
    sidecar = json.loads((p1.with_suffix(".csv.json")).read_text())
    assert sidecar["config"]["trials"] == 25


def test_simulate_csv_bytes_pinned(capsys):
    # fixed-seed CSV bytes are part of the contract: a decoder or engine
    # change that moves them shows here. The modified-ensemble info-bits
    # row encodes each payload on the trial's own part-2 parity layout.
    args = ["simulate", "--regular", "3,12", "--blocklen", "100,1000", "--seed", "7",
            "--jobs", "1"]
    short = ["--eps", "0:0.3:0.1", "--trials", "60"]
    modified = ["--ensemble", "modified"]
    for extra, digest in [
        (["--eps", "0:0.3:0.05", "--trials", "200"],
         "4369a725493c122ae3546948b774410204b6f683b74ed35c47b23311abae9176"),
        (short + ["--mode", "info-bits"],
         "7ac5dcd2b8158b3154be5cd3fd46a911f2e8193612da2547870ba03966358ede"),
        (short + modified,
         "366ac8cd845aad54a4eafbd073e4938273273694a16b13a67e7dbf1bd5101c88"),
        (short + modified + ["--mode", "info-bits"],
         "0ba7993ebadcfb05ae856b898f37585cbb2c5f22189dcc88cbcaee41b2b903e8"),
    ]:
        code, out, _ = run_cli(capsys, *args, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


def test_simulate_csv_bytes_pinned_at_ten_thousand_wires(capsys):
    # one trial per decoder call across the waterfall (pe 0 / 0.375 / 0.75
    # / 1 / 1): the wide-bus decoder path and the one-trial builder
    code, out, _ = run_cli(capsys, "simulate", "--regular", "3,12", "--blocklen", "10000",
                           "--eps", "0.22:0.24:0.005", "--trials", "8", "--seed", "7",
                           "--jobs", "1")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "df481b0dcfa97e9cf5e74af605ef107b9a837f2869b8166c6cfa6f7e56e89a33")


@pytest.mark.parametrize("ensemble", ["uniform", "modified"])
@pytest.mark.parametrize("mode", ["uniform-codeword", "info-bits"])
def test_simulate_sweep_is_one_run_per_eps(capsys, ensemble, mode):
    # a sweep builds each batch once and decodes it at every eps; its rows
    # are those of one run per (N, eps), with one process or a pool of two
    args = ["--regular", "3,12", "--trials", "120", "--seed", "5", "--ensemble", ensemble,
            "--mode", mode]
    rows = []
    for n in ("100", "1000"):
        for eps in ("0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3"):
            code, out, _ = run_cli(capsys, "simulate", *args, "--blocklen", n, "--eps", eps,
                                   "--jobs", "1")
            assert code == 0
            header, row = out.splitlines(keepends=True)
            rows.append(row)
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "simulate", *args, "--blocklen", "100,1000",
                               "--eps", "0:0.3:0.05", "--jobs", jobs)
        assert code == 0
        assert out == header + "".join(rows), jobs


@pytest.mark.parametrize("code_flag", ["--regular", "--dist-file"])
def test_de_bytes_pinned(capsys, tmp_path, code_flag):
    # the trajectory CSV bytes below and above the threshold, and the
    # threshold line, of the (3,12) code and of the README's irregular code
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"L": [[3, 1.0]], "R": [[11, 0.5], [13, 0.5]]}))
    code_args = [code_flag, "3,12" if code_flag == "--regular" else str(dist)]
    digests = {
        "--regular": {
            "0.2": "5c7bad6ee92c7df8fc131efef35bb9706bb719fc6871d8afc949167a72d45ccd",
            "0.25": "d56533e6b0ec4e98b20019564e02880be6aca7aca1bc7fca370c2c1b7bc48800"},
        "--dist-file": {
            "0.2": "4ae76b423612428010228e5428c50505a5e4531a3e12b8114841aa976ba1349c",
            "0.25": "2fcbee354071392b0f409a6fb27c69d65dfc26feb6de2423c55d2cdab8d34ee0"},
    }[code_flag]
    for eps, lines, verdict in [("0.2", 16, "success"), ("0.25", 58, "stall")]:
        code, out, err = run_cli(capsys, "de", *code_args, "--trajectory", eps)
        assert code == 0
        assert f"verdict: {verdict}" in err
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digests[eps], eps
    code, out, _ = run_cli(capsys, "de", *code_args, "--threshold")
    assert code == 0
    assert out == "threshold: 0.2260742188 +- 0.001\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = run_cli(capsys, "simulate", "--regular", "3,12", "--blocklen", "100",
                             "--eps", "0.1", "--trials", "5", "--jobs", jobs)
    assert code == 3
    assert "jobs must be >= 1" in err
    assert out == ""


def test_simulate_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "regular": "3,12", "blocklen": "40", "eps": "0.1", "trials": 10, "seed": 3,
    }))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0].startswith("N,eps")
    # flags override the file
    code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--trials", "5")
    assert code == 0
    assert ",5," in out2.splitlines()[1]


def test_simulate_distribution_flag_replaces_config_distribution(tmp_path):
    # a code flag overrides the config file's code (here one that would be
    # rejected), and a config file may not name two codes
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"L": [[3, 1.0]], "R": [[11, 0.5], [13, 0.5]]}))
    run = {"blocklen": "40", "eps": "0.1", "trials": 2, "jobs": 1}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**run, "regular": "2,4"}))
    code, out, err = run_console(["simulate", "--config", str(cfg), "--dist-file", str(dist)])
    assert code == 0, err
    assert out.startswith("N,eps")
    cfg.write_text(json.dumps({**run, "regular": "3,12", "dist_file": str(dist)}))
    code, out, err = run_console(["simulate", "--config", str(cfg)])
    assert code == 3 and out == ""
    assert "keys 'regular' and 'dist_file' are mutually exclusive" in err


def test_simulate_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"blocklen": "40", "eps": "0.1", "trials": 5,
                               "regular": "3,12", "blocklength": 9}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 3
    assert "'blocklength'" in err


def test_simulate_missing_required(capsys):
    code, _, err = run_cli(capsys, "simulate", "--regular", "3,12", "--eps", "0.1")
    assert code == 3
    assert "'blocklen'" in err or "'trials'" in err


def test_simulate_refuses_a_graph_too_wide_for_int32_before_allocating():
    # 10^9 wires need 2.4 * 10^9 sockets: refused from the counts, before a
    # socket range of 17.9 GiB is allocated, so a 2 GiB address space is enough
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "jointbus", "simulate", "--regular", "3,12", "--blocklen",
         "1000000000", "--eps", "0.1", "--trials", "1", "--jobs", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 3, done.stderr
    assert "does not fit int32 indices" in done.stderr
    assert "Traceback" not in done.stderr


def test_simulate_modified_ensemble(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--regular", "3,12", "--blocklen", "200",
                           "--eps", "0.05", "--trials", "10", "--seed", "1",
                           "--ensemble", "modified", "--jobs", "1")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "200" and row[2] == "10"
    # modified draws never lack parity wires
    assert float(row[6]) == 0.0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_rejects_recc(tmp_path, source):
    # the modified ensemble takes its rate from the code: a second rate
    # is a usage error as a flag and an unknown key in a config file
    argv = ["simulate", "--regular", "3,12", "--blocklen", "200", "--eps", "0.05",
            "--trials", "5", "--ensemble", "modified", "--jobs", "1"]
    if source == "flag":
        code, out, err = run_console(argv + ["--recc", "0.8"])
        assert code == 2 and "unrecognized arguments: --recc 0.8" in err
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"recc": 0.8}))
        code, out, err = run_console(argv + ["--config", str(cfg)])
        assert code == 3 and "unknown config key: 'recc'" in err
    assert out == "" and "Traceback" not in err


def test_codec_roundtrip(capsys):
    past = "0010011000110100"
    k = payload_size(past, round(16 * 0.2))
    payload = "".join(str(b) for b in np.random.default_rng(0).integers(0, 2, k))
    code, out, _ = run_cli(capsys, "codec", "encode", "--past", past,
                           "--payload", payload, "--seed", "5")
    assert code == 0
    word = [l.split()[-1] for l in out.splitlines() if l.startswith("word:")][0]
    code, out, _ = run_cli(capsys, "codec", "decode", "--past", past,
                           "--received", word, "--seed", "5")
    assert code == 0
    assert out.strip() == f"payload: {payload}"


@pytest.mark.parametrize("past, seed, payload, roles", [
    ("0101010101010101", "1", "0" * 7, ["parity wires: []",
                                        "shield pairs: [(11, 12), (13, 14), (15, 16)]"]),
    ("0010011000110100", "5", "0" * 10, ["parity wires: [1, 9, 16]", "shield pairs: []"]),
])
def test_codec_encode_prints_wire_roles(capsys, past, seed, payload, roles):
    # 1-based parity wires (shield slots excluded) and shield pairs of the layout
    code, out, _ = run_cli(capsys, "codec", "encode", "--past", past,
                           "--payload", payload, "--seed", seed)
    assert code == 0
    assert out.splitlines() == ["word:         0000000000000000",
                                f"payload bits: {len(payload)}", *roles]


@pytest.mark.parametrize("past, seed, payload, word", [
    ("0101010101010101", "1", "1011001", "1100000000000100"),  # three shield pairs
    ("0010011000110100", "5", "1101001110", "0110111100011101"),
    ("01", "0", "1", "01"),  # no parity
])
def test_codec_word_pinned(capsys, past, seed, payload, word):
    # a payload with ones gives parities that depend on the graph drawn
    # from --seed, so these words pin the code instance, not just the layout
    code, out, _ = run_cli(capsys, "codec", "encode", "--past", past,
                           "--payload", payload, "--seed", seed)
    assert code == 0
    assert out.splitlines()[0] == f"word:         {word}"
    code, out, _ = run_cli(capsys, "codec", "decode", "--past", past,
                           "--received", word, "--seed", seed)
    assert code == 0
    assert out == f"payload: {payload}\n"


def test_codec_decode_with_erasure(capsys):
    past = "0010011000110100"
    k = payload_size(past, 3)
    payload = "0" * k
    code, out, _ = run_cli(capsys, "codec", "encode", "--past", past,
                           "--payload", payload, "--seed", "5")
    word = [l.split()[-1] for l in out.splitlines() if l.startswith("word:")][0]
    # erase one wire; the code recovers it
    received = word[:3] + "e" + word[4:]
    code, out, _ = run_cli(capsys, "codec", "decode", "--past", past,
                           "--received", received, "--seed", "5")
    assert code == 0
    assert out.strip() == f"payload: {payload}"


def test_codec_decode_all_erased(capsys):
    past = "0010011000110100"
    code, out, _ = run_cli(capsys, "codec", "decode", "--past", past,
                           "--received", "e" * 16, "--seed", "5")
    assert code == 0
    # nothing can be learned, so the decode stops after its first iteration;
    # a decode that leaves erasures prints these three lines and no others
    assert out == ("word:               eeeeeeeeeeeeeeee\n"
                   "residual erasures:  16\n"
                   "iterations:         1\n")


INCONSISTENT_WORDS = [
    ("0010011000110100", "5", "1000000000000000", "parity check 1 fails (parity wire 1)"),
    ("0010011000110100", "5", "0000000010000000", "parity check 2 fails (parity wire 9)"),
    ("0010011000110100", "5", "0000000000000001", "parity check 3 fails (parity wire 16)"),
    ("0010011000110100", "5", "0100000000000000", "wires 2 and 3 make opposing transitions"),
    ("0010011000110100", "5", "0111111101111111",
     "word index 1079 falls outside the used range [0, 2**10)"),
    ("0101010101010101", "1", "1100000000100100",
     "wire 11 is pinned to its past bit 0 but 1 was received"),
]


# a case is named by its received word and fault alone, so that it keeps
# its name when the table gains a column
@pytest.mark.parametrize("past, seed, received, fault", INCONSISTENT_WORDS,
                         ids=[f"{received}-{fault}" for _, _, received, fault in INCONSISTENT_WORDS])
def test_codec_decode_rejects_inconsistent_word(capsys, past, seed, received, fault):
    # the all-zero codeword of payload 0000000000 with one wire flipped:
    # parity wires 1, 9, 16 or information wire 2; then a word that passes
    # every crosstalk and parity check but indexes past the payload range;
    # last, on a past with no free wire, the codeword of payload 1011001
    # with the pinned wire of a shield pair flipped
    code, out, err = run_cli(capsys, "codec", "decode", "--past", past,
                             "--received", received, "--seed", seed)
    assert code == 3
    assert out == ""
    assert fault in err


def test_codec_decode_out_of_range_on_a_wide_bus(capsys, int_digit_limit):
    # a 2 * 10**4-wire word that keeps every check but indexes past the
    # payload range: the message names the index by its bit length, as
    # its decimal form has more digits than the interpreter converts
    past = gen_past_uniform(20_000, np.random.default_rng(6)).bits
    dist = DegreeDistribution.regular(3, 30)
    # the instance the CLI builds from --seed 1
    layout = build_layout(past, round(past.size * (1 - recc_from_rldpc(rate_ldpc(dist)))))
    graph = sample_graph(layout.num_info, layout.num_parity, dist, trial_rng(1, 0))
    word = out_of_range_word(past, layout, graph)
    k = payload_size(past, layout.num_parity)
    code, out, err = run_cli(capsys, "codec", "decode", "--regular", "3,30",
                             "--past", "".join(map(str, past.tolist())),
                             "--received", "".join(map(str, word.tolist())), "--seed", "1")
    assert code == 3 and out == ""
    assert f"-bit word index falls outside the used range [0, 2**{k})" in err
    assert "Exceeds the limit" not in err


def test_codec_wrong_payload_length(capsys):
    code, _, err = run_cli(capsys, "codec", "encode", "--past", "00000000",
                           "--payload", "1", "--seed", "0")
    assert code == 3
    assert "exactly" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["de"])
    assert exc.value.code == 2


PAST = "0010011000110100"
MISSING = "/nonexistent/dist.json"
MISSING_DIR_OUT = "/nonexistent/dir/x.csv"
SIM = ["simulate", "--blocklen", "20", "--eps", "0.1", "--trials", "2", "--jobs", "1"]
CODEC_ENCODE = ["codec", "encode", "--past", PAST, "--seed", "5"]
CODEC_DECODE = ["codec", "decode", "--past", PAST, "--seed", "5"]
CONFIG = {"regular": "3,12", "blocklen": "20", "eps": "0.1", "trials": 2, "jobs": 1}


@pytest.mark.parametrize("argv, exit_code, flag", [
    # distribution flags: one of the two, each one read
    pytest.param(["codec", "encode", "--past", PAST, "--payload", "0" * 10,
                  "--dist-file", MISSING], 3, "--dist-file", id="codec-missing-dist-file"),
    pytest.param(["codec", "decode", "--past", PAST, "--received", "0" * 16,
                  "--regular", "3,12", "--dist-file", MISSING], 2, "--dist-file",
                 id="codec-two-codes"),
    pytest.param(["de", "--regular", "3,12", "--dist-file", MISSING, "--threshold"],
                 2, "--dist-file", id="de-two-codes"),
    pytest.param(["de", "--dist-file", MISSING, "--threshold"], 3, "--dist-file",
                 id="de-missing-dist-file"),
    pytest.param(SIM + ["--regular", "3,12", "--dist-file", MISSING], 2, "--dist-file",
                 id="simulate-two-codes"),
    pytest.param(SIM + ["--dist-file", MISSING], 3, "--dist-file",
                 id="simulate-missing-dist-file"),
    pytest.param(["simulate", "--config", "/nonexistent.json"], 3, "--config",
                 id="simulate-missing-config"),
    # inputs checked before any work starts
    pytest.param(SIM + ["--regular", "3,12", "--out", MISSING_DIR_OUT], 3, "--out",
                 id="simulate-out-in-missing-dir"),
    pytest.param(["de", "--regular", "3,12", "--threshold", "--out", MISSING_DIR_OUT],
                 3, "--out", id="de-out-in-missing-dir"),
    pytest.param(["simulate", "--regular", "3,12", "--blocklen", "20", "--eps", "0.3:0.1:0.1",
                  "--trials", "2"], 3, "--eps", id="simulate-descending-eps-grid"),
    pytest.param(["analyze", "01100100", "--recc", "0"], 3, "--recc", id="analyze-recc-0"),
    pytest.param(["analyze", "01100100", "--recc", "1.5"], 3, "--recc", id="analyze-recc-1.5"),
    pytest.param(["analyze", "0101010101", "--recc", "0.8"], 3, "--recc",
                 id="analyze-free-wires-short-of-recc"),
    # a grid is counted before it is built
    pytest.param(["simulate", "--regular", "3,12", "--blocklen", "20", "--eps", "0:1:1e-6",
                  "--trials", "2"], 3, "--eps", id="simulate-eps-grid-too-fine"),
    pytest.param(["simulate", "--regular", "3,12", "--blocklen", "20", "--eps", "0:1:1e-320",
                  "--trials", "2"], 3, "--eps", id="simulate-eps-step-underflows"),
    # the bisection tolerance is finite and reachable in doubles
    *[pytest.param(["de", "--regular", "3,12", "--threshold", "--tol-eps", tol], 3,
                   "--tol-eps", id=f"de-tol-eps-{tol}") for tol in ("nan", "inf", "1e-300", "0")],
    # and it sets nothing but the bisection
    pytest.param(["de", "--regular", "3,12", "--trajectory", "0.1", "--tol-eps", "nan"], 3,
                 "--tol-eps", id="de-trajectory-tol-eps"),
    # the code's rate is checked where the code is read, under its flag
    pytest.param(["de", "--regular", "2,3", "--threshold"], 3, "--regular", id="de-rate"),
    pytest.param(SIM + ["--regular", "3,3"], 3, "--regular", id="simulate-rate"),
    pytest.param(["simulate", "--config", {**CONFIG, "regular": "3,3"}], 3, "--regular",
                 id="simulate-config-rate"),
    pytest.param(CODEC_ENCODE + ["--payload", "0", "--regular", "2,3"], 3, "--regular",
                 id="codec-rate"),
    pytest.param(["de", "--regular", "3,12", "--threshold", "--dmax", "64"], 2, "--dmax",
                 id="de-dmax-gone"),
    # codec strings and lengths
    pytest.param(CODEC_ENCODE + ["--payload", "01a"], 3, "--payload", id="codec-payload-letter"),
    pytest.param(CODEC_ENCODE + ["--payload", "012"], 3, "--payload", id="codec-payload-digit"),
    pytest.param(CODEC_ENCODE + ["--payload", "0101"], 3, "--payload",
                 id="codec-payload-length"),
    pytest.param(["codec", "encode", "--past", "01x1", "--payload", "0"], 3, "--past",
                 id="codec-encode-past-letter"),
    pytest.param(["codec", "decode", "--past", "01x1", "--received", "0000"], 3, "--past",
                 id="codec-decode-past-letter"),
    pytest.param(CODEC_DECODE + ["--received", "0x"], 3, "--received",
                 id="codec-received-letter"),
    pytest.param(CODEC_DECODE + ["--received", "0é" + "0" * 14], 3, "--received",
                 id="codec-received-non-ascii"),
    pytest.param(CODEC_DECODE + ["--received", "0101"], 3, "--received",
                 id="codec-received-length"),
    pytest.param(CODEC_DECODE + ["--received", "1" + "0" * 15], 3, "--received",
                 id="codec-received-not-a-codeword"),
    # integer config keys take JSON integers only
    pytest.param(["simulate", "--config", {**CONFIG, "trials": 2.7}], 3, "--config",
                 id="config-trials-float"),
    pytest.param(["simulate", "--config", {**CONFIG, "seed": 1.9}], 3, "--config",
                 id="config-seed-float"),
    pytest.param(["simulate", "--config", {**CONFIG, "jobs": 1.5}], 3, "--config",
                 id="config-jobs-float"),
    pytest.param(["simulate", "--config", {**CONFIG, "jobs": True}], 3, "--config",
                 id="config-jobs-bool"),
    # the library's own checks, each under the flag that set the value
    pytest.param(["de", "--regular", "3,12", "--trajectory", "1.5"], 3, "--trajectory",
                 id="de-trajectory-eps"),
    pytest.param(["simulate", "--regular", "3,12", "--blocklen", "0", "--eps", "0.1",
                  "--trials", "2"], 3, "--blocklen", id="simulate-blocklen-0"),
    pytest.param(["simulate", "--regular", "3,12", "--blocklen", "20", "--eps", "0.1",
                  "--trials", "0"], 3, "--trials", id="simulate-trials-0"),
    pytest.param(SIM[:-1] + ["0", "--regular", "3,12"], 3, "--jobs", id="simulate-jobs-0"),
    pytest.param(["simulate", "--config", {**CONFIG, "mode": "bits"}], 3, "--mode",
                 id="config-mode-bits"),
    pytest.param(["simulate", "--config", {**CONFIG, "ensemble": "flat"}], 3, "--ensemble",
                 id="config-ensemble-flat"),
    pytest.param(["simulate", "--config", {**CONFIG, "jobs": 0}], 3, "--jobs",
                 id="config-jobs-0"),
    # a seed is one 64-bit key word: none wraps around onto another seed's streams
    *[pytest.param(argv + ["--seed", str(seed)], 3, "--seed", id=f"{name}-seed-{seed}")
      for name, argv in [
          ("simulate", SIM + ["--regular", "3,12"]),
          ("codec-encode", ["codec", "encode", "--past", PAST, "--payload", "0" * 10]),
          ("codec-decode", ["codec", "decode", "--past", PAST, "--received", "0" * 16])]
      for seed in (-1, 2**64)],
    *[pytest.param(["simulate", "--config", {**CONFIG, "seed": seed}], 3, "--seed",
                   id=f"config-seed-{seed}") for seed in (-1, 2**64)],
])
def test_cli_rejects_bad_input_by_flag(tmp_path, argv, exit_code, flag):
    # a dict in argv stands for a config file holding it
    config = tmp_path / "run.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    code, out, err = run_console([str(config) if isinstance(a, dict) else a for a in argv])
    assert code == exit_code, err
    assert "Traceback" not in err
    assert flag in err.partition("error:")[2].splitlines()[0]
    assert out == ""


@pytest.mark.parametrize("argv, bad", [
    (CODEC_ENCODE + ["--payload", "0000000002"], "0000000002"),
    (CODEC_ENCODE + ["--payload", "01a"], "01a"),
    (["analyze", "0120"], "0120"),
])
def test_bit_string_has_one_message(argv, bad):
    # any character but 0 and 1, a digit too, fails the parse with one message
    code, out, err = run_console(argv)
    assert code == 3 and out == ""
    assert f"bit string may contain only 0 and 1, got {bad!r}" in err


@pytest.mark.parametrize("source", ["de", "simulate", "simulate-config", "de-regular",
                                    "simulate-regular", "codec-regular"])
def test_dist_file_rate_is_named(tmp_path, source):
    # a --dist-file code of front-end rate 0 is rejected before any work,
    # under its flag, whether given on the command line or in --config; so
    # is the 2,6 code, whose front-end rate rounds to 0.6666666666666667,
    # above 2/3, and whose overall rate rounds to 3/4, which the threshold
    # refuses: every command refuses it alike, under --regular
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"L": [[3, 1.0]], "R": [[3, 1.0]]}))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"dist_file": str(dist), "blocklen": "20", "eps": "0.1",
                                  "trials": 2, "jobs": 1}))
    regular = ["--regular", "2,6"]
    argv = {"de": ["de", "--threshold", "--dist-file", str(dist)],
            "simulate": SIM + ["--dist-file", str(dist)],
            "simulate-config": ["simulate", "--config", str(config)],
            "de-regular": ["de", "--threshold"] + regular,
            "simulate-regular": SIM + regular,
            "codec-regular": CODEC_ENCODE + ["--payload", "0000000000"] + regular}[source]
    flag, rate = ("--regular", "0.6666666666666667") if source.endswith("regular") else (
        "--dist-file", "0.0")
    code, out, err = run_console(argv)
    assert code == 3 and out == ""
    assert f"error: {flag}: front-end rate must lie in (2/3, 1], got {rate}" in err


@pytest.mark.parametrize("command", ["de", "simulate", "codec"])
@pytest.mark.parametrize("L", ["[[3, NaN]]", "[[3, Infinity]]", "[[3, 1e308], [4, 1e308]]",
                               "[[3.7, 1.0]]", "[[true, 1.0]]", '[["3", 1.0]]'],
                         ids=["nan", "inf", "overflow", "float-degree", "bool-degree",
                              "string-degree"])
def test_dist_file_values_are_checked_as_given(tmp_path, command, L):
    # pairs reach the code as the file gives them: a degree of 3.7 or true
    # once ran as 3 or 1, a NaN weight emptied L (a threshold of 0.9995 or an
    # IndexError), and an overflowing mass divided by zero
    dist = tmp_path / "dist.json"
    dist.write_text(f'{{"L": {L}, "R": [[12, 1.0]]}}')
    argv = {"de": ["de", "--threshold"], "simulate": SIM,
            "codec": CODEC_ENCODE + ["--payload", "0000000000"]}[command]
    code, out, err = run_console(argv + ["--dist-file", str(dist)])
    assert (code, out) == (3, ""), err
    assert "Traceback" not in err
    assert "error: --dist-file: " in err


@pytest.mark.parametrize("flag", ["--regular", "--dist-file"])
def test_degree_too_large_for_a_float_is_named(tmp_path, flag):
    # a degree past the largest float once escaped as an OverflowError
    # traceback with exit 1, where it meets its weight
    degree = 10**400
    dist = tmp_path / "dist.json"
    dist.write_text(f'{{"L": [[3, 1.0]], "R": [[{degree}, 1.0]]}}')
    value = f"3,{degree}" if flag == "--regular" else str(dist)
    code, out, err = run_console(["de", "--threshold", flag, value])
    assert (code, out) == (3, ""), err
    assert f"error: {flag}: degree must be at most {sys.float_info.max}, got {degree}" in err


def _arg(flag, values):
    """The flag with its first (valid) value or with any value."""
    return st.one_of(st.just([flag, values[0]]), st.sampled_from(values).map(lambda v: [flag, v]))


def _opt(flag, values):
    """The flag left out, or ``_arg``."""
    return st.one_of(st.just([]), _arg(flag, values))


# stands for a code file whose L weight is NaN, written once per module
NAN_DIST = "<nan-weight dist file>"
_DIST = st.one_of(_opt("--regular", ["3,12", "4,40", "2,4", "0,0", "3,0", "x", ""]),
                  _opt("--dist-file", [MISSING, NAN_DIST]),
                  st.just(["--regular", "3,12", "--dist-file", MISSING]))
_OUT = _opt("--out", [MISSING_DIR_OUT])
_ARGV = st.one_of(
    st.tuples(st.just(["analyze"]),
              st.sampled_from([["01100100"], ["0101"], ["01x1"], [""], []]),
              _opt("--recc", ["0.9", "1", "0", "1.5", "-1", "nan", "x"])),
    st.tuples(st.just(["de"]), _DIST,
              st.sampled_from([["--threshold", "--tol-eps", "0.25"],
                               ["--threshold", "--tol-eps", "0"],
                               ["--threshold", "--tol-eps", "nan"],
                               ["--threshold", "--tol-eps", "inf"],
                               ["--threshold", "--tol-eps", "1e-300"],
                               ["--trajectory", "0.1"], ["--trajectory", "1.5"],
                               ["--trajectory", "0.1", "--tol-eps", "nan"],
                               ["--trajectory", "nan"], ["--trajectory", "x"],
                               ["--threshold", "--trajectory", "0.1"], []]),
              _OUT),
    st.tuples(st.just(["simulate"]), _DIST,
              _arg("--blocklen", ["20", "8,12", "0", "-4", "x", ""]),
              _arg("--eps", ["0", "0.1,1", "0:0.2:0.1", "0.3:0.1:0.1", "0:1:0", "0:inf:1",
                             "0:1:1e-6", "0:1:1e-320", "1.5", "nan", "x"]),
              _arg("--trials", ["2", "0"]), _opt("--seed", ["0", "-1"]),
              _opt("--mode", ["info-bits"]), _opt("--ensemble", ["modified"]),
              _opt("--jobs", ["1", "0"]), _opt("--config", [MISSING]), _OUT),
    st.tuples(st.just(["codec"]), st.sampled_from([["encode"], ["decode"], ["x"]]),
              _arg("--past", [PAST, "0101010101010101", "0000", "01x1", ""]), _DIST,
              _opt("--seed", ["5", "-1"]),
              _opt("--payload", ["0" * 10, "0" * 7, "1", "01x", ""]),
              _opt("--received", ["0000000e00000000", "e" * 16, "1" + "0" * 15, "01", "0x"])),
)


@pytest.fixture(scope="module")
def nan_dist(tmp_path_factory):
    path = tmp_path_factory.mktemp("dist") / "nan.json"
    path.write_text('{"L": [[3, NaN]], "R": [[12, 1.0]]}')
    return str(path)


@settings(max_examples=150, deadline=None)
@given(_ARGV.map(lambda parts: [arg for part in parts for arg in part]))
def test_cli_exit_code_is_0_2_or_3_without_traceback(nan_dist, argv):
    # every argv of a small grammar, bad values included, ends in success,
    # a usage error or a named validation failure, never an escaped exception
    argv = [nan_dist if arg == NAN_DIST else arg for arg in argv]
    code, _, err = run_console(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
