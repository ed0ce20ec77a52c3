import hashlib
import json

import numpy as np
import pytest

from jointbus import gen_past_uniform, payload_size, trial_rng
from jointbus.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    modified = ["--ensemble", "modified", "--recc", "0.8"]
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


def test_simulate_modified_ensemble(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--regular", "3,12", "--blocklen", "200",
                           "--eps", "0.05", "--trials", "10", "--seed", "1",
                           "--ensemble", "modified", "--recc", "0.8", "--jobs", "1")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "200" and row[2] == "10"
    # modified draws never lack parity wires
    assert float(row[6]) == 0.0


def test_simulate_modified_requires_recc(capsys):
    code, _, err = run_cli(capsys, "simulate", "--regular", "3,12", "--blocklen", "200",
                           "--eps", "0.05", "--trials", "5", "--ensemble", "modified")
    assert code == 3
    assert "r_ecc" in err


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
    assert "residual erasures:" in out
    residual = int([l.split()[-1] for l in out.splitlines()
                    if l.startswith("residual erasures:")][0])
    assert residual > 0


@pytest.mark.parametrize("received, fault", [
    ("1000000000000000", "parity check 1 fails (parity wire 1)"),
    ("0000000010000000", "parity check 2 fails (parity wire 9)"),
    ("0000000000000001", "parity check 3 fails (parity wire 16)"),
    ("0100000000000000", "wires 2 and 3 make opposing transitions"),
    ("0111111101111111", "word index 1079 falls outside the used range [0, 2**10)"),
])
def test_codec_decode_rejects_inconsistent_word(capsys, received, fault):
    # the all-zero codeword of payload 0000000000 with one wire flipped:
    # parity wires 1, 9, 16 or information wire 2; last, a word that passes
    # every crosstalk and parity check but indexes past the payload range
    code, out, err = run_cli(capsys, "codec", "decode", "--past", "0010011000110100",
                             "--received", received, "--seed", "5")
    assert code == 3
    assert out == ""
    assert fault in err


def test_codec_wrong_payload_length(capsys):
    code, _, err = run_cli(capsys, "codec", "encode", "--past", "00000000",
                           "--payload", "1", "--seed", "0")
    assert code == 3
    assert "exactly" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["de"])
    assert exc.value.code == 2
