"""Command-line front end: analysis, density evolution, simulation, codec.

Every command is deterministic given its flags and seed; simulation and
trajectory outputs are CSV with a fixed column order, and each file-writing
run drops a JSON sidecar holding the resolved configuration and package
version. Exit codes: 0 success, 2 usage error, 3 constraint or validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .buscore import BusState, free_wires, parse_runs
from .bpdecode import ErasureWord, bp_decode, build_factor_graph
from .cac import cac_rate, count_codewords, _payload_bits
from .densevo import DeModel, de_threshold, de_trajectory
from .ira import DegreeDistribution, rate_ldpc, recc_from_rldpc
from .jointcode import embedded_encode, rate_embedded, rate_shielded
from .simkit import EnsembleSpec, SimConfig, build_instances, run_trials

SIM_COLUMNS = ["N", "eps", "trials", "pb_code", "pb_info", "pe", "insufficient_rate", "seed"]
TRAJ_COLUMNS = ["iteration", "x_ecc", "y_ecc", "x_p", "y_p", "x_cac", "y_cac"]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_dist(args: argparse.Namespace) -> DegreeDistribution:
    if getattr(args, "regular", None):
        return DegreeDistribution.parse(args.regular)
    if getattr(args, "dist_file", None):
        with open(args.dist_file) as fh:
            spec = json.load(fh)
        try:
            return DegreeDistribution(
                tuple((int(d), float(w)) for d, w in spec["L"]),
                tuple((int(d), float(w)) for d, w in spec["R"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "distribution file must hold node-perspective pairs under keys 'L' and 'R'"
            ) from exc
    raise ValueError("a degree distribution is required: pass --regular dv,dc or --dist-file")


def _write_rows(path: Optional[str], header: list[str], rows: list[list[str]],
                sidecar: Optional[dict] = None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        if sidecar is not None:
            with open(path + ".json", "w") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if sidecar is not None:
            sys.stderr.write(json.dumps(sidecar, sort_keys=True) + "\n")


def _sidecar(args: argparse.Namespace, extra: dict) -> dict:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    return {"version": __version__, "config": resolved, **extra}


def _parse_eps_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"eps grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("eps grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        return [round(start + i * step, 12) for i in range(count) if start + i * step <= stop + 1e-12]
    return [float(p) for p in spec.split(",")]


def cmd_analyze(args: argparse.Namespace) -> int:
    state = BusState(args.state)
    runs = parse_runs(state)
    free = free_wires(state)
    r_cac = cac_rate(state)
    count = count_codewords(state)
    if count.bit_length() <= 128:
        count_str = str(count)
    else:
        count_str = f"about 2**{r_cac * len(state):.1f} ({count.bit_length()} bits)"
    print(f"wires:            {len(state)}")
    if len(state) <= 256:
        print(f"run lengths:      {list(runs.run_lengths)}")
        print(f"free wires:       {list(free)}")
    else:
        print(f"runs:             {len(runs.run_lengths)}")
        print(f"free wires:       {len(free)}")
    print(f"codeword count:   {count_str}")
    print(f"cac rate:         {_fmt(r_cac)}")
    if args.recc is not None:
        r_s = rate_shielded(r_cac, args.recc)
        r_e = rate_embedded(r_cac, args.recc)
        print(f"shielded rate:    {_fmt(r_s)}")
        print(f"embedded rate:    {_fmt(r_e)}")
        print(f"margin:           {_fmt(r_e - r_s)}")
    return 0


def cmd_de(args: argparse.Namespace) -> int:
    dist = _load_dist(args)
    r_ecc = recc_from_rldpc(rate_ldpc(dist))
    model = DeModel.for_code(dist, r_ecc, d_max=args.dmax)
    if args.threshold:
        value = de_threshold(model, tol_eps=args.tol_eps)
        print(f"threshold: {_fmt(value)} +- {_fmt(args.tol_eps)}")
        if args.out:
            _write_rows(
                args.out,
                ["threshold", "tol_eps", "r_ecc"],
                [[_fmt(value), _fmt(args.tol_eps), _fmt(r_ecc)]],
                _sidecar(args, {}),
            )
        return 0
    states, verdict = de_trajectory(args.trajectory, model)
    rows = [
        [str(i + 1), _fmt(s.x_ecc), _fmt(s.y_ecc), _fmt(s.x_p), _fmt(s.y_p),
         _fmt(s.x_cac), _fmt(s.y_cac)]
        for i, s in enumerate(states)
    ]
    _write_rows(args.out, TRAJ_COLUMNS, rows, _sidecar(args, {"verdict": verdict}))
    print(f"verdict: {verdict} after {len(states)} iterations", file=sys.stderr)
    return 0


_SIM_KEYS = {
    "blocklen": str, "eps": str, "trials": int, "seed": int, "mode": str,
    "ensemble": str, "recc": float, "regular": str, "dist_file": str,
    "jobs": int, "out": str,
}
_SIM_DEFAULTS = {"seed": 0, "mode": "uniform-codeword", "ensemble": "uniform",
                 "jobs": os.cpu_count() or 1}


def _resolve_sim_config(args: argparse.Namespace) -> dict:
    """Merge flags over the optional JSON config; flags win. Unknown config
    keys are rejected by name."""
    resolved: dict = dict(_SIM_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _SIM_KEYS:
                raise ValueError(f"unknown config key: {key!r}")
            resolved[key] = _SIM_KEYS[key](value) if value is not None else None
    for key in _SIM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    for key in ("blocklen", "eps", "trials"):
        if resolved.get(key) is None:
            raise ValueError(f"missing required setting: {key!r}")
    return resolved


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_sim_config(args)
    dist_args = argparse.Namespace(regular=cfg.get("regular"), dist_file=cfg.get("dist_file"))
    dist = _load_dist(dist_args)
    eps_grid = _parse_eps_grid(str(cfg["eps"]))
    blocklens = [int(p) for p in str(cfg["blocklen"]).split(",")]
    rows = []
    for n in blocklens:
        for eps in eps_grid:
            ensemble = EnsembleSpec(kind=cfg["ensemble"], n=n,
                                    r_ecc=None if cfg["ensemble"] == "uniform" else cfg.get("recc"))
            config = SimConfig(
                ensemble=ensemble, dist=dist, eps=eps, trials=int(cfg["trials"]),
                seed=int(cfg["seed"]), mode=cfg["mode"], jobs=int(cfg["jobs"]),
            )
            stats = run_trials(config)
            rows.append([
                str(n), _fmt(eps), str(stats.trials), _fmt(stats.pb_code),
                _fmt(stats.pb_info), _fmt(stats.pe), _fmt(stats.insufficient_rate),
                str(stats.rng_seed),
            ])
    sidecar = {"version": __version__, "config": {k: cfg.get(k) for k in sorted(_SIM_KEYS)}}
    _write_rows(cfg.get("out"), SIM_COLUMNS, rows, sidecar)
    return 0


def _codec_instance(args: argparse.Namespace):
    inst = build_instances(args.seed, [0], _load_dist(args), past=args.past)
    return inst.a, inst.layout, inst.graph


def cmd_codec_encode(args: argparse.Namespace) -> int:
    state, layout, graph = _codec_instance(args)
    code = embedded_encode([int(c) for c in args.payload], state, graph)
    # 1-based wire roles: a shield pair is its pinned wire and the parity
    # slot to its right, which is not listed again among the parity wires.
    shield_slots = {pin + 1 for pin, _ in layout.pinned}
    print(f"word:         {code.word}")
    print(f"payload bits: {_payload_bits(layout.segments)}")
    print(f"parity wires: {[w + 1 for w in layout.parity_slots if w not in shield_slots]}")
    print(f"shield pairs: {[(pin + 1, pin + 2) for pin, _ in layout.pinned]}")
    return 0


def cmd_codec_decode(args: argparse.Namespace) -> int:
    state, layout, graph = _codec_instance(args)
    received = ErasureWord(args.received)
    fg = build_factor_graph(state, graph, layout)
    result = bp_decode(received, fg)
    if result.violation is not None:
        raise ValueError(f"received word is not a codeword: {result.violation}")
    if result.info_bits is not None:
        print("payload: " + "".join(str(b) for b in result.info_bits))
        return 0
    print(f"word:               {result.word}")
    print(f"residual erasures:  {result.residual_erasures}")
    print(f"iterations:         {result.iterations}")
    print(f"converged:          {result.converged}")
    return 0


def cmd_codec(args: argparse.Namespace) -> int:
    if args.action == "encode":
        return cmd_codec_encode(args)
    return cmd_codec_decode(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointbus",
        description="Joint crosstalk-avoidance and error-correction coding for parallel buses",
    )
    parser.add_argument("--version", action="version", version=f"jointbus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run structure, counts, and rates of one past state")
    p.add_argument("state", help="past bus state as a bit string (first char = wire 1)")
    p.add_argument("--recc", type=float, default=None, help="ECC rate for joint-rate figures")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("de", help="density-evolution threshold or trajectory")
    p.add_argument("--regular", help="regular code shorthand dv,dc")
    p.add_argument("--dist-file", help="JSON with node-perspective degree pairs L and R")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", action="store_true", help="bisect the decoding threshold")
    group.add_argument("--trajectory", type=float, metavar="EPS", help="emit the trajectory at EPS")
    p.add_argument("--tol-eps", type=float, default=1e-3, help="bisection half-width")
    p.add_argument("--dmax", type=int, default=64, help="run-degree truncation")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_de)

    p = sub.add_parser("simulate", help="Monte-Carlo error-rate sweep")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--regular", help="regular code shorthand dv,dc")
    p.add_argument("--dist-file", help="JSON with node-perspective degree pairs L and R")
    p.add_argument("--blocklen", help="comma-separated bus widths")
    p.add_argument("--eps", help="erasure probability: value, list, or start:stop:step")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["uniform-codeword", "info-bits"])
    p.add_argument("--ensemble", choices=["uniform", "modified"])
    p.add_argument("--recc", type=float, help="ensemble rate (modified only)")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("codec", help="encode or decode a single bus word")
    p.add_argument("action", choices=["encode", "decode"])
    p.add_argument("--past", required=True, help="past bus state bit string")
    p.add_argument("--regular", default="3,12", help="regular code shorthand dv,dc")
    p.add_argument("--dist-file", help="JSON with node-perspective degree pairs L and R")
    p.add_argument("--seed", type=int, default=0, help="code-instance seed (encoder and decoder must agree)")
    p.add_argument("--payload", help="payload bits (encode)")
    p.add_argument("--received", help="received word over {0,1,e} (decode)")
    p.set_defaults(func=cmd_codec)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "codec":
        if args.action == "encode" and args.payload is None:
            parser.error("codec encode requires --payload")
        if args.action == "decode" and args.received is None:
            parser.error("codec decode requires --received")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
