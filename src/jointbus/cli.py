"""Command-line front end: analysis, density evolution, simulation, codec.

Every command is deterministic given its flags and seed; simulation and
trajectory outputs are CSV with a fixed column order, and each file-writing
run drops a JSON sidecar holding the resolved configuration and package
version. Exit codes: 0 success, 2 usage error, 3 constraint or validation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import astuple, fields, replace
from typing import Optional, Sequence

from . import __version__
from .buscore import BusState, parse_runs
from .bpdecode import ErasureWord, bp_decode, build_factor_graph
from .cac import cac_rate, count_codewords
from .densevo import DeModel, DeState, de_threshold, de_trajectory
from .ira import DegreeDistribution, rate_ldpc, recc_from_rldpc, sample_graph
from .jointcode import build_layout, compare_rates, embedded_encode
from .simkit import EnsembleSpec, SimConfig, run_trials, trial_rng

SIM_COLUMNS = ["N", "eps", "trials", "pb_code", "pb_info", "pe", "insufficient_rate", "seed"]
TRAJ_COLUMNS = ["iteration", *(f.name for f in fields(DeState))]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _read_json(flag: str, path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{flag}: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {path} is not valid JSON: {exc}") from None


def _load_dist(regular: Optional[str], dist_file: Optional[str],
               default: Optional[str] = None) -> tuple[DegreeDistribution, float]:
    """The code of --regular or --dist-file (never both) and its rate
    r_ecc; ``default`` is the --regular value used when neither is given.
    A code that cannot be built, or whose rate is out of range, is an error
    of the flag that supplied it."""
    if dist_file is None:
        regular = default if regular is None else regular
        if regular is None:
            raise ValueError("a degree distribution is required: pass --regular dv,dc or --dist-file")
        with _flag("--regular"):
            dist = DegreeDistribution.parse(regular)
            return dist, recc_from_rldpc(rate_ldpc(dist))
    spec = _read_json("--dist-file", dist_file)
    try:
        pairs = [tuple((int(d), float(w)) for d, w in spec[key]) for key in ("L", "R")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            "--dist-file must hold node-perspective pairs under keys 'L' and 'R'"
        ) from exc
    with _flag("--dist-file"):
        dist = DegreeDistribution(*pairs)
        return dist, recc_from_rldpc(rate_ldpc(dist))


@contextlib.contextmanager
def _flag(name: str):
    """Prefix the message of a ValueError raised inside with the flag at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _check_out(path: Optional[str]) -> None:
    """Reject an --out path that cannot be written, before any work."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out: directory {folder} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"--out: {path} is a directory")


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


# The finest grid accepted: a step of 1e-4 across all of [0, 1].
_MAX_EPS_POINTS = 10_001


def _parse_eps_grid(spec: str) -> list[float]:
    count = 0
    try:
        if ":" in spec:
            start, stop, step = (float(p) for p in spec.split(":"))
            ok = 0.0 <= start <= stop <= 1.0 and step > 0
            # clamped before counting: over a tiny step the span is infinite
            count = round(min((stop - start) / step, _MAX_EPS_POINTS)) + 1 if ok else 0
            values = [round(start + i * step, 12) for i in range(count)
                      if start + i * step <= stop + 1e-12]
        else:
            values = [float(p) for p in spec.split(",")]
    except ValueError:
        values = []
    if count > _MAX_EPS_POINTS:
        raise ValueError(f"--eps grid {spec!r} has more than {_MAX_EPS_POINTS} points")
    if not values or not all(0.0 <= x <= 1.0 for x in values):
        raise ValueError("--eps must be values in [0, 1]: one, a comma list, or "
                         f"start:stop:step with start <= stop and step > 0; got {spec!r}")
    return values


def cmd_analyze(args: argparse.Namespace) -> int:
    state = BusState(args.state)
    runs = parse_runs(state)
    rates = None
    if args.recc is not None:
        with _flag(f"--recc {_fmt(args.recc)}"):
            rates = compare_rates(state, args.recc)
    r_cac = cac_rate(state)
    count = count_codewords(state)
    if count.bit_length() <= 128:
        count_str = str(count)
    else:
        count_str = f"about 2**{r_cac * len(state):.1f} ({count.bit_length()} bits)"
    print(f"wires:            {len(state)}")
    if len(state) <= 256:
        print(f"run lengths:      {list(runs.run_lengths)}")
        print(f"free wires:       {list(runs.free_wires)}")
    else:
        print(f"runs:             {len(runs.run_lengths)}")
        print(f"free wires:       {len(runs.free_wires)}")
    print(f"codeword count:   {count_str}")
    print(f"cac rate:         {_fmt(r_cac)}")
    if rates is not None:
        print(f"shielded rate:    {_fmt(rates.r_shielded)}")
        print(f"embedded rate:    {_fmt(rates.r_embedded)}")
        print(f"margin:           {_fmt(rates.margin)}")
    return 0


def cmd_de(args: argparse.Namespace) -> int:
    if args.trajectory is not None:
        if args.tol_eps is not None:
            raise ValueError("--tol-eps: applies to --threshold only")
    elif args.tol_eps is None:
        args.tol_eps = 1e-3
    _check_out(args.out)
    dist, r_ecc = _load_dist(args.regular, args.dist_file)
    model = DeModel.for_code(dist, r_ecc)
    if args.threshold:
        with _flag("--tol-eps"):
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
    with _flag("--trajectory"):
        states, verdict = de_trajectory(args.trajectory, model)
    rows = [[str(i + 1), *map(_fmt, astuple(s))] for i, s in enumerate(states)]
    _write_rows(args.out, TRAJ_COLUMNS, rows, _sidecar(args, {"verdict": verdict}))
    print(f"verdict: {verdict} after {len(states)} iterations", file=sys.stderr)
    return 0


def _json_int(value) -> int:
    """A JSON integer as it is: no float is truncated, no boolean counted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError
    return value


_SIM_KEYS = {
    "blocklen": str, "eps": str, "trials": _json_int, "seed": _json_int, "mode": str,
    "ensemble": str, "regular": str, "dist_file": str,
    "jobs": _json_int, "out": str,
}
_SIM_DEFAULTS = {"seed": 0, "mode": "uniform-codeword", "ensemble": "uniform",
                 "jobs": os.cpu_count() or 1}


def _resolve_sim_config(args: argparse.Namespace) -> dict:
    """Merge flags over the optional JSON config; flags win. Unknown config
    keys are rejected by name."""
    resolved: dict = dict(_SIM_DEFAULTS)
    if args.config:
        loaded = _read_json("--config", args.config)
        if not isinstance(loaded, dict):
            raise ValueError("--config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _SIM_KEYS:
                raise ValueError(f"unknown config key: {key!r}")
            try:
                resolved[key] = _SIM_KEYS[key](value) if value is not None else None
            except (TypeError, ValueError):
                raise ValueError(f"--config: bad value {value!r} for key {key!r}") from None
        if resolved.get("regular") is not None and resolved.get("dist_file") is not None:
            raise ValueError("--config: keys 'regular' and 'dist_file' are mutually exclusive")
    if args.regular is not None or args.dist_file is not None:
        # a distribution flag replaces the config file's distribution
        resolved.pop("regular", None)
        resolved.pop("dist_file", None)
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
    _check_out(cfg.get("out"))
    dist, _ = _load_dist(cfg.get("regular"), cfg.get("dist_file"))
    eps_grid = _parse_eps_grid(str(cfg["eps"]))
    try:
        blocklens = [int(p) for p in str(cfg["blocklen"]).split(",")]
    except ValueError:
        raise ValueError(f"--blocklen must list bus widths, got {cfg['blocklen']!r}") from None
    # every point is checked before the first one runs: the library checks
    # one setting at a time, under the flag that set it
    with _flag("--blocklen"):
        ensembles = [EnsembleSpec(kind="uniform", n=n) for n in blocklens]
    with _flag("--ensemble"):
        ensembles = [replace(e, kind=cfg["ensemble"]) for e in ensembles]
    base = SimConfig(ensemble=ensembles[0], dist=dist, eps=eps_grid[0], trials=1,
                     seed=cfg["seed"])
    for key in ("trials", "mode", "jobs"):
        with _flag(f"--{key}"):
            base = replace(base, **{key: cfg[key]})
    configs = [replace(base, ensemble=e, eps=eps) for e in ensembles for eps in eps_grid]
    rows = []
    for config in configs:
        stats = run_trials(config)
        rows.append([
            str(config.ensemble.n), _fmt(config.eps), str(stats.trials), _fmt(stats.pb_code),
            _fmt(stats.pb_info), _fmt(stats.pe), _fmt(stats.insufficient_rate),
            str(stats.rng_seed),
        ])
    sidecar = {"version": __version__, "config": {k: cfg.get(k) for k in sorted(_SIM_KEYS)}}
    _write_rows(cfg.get("out"), SIM_COLUMNS, rows, sidecar)
    return 0


def _codec_instance(args: argparse.Namespace):
    """The instance encoder and decoder agree on: the layout follows from
    the past state, the graph from the first trial stream of --seed."""
    dist, r_ecc = _load_dist(args.regular, args.dist_file, default="3,12")
    with _flag("--past"):
        state = BusState(args.past).bits
    layout = build_layout(state, round(state.size * (1.0 - r_ecc)))
    graph = sample_graph(layout.num_info, layout.num_parity, dist, trial_rng(args.seed, 0))
    return state, layout, graph


def cmd_codec_encode(args: argparse.Namespace) -> int:
    state, _, graph = _codec_instance(args)
    with _flag("--payload"):
        encoded = embedded_encode(args.payload, state, graph)
    layout = encoded.layout
    # 1-based wire roles: a shield pair is its pinned wire and the parity
    # slot to its right, which is not listed again among the parity wires.
    shield_slots = {pin + 1 for pin in layout.pinned}
    print(f"word:         {encoded.word}")
    print(f"payload bits: {len(args.payload)}")
    slots = layout.parity_slot_array.tolist()
    print(f"parity wires: {[w + 1 for w in slots if w not in shield_slots]}")
    print(f"shield pairs: {[(pin + 1, pin + 2) for pin in layout.pinned]}")
    return 0


def cmd_codec_decode(args: argparse.Namespace) -> int:
    state, layout, graph = _codec_instance(args)
    fg = build_factor_graph(state, graph, layout)
    with _flag("--received"):
        result = bp_decode(ErasureWord(args.received), fg)
        if result.violation is not None:
            raise ValueError(f"not a codeword: {result.violation}")
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


def _add_dist_flags(p: argparse.ArgumentParser, default_note: str = "") -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--regular", help="regular code shorthand dv,dc" + default_note)
    group.add_argument("--dist-file", help="JSON with node-perspective degree pairs L and R")


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
    _add_dist_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", action="store_true", help="bisect the decoding threshold")
    group.add_argument("--trajectory", type=float, metavar="EPS", help="emit the trajectory at EPS")
    p.add_argument("--tol-eps", type=float,
                   help="bisection half-width, with --threshold only (default 1e-3)")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_de)

    p = sub.add_parser("simulate", help="Monte-Carlo error-rate sweep")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    _add_dist_flags(p)
    p.add_argument("--blocklen", help="comma-separated bus widths")
    p.add_argument("--eps", help="erasure probability: value, list, or start:stop:step")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["uniform-codeword", "info-bits"])
    p.add_argument("--ensemble", choices=["uniform", "modified"])
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("codec", help="encode or decode a single bus word")
    p.add_argument("action", choices=["encode", "decode"])
    p.add_argument("--past", required=True, help="past bus state bit string")
    _add_dist_flags(p, " (3,12 unless --dist-file is given)")
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
