import ast
import dataclasses
import re
import types
from pathlib import Path

import numpy as np
import pytest

import jointbus
from jointbus import bpdecode, buscore, cac, densevo, ira, jointcode, simkit

MODULES = (buscore, cac, ira, jointcode, bpdecode, densevo, simkit)


def test_package_reexports_exactly_module_all():
    # a name dropped from a module's __all__ must leave the package too,
    # and every public name of a module must be reachable from it
    exported = {name for name, value in vars(jointbus).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set().union(*(m.__all__ for m in MODULES))
    assert exported == declared
    for m in MODULES:
        for name in m.__all__:
            assert getattr(jointbus, name) is getattr(m, name)


def test_test_only_names_are_not_public():
    # names only tests reached: removed, or private to their module
    for name in ("UNSET", "k_info", "run_rank", "run_unrank", "p_poly", "rho_tilde",
                 "state_from_runs", "CacDegreeDist", "gen_past_modified", "ModifiedPastState",
                 "wilson_interval"):
        assert not hasattr(jointbus, name)
        assert all(name not in m.__all__ for m in MODULES)
    # the disjoint union of graphs is a test oracle, and degrees a bincount
    for name in ("union", "info_degrees", "check_degrees"):
        assert not hasattr(jointbus.IraGraph, name)


def test_cli_imports_only_public_names():
    # the command-line front end is a client of the public API: it imports
    # no _-prefixed name from the package (dunders such as __version__ are
    # package metadata, not private helpers)
    tree = ast.parse((Path(jointbus.__file__).parent / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.startswith("jointbus"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def _arrays(obj, depth=0):
    """The arrays an output holds, in records, tuples and objects."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth < 4:
        if isinstance(obj, (tuple, list)):
            items = obj
        elif dataclasses.is_dataclass(obj):
            items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        elif hasattr(obj, "__slots__"):
            items = [getattr(obj, name) for name in obj.__slots__]
        else:
            items = list(getattr(obj, "__dict__", {}).values())
        for item in items:
            yield from _arrays(item, depth + 1)


def _bits_calls():
    """Each public name that takes bits or symbols: a call that takes them
    as its arguments, and their values."""
    past = [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0]
    layout = jointcode.build_layout(past, 2)
    graph = ira.sample_graph(layout.num_info, layout.num_parity, ira.DegreeDistribution.regular(3, 12),
                             np.random.default_rng(1))
    payload = [1, 0] * 5 + [1]  # 11 bits on this layout
    cac_payload = [0, 1] * 6 + [1]  # 13 bits on the whole word
    word = jointcode.embedded_encode(payload, past, graph).word.bits.tolist()
    info = [word[i] for i in layout.info_wire_array.tolist()]
    parities = [word[i] for i in layout.parity_slot_array.tolist()]
    fg = bpdecode.build_factor_graph(past, graph, layout)
    return {
        "BusState": (buscore.BusState, [past]),
        "parse_runs": (buscore.parse_runs, [past]),
        "free_wires": (buscore.free_wires, [past]),
        "check_transition": (buscore.check_transition, [past, word]),
        "RunCodebook": (cac.RunCodebook, [[0, 1, 0, 1]]),
        "count_codewords": (cac.count_codewords, [past]),
        "cac_encode": (cac.cac_encode, [cac_payload, past]),
        "cac_decode": (cac.cac_decode, [cac.cac_encode(cac_payload, past).tolist(), past]),
        "cac_rate": (cac.cac_rate, [past]),
        "ira_encode": (lambda x: ira.ira_encode(x, graph), [info]),
        "validate_checks": (lambda x, p: ira.validate_checks(x, p, graph), [info, parities]),
        "build_layout": (lambda a: jointcode.build_layout(a, 2), [past]),
        "payload_size": (lambda a: jointcode.payload_size(a, 2), [past]),
        "embedded_encode": (lambda x, a: jointcode.embedded_encode(x, a, graph), [payload, past]),
        "decode_payload": (lambda w, a: jointcode.decode_payload(w, a, 2), [word, past]),
        "compare_rates": (lambda a: jointcode.compare_rates(a, 0.85), [past]),
        "dmin_witness": (lambda x, a: jointcode.dmin_witness(x, a, graph), [info, past]),
        "dmin_bruteforce": (lambda a: jointcode.dmin_bruteforce(a, graph), [past]),
        "ErasureWord": (bpdecode.ErasureWord, [word]),
        "FactorGraph": (lambda a: bpdecode.FactorGraph(a, layout, graph), [past]),
        "build_factor_graph": (lambda a: bpdecode.build_factor_graph(a, graph, layout), [past]),
        "bp_decode": (lambda w: bpdecode.bp_decode(w, fg), [word]),
        "bec_transmit": (lambda w: simkit.bec_transmit(w, 0.5, np.random.default_rng(2)), [word]),
    }


# Public names that take no bits or symbols, and records that keep the
# arrays they are given (their checked constructors are covered above).
NO_BITS = {
    "RunParse", "ViolationReport", "fib", "DegreeDistribution", "IraGraph", "rate_ldpc",
    "recc_from_rldpc", "sample_graph", "WireLayout", "EmbeddedCodeword", "RateComparison",
    "DminResult", "rate_shielded", "rate_embedded", "wires_needed", "ERASED", "DecodeResult",
    "DeState", "DeModel", "p_coeffs", "de_step", "de_trajectory", "de_threshold",
    "asymptotic_cac_rate", "AsymptoticRate", "EnsembleSpec", "SimConfig", "TrialStats",
    "CodeInstances", "build_instances", "gen_past_uniform", "run_sweep", "run_trials", "trial_rng",
    "de_vs_simulation",
}


@pytest.mark.parametrize("kind", ["uint8", "int64", "bool", "list", "view"])
def test_public_names_leave_the_callers_bits_alone(kind):
    # every public name that takes bits leaves a writable input unchanged
    # and writable, and returns nothing that shares memory with it, so a
    # later write to the input cannot show through; "view" passes a
    # read-only view of a writable uint8 array, through which the array
    # must not leak either; a new public name must be listed on one side
    # or the other
    calls = _bits_calls()
    declared = set().union(*(m.__all__ for m in MODULES))
    assert declared == set(calls) | NO_BITS
    assert not set(calls) & NO_BITS
    for name, (call, values) in calls.items():
        if kind == "list":
            inputs = [list(v) for v in values]
            call(*inputs)
            assert inputs == [list(v) for v in values], name
            continue
        dtype = "uint8" if kind == "view" else kind
        owners = [np.array(v, dtype=dtype) for v in values]
        inputs = owners
        if kind == "view":
            inputs = [x.view() for x in owners]
            for view in inputs:
                view.setflags(write=False)
        out = call(*inputs)
        for value, given in zip(values, owners):
            assert given.flags.writeable, name
            assert given.tolist() == np.array(value, dtype=dtype).tolist(), name
            for arr in _arrays(out):
                assert not np.shares_memory(arr, given), name


DIST = ira.DegreeDistribution.regular(3, 12)
MODEL = densevo.DeModel.for_code(DIST, 0.8)


@pytest.mark.parametrize("call, message", [
    (lambda: jointcode.build_layout("0000", 1.5), "p_needed must be an integer, got 1.5"),
    (lambda: jointcode.build_layout("0000", -1), "p_needed must be >= 0, got -1"),
    (lambda: jointcode.payload_size("0000", 2.5), "p_needed must be an integer, got 2.5"),
    (lambda: jointcode.decode_payload("0000", "0000", True), "p_needed must be an integer"),
    (lambda: jointcode.wires_needed(-5, 0.8), "k_info must be >= 0, got -5"),
    (lambda: jointcode.wires_needed(5.5, 0.8), "k_info must be an integer, got 5.5"),
    (lambda: densevo.de_trajectory(0.2, MODEL, max_iter=0), "max_iter must be >= 1, got 0"),
    (lambda: densevo.de_trajectory(0.2, MODEL, max_iter=-3), "max_iter must be >= 1, got -3"),
    (lambda: densevo.de_trajectory(0.2, MODEL, max_iter=2.0), "max_iter must be an integer"),
    (lambda: densevo.asymptotic_cac_rate(1.5), "d_max must be an integer, got 1.5"),
    (lambda: densevo.asymptotic_cac_rate(0), "d_max must be >= 1, got 0"),
    (lambda: densevo.p_coeffs(3, 1.5), "position i must be an integer, got 1.5"),
    (lambda: densevo.p_coeffs(3.0, 1), "run length d must be an integer, got 3.0"),
    (lambda: ira.sample_graph(10, 2.5, DIST, np.random.default_rng(0)),
     "num_parity must be an integer, got 2.5"),
    (lambda: ira.sample_graph(10.0, 3, DIST, np.random.default_rng(0)),
     "num_info must be an integer, got 10.0"),
    (lambda: ira.DegreeDistribution.regular(2.5, 12), "degree must be an integer, got 2.5"),
    (lambda: ira.DegreeDistribution.regular(0, 12), "degree must be >= 1, got 0"),
    (lambda: ira.DegreeDistribution(((3.7, 1.0),), ((12, 1.0),)),
     "degree must be an integer, got 3.7"),
    (lambda: ira.DegreeDistribution(((3, 1.0),), ((True, 1.0),)),
     "degree must be an integer, got True"),
    (lambda: ira.DegreeDistribution((("3", 1.0),), ((12, 1.0),)),
     "degree must be an integer, got '3'"),
    (lambda: ira.DegreeDistribution(((3.0, 1.0),), ((12, 1.0),)),
     "degree must be an integer, got 3.0"),
    (lambda: ira.sample_graph(-1, 3, DIST, np.random.default_rng(0)),
     "num_info must be >= 0, got -1"),
    (lambda: ira.IraGraph(4, 1.0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
     "num_parity must be an integer, got 1.0"),
    (lambda: simkit.gen_past_uniform(1.5, np.random.default_rng(0)), "n must be an integer"),
    (lambda: simkit.gen_past_uniform(0, np.random.default_rng(0)), "n must be >= 1, got 0"),
    (lambda: buscore.fib(True), "Fibonacci index must be an integer, got True"),
    (lambda: buscore.fib(0), "Fibonacci index must be >= 1, got 0"),
    (lambda: cac.RunCodebook("0101").unrank(1.5), "index must be an integer, got 1.5"),
])
def test_integer_arguments_refuse_other_numbers(call, message):
    # one check in every layer: a float or a bool used to run as the
    # integer it truncates to (build_layout('0000', 1.5) placed 2 parities),
    # a negative count ran on (wires_needed(-5, 0.8) was -6), and max_iter=0
    # stalled without iterating; each now names the argument
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


def test_integer_arguments_take_numpy_integers():
    assert jointcode.build_layout("0000", np.int64(1)) == jointcode.build_layout("0000", 1)
    assert jointcode.wires_needed(np.uint16(59), 0.8) == jointcode.wires_needed(59, 0.8)
    assert buscore.fib(np.int32(30)) == 832040
    assert densevo.asymptotic_cac_rate(np.int64(8)) == densevo.asymptotic_cac_rate(8)
