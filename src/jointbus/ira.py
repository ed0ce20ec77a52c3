"""Repeat-accumulate error-correction code with an irregular LDPC front end.

Systematic bits connect to check nodes through a sparse random bipartite
graph; each check j owns parity j, and parities accumulate along a chain:
p_j = p_{j-1} xor (xor of check j's systematic neighbours), with p_0's
predecessor implicitly zero.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .buscore import BitsLike, as_bits, _check_int

__all__ = [
    "DegreeDistribution",
    "IraGraph",
    "rate_ldpc",
    "recc_from_rldpc",
    "sample_graph",
    "ira_encode",
    "validate_checks",
]

_Pairs = tuple[tuple[int, float], ...]


def _normalize_pairs(pairs) -> _Pairs:
    merged: dict[int, float] = {}
    for d, w in pairs:
        _check_int("degree", d, 1)
        if d > sys.float_info.max:
            # a degree meets the weights as a float, so it has their bound
            try:
                shown = str(d)
            except ValueError:  # too long for Python to print as a decimal
                shown = f"a {d.bit_length()}-bit integer"
            raise ValueError(f"degree must be at most {sys.float_info.max}, got {shown}")
        real = isinstance(w, numbers.Real) and not isinstance(w, bool)
        if not (real and 0 <= w <= sys.float_info.max):
            raise ValueError(f"fractions must be finite reals >= 0, got {w!r}")
        merged[int(d)] = merged.get(int(d), 0.0) + float(w)
    total = sum(merged.values())
    if not 0 < total < math.inf:
        raise ValueError(f"degree distribution mass must be finite and > 0, got {total}")
    return tuple(sorted((d, w / total) for d, w in merged.items() if w > 0))


def _edge_from_node(node: _Pairs) -> _Pairs:
    z = sum(d * w for d, w in node)
    return tuple((d, d * w / z) for d, w in node)


def _poly(pairs: _Pairs, x: float, shift: int) -> float:
    return sum(w * x ** (d - shift) for d, w in pairs)


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree distributions of the sparse graph, node and edge perspective.

    ``L_coeffs``/``R_coeffs`` give the fraction of variable/check nodes of
    each degree; ``lambda_coeffs``/``rho_coeffs`` are the corresponding
    edge-perspective weights (lambda_d proportional to d * L_d). All four
    polynomials evaluate to 1 at x = 1.
    """

    L_coeffs: _Pairs
    R_coeffs: _Pairs
    lambda_coeffs: _Pairs = field(init=False)
    rho_coeffs: _Pairs = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "L_coeffs", _normalize_pairs(self.L_coeffs))
        object.__setattr__(self, "R_coeffs", _normalize_pairs(self.R_coeffs))
        object.__setattr__(self, "lambda_coeffs", _edge_from_node(self.L_coeffs))
        object.__setattr__(self, "rho_coeffs", _edge_from_node(self.R_coeffs))

    @classmethod
    def regular(cls, dv: int, dc: int) -> "DegreeDistribution":
        return cls(((dv, 1.0),), ((dc, 1.0),))

    @classmethod
    def parse(cls, spec: str) -> "DegreeDistribution":
        """Parse the regular-code shorthand "dv,dc"."""
        try:
            dv, dc = (int(p) for p in spec.split(","))
        except ValueError:
            raise ValueError(f"regular code spec must look like 'dv,dc', got {spec!r}")
        return cls.regular(dv, dc)

    # Polynomial evaluations used by encoding analysis and density evolution.
    def lam(self, x: float) -> float:
        return _poly(self.lambda_coeffs, x, 1)

    def rho(self, x: float) -> float:
        return _poly(self.rho_coeffs, x, 1)

    def L(self, x: float) -> float:
        return _poly(self.L_coeffs, x, 0)

    def R(self, x: float) -> float:
        return _poly(self.R_coeffs, x, 0)

    @property
    def avg_var_degree(self) -> float:
        """L'(1): mean sockets per variable node."""
        return sum(d * w for d, w in self.L_coeffs)

    @property
    def avg_chk_degree(self) -> float:
        """R'(1): mean sparse-graph sockets per check node."""
        return sum(d * w for d, w in self.R_coeffs)


def rate_ldpc(dist: DegreeDistribution) -> float:
    """Design rate 1 - L'(1)/R'(1) of the sparse front end."""
    return 1.0 - dist.avg_var_degree / dist.avg_chk_degree


def recc_from_rldpc(r_ldpc: float) -> float:
    """Overall code rate 1/(2 - r_ldpc) once parities are accumulated.

    Only front-end rates in (2/3, 1] are accepted: below that, parities
    outnumber the free wires available to carry them as the bus grows. The
    bound is checked on the rate returned, which must lie in (3/4, 1] as
    ``DeModel.for_code`` requires, so a front-end rate that rounds onto 2/3
    from above, 0.6666666666666667 of a 2,6 code, is refused too.
    """
    if not (r_ldpc <= 1.0 and 1.0 / (2.0 - r_ldpc) > 0.75):
        raise ValueError(f"front-end rate must lie in (2/3, 1], got {r_ldpc}")
    return 1.0 / (2.0 - r_ldpc)


@dataclass(frozen=True)
class IraGraph:
    """Sampled code instance: sparse edges plus the implicit parity chain.

    ``edge_info[k]`` / ``edge_check[k]`` give endpoint indices of sparse
    edge k (info nodes 0..num_info-1, checks 0..num_parity-1). The edges
    are listed in check order (``edge_check`` non-decreasing), the order
    ``sample_graph`` draws and the decoder requires:
    it takes the edges of each check as one contiguous block. Check j also
    connects parity j and, unless j starts a chain, parity j-1; a chain's
    first check sees an implicit zero instead. ``chain_start`` holds one
    bool per parity, true where an accumulator chain starts: built without
    it, a graph has one chain, starting at parity 0 (a sampled instance);
    a disjoint union of instances has one chain per instance.
    Multi-edges are kept; encoding and validation collapse them modulo 2.
    ``sample_graph`` stores both endpoint arrays as int32, half the memory
    of intp on a wide bus, and so refuses a graph of 2**31 or more sockets,
    info nodes or parities.
    """

    num_info: int
    num_parity: int
    edge_info: np.ndarray
    edge_check: np.ndarray
    chain_start: np.ndarray | None = None

    def __post_init__(self):
        if self.chain_start is None:
            mask = np.zeros(self.num_parity, dtype=bool)
            mask[:1] = True
            object.__setattr__(self, "chain_start", mask)

    @property
    def num_edges(self) -> int:
        return self.edge_info.size


# Edge endpoints are stored as int32; every node count and socket total of
# a sampled graph stays below this.
_INDEX_LIMIT = 2**31


def _degree_counts(count: int, pairs: _Pairs) -> tuple[list[int], list[int]]:
    """Degrees, ascending, and how many of ``count`` nodes take each;
    remainder mass goes to the largest degree class. ``np.repeat`` of the
    two gives the per-node degrees."""
    degrees = [d for d, _ in pairs]
    target = [int(np.floor(w * count)) for _, w in pairs]
    target[-1] += count - sum(target)  # pairs are sorted, last = largest degree
    return degrees, target


def sample_graph(
    num_info: int,
    num_parity: int,
    dist: DegreeDistribution,
    rng: np.random.Generator,
) -> IraGraph:
    """Sample a code instance by the configuration model.

    Node degrees are realized from the node-perspective distributions; a
    socket-count mismatch left by rounding is absorbed by one check node
    (the last), whose degree moves by the full residual. Sockets are then
    matched through one uniform permutation, variable socket k meeting
    check socket perm[k], and the edges are listed by check socket. Without
    info nodes or without parities the graph has no edges, and nothing is
    drawn.
    """
    _check_int("num_info", num_info, 0)
    _check_int("num_parity", num_parity, 0)
    _check_graph_size((num_info,), (num_parity,), dist)
    if not (num_info and num_parity):
        return _sample_graphs((num_info,), (num_parity,), dist, np.zeros(0, dtype=np.intp))
    # The check side comes after the permutation is freed: on a wide bus the
    # two would otherwise add to the peak.
    edge_info = _info_side(num_info, dist, rng.permutation(_var_sockets(num_info, dist).size))
    return IraGraph(num_info, num_parity, edge_info, _check_sockets(num_info, num_parity, dist))


def _info_side(num_info: int, dist: DegreeDistribution, perm: np.ndarray) -> np.ndarray:
    """Info endpoints of one instance's edges in check order: its variable
    sockets scattered through the socket permutation it drew."""
    v_sockets = _var_sockets(num_info, dist)
    edge_info = np.empty_like(v_sockets)
    edge_info[perm] = v_sockets
    return edge_info


def _permutation_size(num_info: int, num_parity: int, dist: DegreeDistribution) -> int:
    """Length of the socket permutation an instance draws: its socket total,
    or 0 without info nodes or without parities (no edge, nothing drawn)."""
    return _socket_total(num_info, dist) if num_info and num_parity else 0


def _check_graph_size(num_info: Sequence[int], num_parity: Sequence[int],
                      dist: DegreeDistribution) -> None:
    """Refuse, from the counts alone, a union that int32 cannot index. No
    info node has more sockets than the largest degree, so the exact socket
    total is needed only near the limit."""
    info, parities = sum(num_info), sum(num_parity)
    if max(info * dist.L_coeffs[-1][0], parities) >= _INDEX_LIMIT:
        total = sum(_permutation_size(k, q, dist) for k, q in zip(num_info, num_parity))
        if max(total, info, parities) >= _INDEX_LIMIT:
            raise ValueError(
                f"a graph of {total} sockets, {info} info nodes and {parities} "
                f"parities does not fit int32 indices: each must stay below 2**31"
            )


def _sample_graphs(
    num_info: Sequence[int],
    num_parity: Sequence[int],
    dist: DegreeDistribution,
    perm: np.ndarray,
) -> IraGraph:
    """Disjoint union of sampled instances: edge for edge the instances
    ``sample_graph(num_info[i], num_parity[i], dist, rng_i)`` laid side by
    side (``tests/helpers.graph_union``), each instance's nodes numbered
    after those before it, built without a graph per instance.

    ``perm`` holds what each ``rng_i.permutation`` draws, of length
    ``_permutation_size(num_info[i], num_parity[i], dist)``, laid end to end
    in instance order, each offset by the lengths before it: instance i
    shuffles its own slice of ``arange(perm.size)``. The sockets of every
    instance, offset, are scattered through it in one step. One instance
    uses its socket array itself as its check side.
    """
    _check_graph_size(num_info, num_parity, dist)
    drawn = [i for i, (k, q) in enumerate(zip(num_info, num_parity)) if k and q]
    if len(num_info) == 1 and drawn:
        k, q = num_info[0], num_parity[0]
        return IraGraph(k, q, _info_side(k, dist, perm), _check_sockets(k, q, dist))
    # One lookup per instance size: trials of a uniform ensemble share theirs.
    table = {(k, q): (_var_sockets(k, dist), _check_sockets(k, q, dist))
             for k, q in {(num_info[i], num_parity[i]) for i in drawn}}
    sockets = [table[num_info[i], num_parity[i]] for i in drawn]
    counts = [c.size for _, c in sockets]
    info_off = np.cumsum((0, *num_info), dtype=np.int32)
    par_off = np.cumsum((0, *num_parity), dtype=np.int32)
    # Each instance's chain starts at its first parity; an instance without
    # parities shares its offset with the next, or sits past the end.
    chain_start = np.zeros(par_off[-1], dtype=bool)
    firsts = par_off[:-1]
    chain_start[firsts[firsts < par_off[-1]]] = True
    edge_info = edge_check = np.zeros(0, dtype=np.int32)  # no edges
    if sockets:
        v_parts, c_parts = zip(*sockets)
        edge_info = np.empty(perm.size, dtype=np.int32)
        edge_info[perm] = np.concatenate(v_parts) + np.repeat(info_off[drawn], counts)
        edge_check = np.concatenate(c_parts) + np.repeat(par_off[drawn], counts)
    return IraGraph(int(info_off[-1]), int(par_off[-1]), edge_info, edge_check, chain_start)


def _socket_total(num_info: int, dist: DegreeDistribution) -> int:
    """Sockets on the variable side, which the check side is balanced to."""
    return sum(d * t for d, t in zip(*_degree_counts(num_info, dist.L_coeffs)))


# Socket arrays before matching, one entry each (read-only: many trials of
# one size share them). The trials of a uniform-ensemble campaign all share
# one size, and more entries would pin megabytes per size on wide buses.
@functools.lru_cache(maxsize=1)
def _var_sockets(num_info: int, dist: DegreeDistribution) -> np.ndarray:
    v_sockets = np.repeat(np.arange(num_info, dtype=np.int32),
                          np.repeat(*_degree_counts(num_info, dist.L_coeffs)))
    v_sockets.setflags(write=False)
    return v_sockets


@functools.lru_cache(maxsize=1)
def _check_sockets(num_info: int, num_parity: int, dist: DegreeDistribution) -> np.ndarray:
    cdeg = np.repeat(*_degree_counts(num_parity, dist.R_coeffs))
    residual = _socket_total(num_info, dist) - int(cdeg.sum())
    if residual != 0:
        # Absorb the rounding residual on the check side, starting from the
        # last node; a surplus lands entirely on it, a deficit walks back
        # through trailing nodes, clamping each at zero sparse sockets
        # (such a check still ties its two chain parities together).
        pos = num_parity - 1
        while residual != 0 and pos >= 0:
            new_deg = max(int(cdeg[pos]) + residual, 0)
            residual -= new_deg - int(cdeg[pos])
            cdeg[pos] = new_deg
            pos -= 1
        if residual != 0:
            raise ValueError("socket counts cannot be balanced against the variable side")
    c_sockets = np.repeat(np.arange(num_parity, dtype=np.int32), cdeg)
    c_sockets.setflags(write=False)
    return c_sockets


def ira_encode(systematic_bits: BitsLike, graph: IraGraph) -> np.ndarray:
    """Accumulated parities p_j = p_{j-1} xor s_j for the systematic word,
    with p_{j-1} = 0 at the start of each chain."""
    bits = as_bits(systematic_bits) if len(systematic_bits) else np.zeros(0, dtype=np.uint8)
    if bits.size != graph.num_info:
        raise ValueError(f"expected {graph.num_info} systematic bits, got {bits.size}")
    # An integer count of the edges whose bit is 1: float64 weights would
    # take a copy of every edge. ``compress`` selects as fast as weights sum.
    ones = np.bincount(graph.edge_check.compress(bits[graph.edge_info].view(bool)),
                       minlength=graph.num_parity)
    s = (ones & 1).astype(np.uint8)
    cum = np.bitwise_xor.accumulate(s)
    # Each chain starts from zero: cancel what earlier chains accumulated.
    start = np.maximum.accumulate(np.where(graph.chain_start, np.arange(s.size), 0))
    return cum ^ np.concatenate((np.zeros(1, dtype=np.uint8), cum))[start]


def validate_checks(systematic_bits: BitsLike, parities: BitsLike, graph: IraGraph) -> bool:
    """True iff every check's XOR (neighbours, own parity, previous parity) is 0."""
    bits = as_bits(systematic_bits) if len(systematic_bits) else np.zeros(0, dtype=np.uint8)
    par = as_bits(parities) if len(parities) else np.zeros(0, dtype=np.uint8)
    if bits.size != graph.num_info or par.size != graph.num_parity:
        raise ValueError("word sizes do not match the graph")
    return np.array_equal(par, ira_encode(bits, graph))
