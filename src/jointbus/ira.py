"""Repeat-accumulate error-correction code with an irregular LDPC front end.

Systematic bits connect to check nodes through a sparse random bipartite
graph; each check j owns parity j, and parities accumulate along a chain:
p_j = p_{j-1} xor (xor of check j's systematic neighbours), with p_0's
predecessor implicitly zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .buscore import BitsLike, as_bits

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
        d = int(d)
        if d < 1:
            raise ValueError(f"degrees must be >= 1, got {d}")
        if w < 0:
            raise ValueError(f"fractions must be >= 0, got {w}")
        merged[d] = merged.get(d, 0.0) + float(w)
    total = sum(merged.values())
    if total <= 0:
        raise ValueError("degree distribution has no mass")
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
    rp = dist.avg_chk_degree
    if rp == 0:
        raise ValueError("check degree distribution has zero mean degree")
    return 1.0 - dist.avg_var_degree / rp


def recc_from_rldpc(r_ldpc: float) -> float:
    """Overall code rate 1/(2 - r_ldpc) once parities are accumulated.

    Only front-end rates in (2/3, 1] are accepted: below that, parities
    outnumber the free wires available to carry them as the bus grows.
    """
    if not 2.0 / 3.0 < r_ldpc <= 1.0:
        raise ValueError(f"front-end rate must lie in (2/3, 1], got {r_ldpc}")
    return 1.0 / (2.0 - r_ldpc)


@dataclass(frozen=True)
class IraGraph:
    """Sampled code instance: sparse edges plus the implicit parity chain.

    ``edge_info[k]`` / ``edge_check[k]`` give endpoint indices of sparse
    edge k (info nodes 0..num_info-1, checks 0..num_parity-1). The edges
    are listed in check order (``edge_check`` non-decreasing), the order
    ``sample_graph`` draws and ``union`` keeps, and the decoder requires:
    it takes the edges of each check as one contiguous block. Check j also
    connects parity j and, unless j starts a chain, parity j-1; a chain's
    first check sees an implicit zero instead. ``chain_start`` holds one
    bool per parity, true where an accumulator chain starts: built without
    it, a graph has one chain, starting at parity 0 (a sampled instance);
    a disjoint union (``IraGraph.union``) has one chain per instance.
    Multi-edges are kept; encoding and validation collapse them modulo 2.
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

    @classmethod
    def union(cls, graphs: Sequence["IraGraph"]) -> "IraGraph":
        """Disjoint union: the nodes of each graph are numbered after those
        of the graphs before it, and each keeps its own parity chains and its
        edge order, so graphs in check order give a union in check order.
        The union of one graph is that graph."""
        if len(graphs) == 1:
            return graphs[0]
        info_off = np.cumsum([0] + [g.num_info for g in graphs])
        par_off = np.cumsum([0] + [g.num_parity for g in graphs])
        return cls(
            num_info=int(info_off[-1]),
            num_parity=int(par_off[-1]),
            edge_info=np.concatenate([g.edge_info + o for g, o in zip(graphs, info_off)]),
            edge_check=np.concatenate([g.edge_check + o for g, o in zip(graphs, par_off)]),
            chain_start=np.concatenate([g.chain_start for g in graphs]),
        )

    @property
    def num_edges(self) -> int:
        return self.edge_info.size

    def info_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_info, minlength=self.num_info)

    def check_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_check, minlength=self.num_parity)


def _realize_degrees(count: int, pairs: _Pairs) -> np.ndarray:
    """Per-node degrees for ``count`` nodes; remainder mass goes to the
    largest degree class."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    degrees = [d for d, _ in pairs]
    target = [int(np.floor(w * count)) for _, w in pairs]
    target[-1] += count - sum(target)  # pairs are sorted, last = largest degree
    out = np.repeat(degrees, target)
    return out.astype(np.int64)


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
    if num_info < 0 or num_parity < 0:
        raise ValueError(f"node counts must be >= 0, got {num_info} info and {num_parity} parity")
    if num_info == 0 or num_parity == 0:
        empty = np.zeros(0, dtype=np.int64)
        return IraGraph(num_info, num_parity, empty, empty.copy())
    v_sockets, c_sockets = _sockets(num_info, num_parity, dist)
    perm = rng.permutation(c_sockets.size)
    edge_info = np.empty_like(v_sockets)
    edge_info[perm] = v_sockets
    return IraGraph(num_info, num_parity, edge_info, c_sockets)


# One entry: the trials of a uniform-ensemble campaign all share one size,
# and more entries would pin megabytes per size on wide buses.
@functools.lru_cache(maxsize=1)
def _sockets(num_info: int, num_parity: int,
             dist: DegreeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Variable-side and check-side sockets before matching (read-only:
    many trials of one size share them)."""
    vdeg = _realize_degrees(num_info, dist.L_coeffs)
    cdeg = _realize_degrees(num_parity, dist.R_coeffs)
    residual = int(vdeg.sum() - cdeg.sum())
    if residual != 0:
        # Absorb the rounding residual on the check side, starting from the
        # last node; a surplus lands entirely on it, a deficit walks back
        # through trailing nodes, clamping each at zero sparse sockets
        # (such a check still ties its two chain parities together).
        cdeg = cdeg.copy()
        pos = num_parity - 1
        while residual != 0 and pos >= 0:
            new_deg = max(int(cdeg[pos]) + residual, 0)
            residual -= new_deg - int(cdeg[pos])
            cdeg[pos] = new_deg
            pos -= 1
        if residual != 0:
            raise ValueError("socket counts cannot be balanced against the variable side")
    v_sockets = np.repeat(np.arange(num_info, dtype=np.int64), vdeg)
    c_sockets = np.repeat(np.arange(num_parity, dtype=np.int64), cdeg)
    v_sockets.setflags(write=False)
    c_sockets.setflags(write=False)
    return v_sockets, c_sockets


def ira_encode(systematic_bits: BitsLike, graph: IraGraph) -> np.ndarray:
    """Accumulated parities p_j = p_{j-1} xor s_j for the systematic word,
    with p_{j-1} = 0 at the start of each chain."""
    bits = as_bits(systematic_bits) if len(systematic_bits) else np.zeros(0, dtype=np.uint8)
    if bits.size != graph.num_info:
        raise ValueError(f"expected {graph.num_info} systematic bits, got {bits.size}")
    # Summed as weights: a mask over edges in check order is irregular, and
    # selecting through it costs as much again.
    ones = np.bincount(graph.edge_check, bits[graph.edge_info], minlength=graph.num_parity)
    s = (ones.astype(np.int64) & 1).astype(np.uint8)
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
