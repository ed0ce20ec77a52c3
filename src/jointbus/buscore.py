"""Bus-state primitives: run parsing, free wires, and transition checking.

A bus state is a fixed-length binary word, one bit per wire. Wires are
numbered 1..N in every user-facing index set and error message; internal
arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "BusState",
    "RunParse",
    "ViolationReport",
    "fib",
    "parse_runs",
    "free_wires",
    "check_transition",
]

BitsLike = Union["BusState", str, Iterable[int], np.ndarray]

# fib(n) table, grown on demand; a single writer appending under the GIL is
# safe for concurrent readers.
_FIB: list[int] = [0, 1, 1]


def fib(n: int) -> int:
    """n-th Fibonacci number with F(1) = F(2) = 1, as an exact integer.

    Valid-word counts grow like phi**N and overflow 64-bit integers near
    N = 90, so the result is an arbitrary-precision Python int. n = 0 is
    rejected: no quantity in this library ever indexes it.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"Fibonacci index must be an integer >= 1, got {n!r}")
    return _fib_table(int(n))[int(n)]


def _fib_table(n: int) -> list[int]:
    """The fib table grown to hold index ``n``, for callers that read many
    entries at once; they must not write to it."""
    while len(_FIB) <= n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB


def as_bits(state: BitsLike) -> np.ndarray:
    """Coerce a bus-state-like value to a read-only uint8 array of 0/1.

    A writable 1-D uint8 array comes back as a read-only view of itself:
    the caller's array stays writable, and a later write to it shows
    through. A read-only one comes back as it is.
    """
    if isinstance(state, BusState):
        return state.bits
    if isinstance(state, str):
        if state.strip("01"):
            raise ValueError(f"bit string may contain only 0 and 1, got {state!r}")
        arr = np.frombuffer(state.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    else:
        arr = np.asarray(state)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a bus state needs at least one wire")
    # Checked as given: a cast first would wrap 256 onto 0 and 0.7 onto 0.
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bus-state symbols must be 0 or 1")
    arr = arr.astype(np.uint8, copy=False)
    if arr.flags.writeable:
        if arr is state:
            arr = arr.view()
        arr.setflags(write=False)
    return arr


def _own_bits(state: BitsLike) -> np.ndarray:
    """``as_bits`` for bits that outlive the call: a view of an array that
    the caller can still write is copied, so that no later write to it
    shows through."""
    arr = as_bits(state)
    if arr.base is not None and isinstance(state, np.ndarray) and state.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


class BusState:
    """Immutable binary word holding the state of an N-wire bus at one clock.

    Serializes as an ASCII bit string whose first character is wire 1.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: BitsLike):
        object.__setattr__(self, "_bits", _own_bits(bits))

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array, index 0 = wire 1."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BusState):
            return np.array_equal(self._bits, other._bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __repr__(self) -> str:
        return f"BusState({str(self)!r})"


@dataclass(frozen=True)
class RunParse:
    """Decomposition of a bus state into maximal alternating runs.

    Within a run adjacent bits differ; every pair of equal adjacent bits is
    a run boundary. ``run_starts`` and ``free_wires`` hold 1-based wire
    indices; free wires are exactly the runs of length one.
    """

    run_lengths: tuple[int, ...]
    run_starts: tuple[int, ...]
    free_wires: tuple[int, ...]
    source_length: int


@dataclass(frozen=True)
class ViolationReport:
    """Adjacent wire pairs (1-based) where opposing transitions occur."""

    opposing_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.opposing_pairs


def _run_bounds(a: np.ndarray, cuts: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """0-based run start positions and run lengths of a bit array.

    ``cuts`` are extra positions where a run must start: with bus words
    laid side by side, their offsets keep every run inside one word.
    """
    is_start = np.empty(a.size, dtype=bool)
    is_start[0] = True
    np.equal(a[1:], a[:-1], out=is_start[1:])
    if cuts is not None:
        is_start[cuts] = True
    starts = np.flatnonzero(is_start)
    return starts, np.diff(starts, append=a.size)


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer ``keys`` in [0, ``bound``). Keys below
    2**16 are sorted as uint16, which numpy radix-sorts: 0.16-0.19 ms for
    24,000 keys below 2,000, against 1.8 ms for a stable argsort of int64
    keys (2-vCPU Xeon, numpy 2.4.6)."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def parse_runs(a: BitsLike) -> RunParse:
    """Parse a bus state into its maximal alternating runs."""
    arr = as_bits(a)
    starts, lengths = _run_bounds(arr)
    free = starts[lengths == 1] + 1
    return RunParse(
        run_lengths=tuple(int(d) for d in lengths),
        run_starts=tuple(int(s) + 1 for s in starts),
        free_wires=tuple(int(w) for w in free),
        source_length=arr.size,
    )


def free_wires(a: BitsLike) -> tuple[int, ...]:
    """1-based wires whose next-state bit is unconstrained.

    An interior wire is free iff it and both neighbours carry the same past
    bit; an end wire is free iff it matches its single neighbour. These are
    exactly the length-1 runs of ``parse_runs``.
    """
    return parse_runs(a).free_wires


def check_transition(a: BitsLike, b: BitsLike) -> ViolationReport:
    """List adjacent pairs where one wire rises while its neighbour falls.

    The forbidden event on pair (n, n+1) is both wires transitioning in
    opposite directions, i.e. b_n != a_n and b_{n+1} != a_{n+1} with
    a_n != a_{n+1}.
    """
    aa, bb = as_bits(a), as_bits(b)
    if aa.size != bb.size:
        raise ValueError(f"length mismatch: past state has {aa.size} wires, next state {bb.size}")
    t = aa ^ bb
    bad = np.flatnonzero((aa[:-1] != aa[1:]) & (t[:-1] == 1) & (t[1:] == 1))
    return ViolationReport(tuple((int(i) + 1, int(i) + 2) for i in bad))


def _state_from_runs(first_bit: int, run_lengths: Iterable[int]) -> BusState:
    """Rebuild the unique bus state with the given first bit and run lengths."""
    lengths = np.asarray(list(run_lengths), dtype=np.int64)
    if lengths.size == 0 or np.any(lengths < 1):
        raise ValueError("run lengths must be positive and non-empty")
    n = int(lengths.sum())
    # Bit flips exactly at positions that continue a run; run starts repeat
    # the previous bit.
    flips = np.ones(n, dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flips[starts] = 0
    bits = (int(first_bit) & 1) ^ (np.cumsum(flips, dtype=np.int64) & 1)
    return BusState(bits.astype(np.uint8))
