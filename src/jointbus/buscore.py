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

# F(0) .. F(_FIB_CAP - 1), built at import. The codec reads one count per
# run, and the runs of a typical past are short (a uniform N-wire past's
# longest run is about log2 N wires), so those counts come from here.
# Beyond the cap, F(n) comes by fast doubling, whose O(log n) big-int
# products cost little beside the O(n^2) bit work of coding a run that
# long, while a table grown to F(n) would keep O(n^2) bits for the life of
# the process (445 MiB at n = 10^5).
_FIB_CAP = 512
_FIB: list[int] = [0, 1]
while len(_FIB) < _FIB_CAP:
    _FIB.append(_FIB[-1] + _FIB[-2])


def _check_int(name: str, value: object, minimum: Optional[int] = None) -> None:
    """Refuse anything but an integer (Python or numpy, not a bool), and
    one below ``minimum`` when given: 1.5 or True would otherwise run as the
    integer it truncates to."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def fib(n: int) -> int:
    """n-th Fibonacci number with F(1) = F(2) = 1, as an exact integer.

    Valid-word counts grow like phi**N and overflow 64-bit integers near
    N = 90, so the result is an arbitrary-precision Python int. n = 0 is
    rejected: no quantity in this library ever indexes it.
    """
    _check_int("Fibonacci index", n, 1)
    return _fib_pair(int(n))[0]


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n + 1)) for n >= 0, unchecked: off the table below the cap,
    else by fast doubling, F(2k) = F(k) (2 F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2."""
    if n + 1 < _FIB_CAP:
        return _FIB[n], _FIB[n + 1]
    f, g = _fib_pair(n >> 1)
    even, odd = f * (2 * g - f), f * f + g * g
    return (odd, even + odd) if n & 1 else (even, odd)


def as_bits(state: BitsLike) -> np.ndarray:
    """Coerce a bus-state-like value to a read-only uint8 array of 0/1.

    One rule: a ``BusState`` hands back its own bits, and anything else is
    checked as given, then returned as a frozen copy that the library owns,
    so no later write to the caller's array (or to what a view of it looks
    into) shows through.
    """
    if isinstance(state, BusState):
        return state.bits
    if isinstance(state, str):
        if state.strip("01"):
            raise ValueError(f"bit string may contain only 0 and 1, got {state!r}")
        arr = np.frombuffer(state.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    else:
        arr = np.asarray(state)
    if arr.ndim != 1:
        raise ValueError(f"a bus state must be one row of bits, got an array of shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("a bus state needs at least one wire")
    # Checked as given: a cast first would wrap 256 onto 0 and 0.7 onto 0.
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bus-state symbols must be 0 or 1")
    arr = arr.astype(np.uint8)
    arr.setflags(write=False)
    return arr


class BusState:
    """Immutable binary word holding the state of an N-wire bus at one clock.

    Its bits are ``as_bits`` of what it is given: a frozen copy that it
    owns, or the bits of a given ``BusState``. Serializes as an ASCII bit
    string whose first character is wire 1.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: BitsLike):
        object.__setattr__(self, "_bits", as_bits(bits))

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
    # np.diff(starts, append=a.size) concatenates first: about 2x the time
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = a.size - starts[-1]
    return starts, lengths


def _free_wire_count(a: np.ndarray) -> int:
    """The number of free wires of a bit array, the length-1 runs of
    ``_run_bounds``, counted without parsing the runs.

    The wires are read as the binary digits of one integer v. Bit j of
    t = v ^ (v >> 1), below bit n - 1, marks a change between the wires at
    digits j and j + 1, so t | (t << 1) marks exactly the wires next to a
    change: the others are free, the lone wire of a one-wire bus included.
    At N = 100 this takes 0.9 us, against 2.2 us for the same count by
    three numpy calls (2-vCPU Xeon), and a simulated trial makes it once.
    """
    n = a.size
    v = int(a.tobytes().translate(bytes.maketrans(b"\0\1", b"01")), 2)
    t = (v ^ (v >> 1)) & ((1 << (n - 1)) - 1)
    return n - (t | (t << 1)).bit_count()


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
    return BusState(bits)
