"""Sets of dense interned ids.

Two interchangeable backends, compared by the "object sets vs interned
bitsets" ablation (``benchmarks/test_ablations.py``); the TAMP build
itself keeps id-keyed refcount maps and uses neither:

* :class:`IdSet` — a thin ``set[int]`` subclass, the faster to build.
* :class:`MaskIdSet` — a Python-int bitmask (bit *i* set ⇔ id *i* is a
  member).

The issue that introduced this layer proposed bitmasks first, with a
fallback "if bitmasks lose in benchmarks" — and they do, on the build
side. Python ints are immutable, so ``bits |= member_mask`` copies the
whole mask; accumulating a 1.5M-route view that way is ~6× slower than
``set.update`` (which mutates in place in C), and a singleton leaf mask
for a high prefix id costs kilobytes where a one-element set costs
bytes. Masks only win on merge-heavy union workloads over already-built
masks (a single ``|`` unions thousands of members), which the build is
not: see the "object sets vs interned bitsets" row in
``bench_results/BENCH_ablations.json``. Both backends beat ``set[Prefix]``
— the win comes from interning (int hashing), the backend choice is
second-order.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class IdSet(set):
    """A set of dense non-negative int ids (hash-backed).

    Inherits every C-speed ``set`` operation; adds the small protocol
    both backends share (:meth:`count`, bitmask interop).
    """

    __slots__ = ()

    def count(self) -> int:
        """Number of member ids (the paper's unique-prefix weight)."""
        return len(self)

    def mask(self) -> int:
        """The equivalent bitmask (bit *i* set ⇔ *i* in self)."""
        bits = 0
        for member in self:
            bits |= 1 << member
        return bits

    @classmethod
    def from_mask(cls, bits: int) -> "IdSet":
        """The set of bit positions set in *bits*."""
        return cls(_iter_bits(bits))


class MaskIdSet:
    """Bitmask-backed id set (ablation backend; same protocol as IdSet).

    ``add``/``update`` pay an O(size) int copy per call — the reason
    this is not the default — while ``union`` of two built masks and
    ``count`` (``int.bit_count``) are where masks shine.
    """

    __slots__ = ("bits",)

    def __init__(self, ids: Iterable[int] = ()) -> None:
        bits = 0
        for member in ids:
            bits |= 1 << member
        self.bits = bits

    def add(self, member: int) -> None:
        self.bits |= 1 << member

    def discard(self, member: int) -> None:
        self.bits &= ~(1 << member)

    def update(self, ids: Iterable[int]) -> None:
        bits = 0
        for member in ids:
            bits |= 1 << member
        self.bits |= bits

    def union_update(self, other: "MaskIdSet") -> None:
        self.bits |= other.bits

    def count(self) -> int:
        return self.bits.bit_count()

    def mask(self) -> int:
        return self.bits

    @classmethod
    def from_mask(cls, bits: int) -> "MaskIdSet":
        made = cls()
        made.bits = bits
        return made

    def __contains__(self, member: int) -> bool:
        return (self.bits >> member) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MaskIdSet):
            return self.bits == other.bits
        if isinstance(other, (set, frozenset)):
            return self.bits == IdSet(other).mask()
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("MaskIdSet is mutable and unhashable")

    def __repr__(self) -> str:
        return f"MaskIdSet({sorted(self)!r})"


def _iter_bits(bits: int) -> Iterator[int]:
    """Yield set-bit positions in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
