"""AS paths.

The AS_PATH attribute records the sequence of autonomous systems a route
announcement has traversed. Stemming's event sequences embed the AS path
verbatim (``c = x h a1 … an p``), and TAMP's virtual trees link ASes in
path order, so the path type must be immutable, hashable, and cheap to
slice. We model the common case — a single AS_SEQUENCE — as a tuple of AS
numbers, with helpers for prepending, loop detection and origin extraction.
AS_SET segments (from aggregation) are supported as a frozen set suffix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional


class ASPathError(ValueError):
    """Raised when AS path text or AS numbers are invalid."""


_MAX_ASN = 0xFFFFFFFF


def _check_asn(asn: int) -> int:
    if not 0 < asn <= _MAX_ASN:
        raise ASPathError(f"AS number {asn} out of range")
    return asn


class ASPath:
    """An AS path: an AS_SEQUENCE plus an optional trailing AS_SET.

    The textual form matches router output: space-separated AS numbers,
    with any AS_SET in braces at the end, e.g. ``"11423 209 {7018,13606}"``.

    >>> path = ASPath.parse("11423 209 701")
    >>> path.origin_as
    701
    >>> path.prepend(11423).sequence
    (11423, 11423, 209, 701)
    """

    __slots__ = ("sequence", "as_set", "_hash", "_collapsed", "_text")

    def __init__(
        self,
        sequence: Iterable[int] = (),
        as_set: Iterable[int] = (),
    ) -> None:
        seq = tuple(_check_asn(asn) for asn in sequence)
        aset = frozenset(_check_asn(asn) for asn in as_set)
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "as_set", aset)
        object.__setattr__(self, "_hash", hash((seq, aset)))
        object.__setattr__(self, "_collapsed", None)
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ASPath is immutable")

    def __reduce__(self):
        # Slot pickling would call the blocked __setattr__ on load;
        # rebuild through __init__ (copy goes through here).
        return (self.__class__, (self.sequence, self.as_set))

    def collapsed_tokens(self) -> tuple[tuple[str, int], ...]:
        """``("as", asn)`` tokens with consecutive prepends collapsed.

        Both Stemming's event sequences and TAMP's route chains embed
        the path this way; routes and events share ASPath instances, so
        caching here turns the per-event token build into a tuple reuse
        on the million-event hot paths.
        """
        collapsed = self._collapsed
        if collapsed is None:
            tokens: list[tuple[str, int]] = []
            previous: Optional[int] = None
            for asn in self.sequence:
                if asn == previous:
                    continue
                tokens.append(("as", asn))
                previous = asn
            collapsed = tuple(tokens)
            object.__setattr__(self, "_collapsed", collapsed)
        return collapsed

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse router-style AS path text.

        Accepts an empty string (locally originated routes have empty
        AS paths) and an optional brace-delimited AS_SET at the end.
        """
        return _parse_aspath_cached(text.strip())

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the route (rightmost sequence element).

        None for an empty path (locally originated) or when the path ends
        in an AS_SET (aggregated routes have ambiguous origins).
        """
        if self.as_set:
            return None
        if not self.sequence:
            return None
        return self.sequence[-1]

    @property
    def neighbor_as(self) -> Optional[int]:
        """The AS adjacent to the receiver (leftmost element)."""
        if not self.sequence:
            return None
        return self.sequence[0]

    def __len__(self) -> int:
        """Path length as used by the BGP decision process.

        Per RFC 4271 an AS_SET counts as a single hop regardless of size.
        """
        return len(self.sequence) + (1 if self.as_set else 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sequence)

    def __contains__(self, asn: int) -> bool:
        return asn in self.sequence or asn in self.as_set

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """A new path with *asn* prepended *count* times (export action)."""
        if count < 1:
            raise ASPathError(f"prepend count {count} must be positive")
        return ASPath((asn,) * count + self.sequence, self.as_set)

    def has_loop(self, local_as: int) -> bool:
        """True if *local_as* already appears in the path.

        BGP's loop prevention: a router discards routes whose AS path
        contains its own AS.
        """
        return local_as in self

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield adjacent (upstream, downstream) AS pairs in path order.

        These become TAMP graph edges and Stemming stem candidates.
        """
        for left, right in zip(self.sequence, self.sequence[1:]):
            yield left, right

    def startswith(self, other: "ASPath") -> bool:
        """True if this path begins with *other*'s sequence."""
        return self.sequence[: len(other.sequence)] == other.sequence

    def __str__(self) -> str:
        # Joined once per instance, like :meth:`collapsed_tokens`: every
        # event on a shared path prints the same text.
        text = self._text
        if text is None:
            parts = [str(asn) for asn in self.sequence]
            if self.as_set:
                parts.append(
                    "{" + ",".join(str(a) for a in sorted(self.as_set)) + "}"
                )
            text = " ".join(parts)
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self.sequence == other.sequence and self.as_set == other.as_set

    def __hash__(self) -> int:
        return self._hash


EMPTY_PATH = ASPath()


@lru_cache(maxsize=1 << 16)
def _parse_aspath_cached(text: str) -> ASPath:
    if not text:
        return EMPTY_PATH
    sequence: list[int] = []
    as_set: frozenset[int] = frozenset()
    brace = text.find("{")
    if brace >= 0:
        if not text.endswith("}"):
            raise ASPathError(f"unterminated AS_SET in {text!r}")
        set_text = text[brace + 1 : -1]
        members = [p for p in set_text.replace(",", " ").split() if p]
        if not members:
            raise ASPathError(f"empty AS_SET in {text!r}")
        try:
            as_set = frozenset(int(p) for p in members)
        except ValueError as exc:
            raise ASPathError(f"malformed AS_SET in {text!r}") from exc
        text = text[:brace]
    for token in text.split():
        if not token.isdigit():
            raise ASPathError(f"malformed AS number {token!r}")
        sequence.append(int(token))
    return ASPath(sequence, as_set)
