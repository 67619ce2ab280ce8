"""IPv4 prefixes.

A :class:`Prefix` is the unit of reachability in BGP: a network address plus
a mask length, e.g. ``1.2.3.0/24``. TAMP weighs edges by *unique prefix*
counts and Stemming correlates events per prefix, so prefixes must be cheap
to hash, compare and store in sets. Internally a prefix is a pair of ints
(network as a 32-bit integer, mask length), which makes set operations over
hundreds of thousands of prefixes fast enough for the Table I benchmarks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


class PrefixError(ValueError):
    """Raised when a prefix string or (network, length) pair is invalid."""


_MAX_IPV4 = 0xFFFFFFFF


def _parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer.

    Raises :class:`PrefixError` on malformed input; we do not accept
    shorthand forms like ``10/8`` because collector data is always fully
    dotted.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PrefixError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_ipv4(value: int) -> str:
    return "%d.%d.%d.%d" % (
        value >> 24,
        (value >> 16) & 0xFF,
        (value >> 8) & 0xFF,
        value & 0xFF,
    )


class Prefix:
    """An IPv4 prefix: a network address and a mask length.

    Instances are immutable, hashable and totally ordered (by network then
    length), so they can key RIB dictionaries and live in TAMP edge sets.

    >>> p = Prefix.parse("1.2.3.0/24")
    >>> str(p)
    '1.2.3.0/24'
    >>> p.contains(Prefix.parse("1.2.3.128/25"))
    True
    """

    __slots__ = ("network", "length", "_hash", "_text")

    def __init__(self, network: int, length: int) -> None:
        if not 0 <= length <= 32:
            raise PrefixError(f"mask length {length} out of range")
        if not 0 <= network <= _MAX_IPV4:
            raise PrefixError(f"network {network:#x} out of range")
        mask = _mask_for(length)
        if network & ~mask & _MAX_IPV4:
            raise PrefixError(
                f"host bits set in {_format_ipv4(network)}/{length}"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash", hash((network, length)))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        # Default slot pickling would call the blocked __setattr__ on
        # load; reconstruct through __init__ (copy goes through here).
        return (self.__class__, (self.network, self.length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text into a prefix.

        A bare address parses as a /32 host route, matching how routers
        print host routes.
        """
        return _parse_prefix_cached(text)

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        return _mask_for(self.length)

    @property
    def first_address(self) -> int:
        """Lowest address covered by this prefix (the network address)."""
        return self.network

    @property
    def last_address(self) -> int:
        """Highest address covered by this prefix (the broadcast address)."""
        return self.network | (~self.mask & _MAX_IPV4)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, other: "Prefix") -> bool:
        """True if *other* is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.mask) == self.network

    def contains_address(self, address: int) -> bool:
        """True if the 32-bit *address* falls inside this prefix."""
        return (address & self.mask) == self.network

    def supernet(self) -> "Prefix":
        """The immediately covering prefix (one bit shorter).

        Raises :class:`PrefixError` at 0.0.0.0/0, which has no supernet.
        """
        if self.length == 0:
            raise PrefixError("0.0.0.0/0 has no supernet")
        new_length = self.length - 1
        return Prefix(self.network & _mask_for(new_length), new_length)

    def subnets(self) -> tuple["Prefix", "Prefix"]:
        """Split into the two immediately more-specific halves."""
        if self.length == 32:
            raise PrefixError("/32 cannot be subdivided")
        new_length = self.length + 1
        low = Prefix(self.network, new_length)
        high = Prefix(self.network | (1 << (32 - new_length)), new_length)
        return low, high

    def split(self, length: int) -> Iterator["Prefix"]:
        """Yield all subnets of this prefix at the given mask *length*."""
        if length < self.length:
            raise PrefixError(
                f"cannot split /{self.length} into shorter /{length}"
            )
        if length > 32:
            raise PrefixError(f"mask length {length} out of range")
        step = 1 << (32 - length)
        for network in range(self.network, self.last_address + 1, step):
            yield Prefix(network, length)

    def key(self) -> tuple[int, int]:
        """A compact, orderable (network, length) tuple."""
        return (self.network, self.length)

    def __str__(self) -> str:
        # Formatted once per instance: every event and checkpointed
        # route of a prefix prints it, and decoders hand out one
        # instance per distinct prefix.
        text = self._text
        if text is None:
            text = f"{_format_ipv4(self.network)}/{self.length}"
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __lt__(self, other: "Prefix") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Prefix") -> bool:
        return self.key() <= other.key()

    def __gt__(self, other: "Prefix") -> bool:
        return self.key() > other.key()

    def __ge__(self, other: "Prefix") -> bool:
        return self.key() >= other.key()

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def _mask_for(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4


@lru_cache(maxsize=1 << 18)
def _parse_prefix_cached(text: str) -> Prefix:
    """Cached parse: collectors re-see the same prefix strings constantly."""
    if "/" in text:
        address_text, _, length_text = text.partition("/")
        if not length_text.isdigit():
            raise PrefixError(f"malformed mask length in {text!r}")
        length = int(length_text)
    else:
        address_text, length = text, 32
    return Prefix(_parse_ipv4(address_text), length)


def parse_address(text: str) -> int:
    """Parse dotted-quad text into a 32-bit integer address."""
    return _parse_ipv4(text)


def cidr_cover(start: int, end: int) -> list[Prefix]:
    """The minimal list of prefixes exactly covering [*start*, *end*).

    Used to express address *ranges* (e.g. "the lower 78% of the prefix
    space") as prefix-list entries, the way operators do when splitting a
    table across links.
    """
    if not 0 <= start <= end <= _MAX_IPV4 + 1:
        raise PrefixError(f"invalid address range [{start}, {end})")
    prefixes: list[Prefix] = []
    cursor = start
    while cursor < end:
        # Largest block that is aligned at cursor and fits in the range.
        max_align = cursor & -cursor if cursor else _MAX_IPV4 + 1
        size = max_align
        while size > end - cursor:
            size //= 2
        length = 32 - size.bit_length() + 1
        prefixes.append(Prefix(cursor, length))
        cursor += size
    return prefixes


@lru_cache(maxsize=1 << 12)
def format_address(value: int) -> str:
    """Format a 32-bit integer address as dotted-quad text.

    Cached: a feed has a handful of peers and nexthops, printed once
    per event (a raise is not cached).
    """
    if not 0 <= value <= _MAX_IPV4:
        raise PrefixError(f"address {value:#x} out of range")
    return _format_ipv4(value)
