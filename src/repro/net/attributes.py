"""BGP path attributes.

Every route a BGP speaker holds carries a bundle of path attributes:
NEXT_HOP, AS_PATH, ORIGIN, LOCAL_PREF, MED, and community tags. The bundle
is the payload of announcements, the content of RIB entries, and — crucially
for this paper — the raw material of Stemming sequences and TAMP trees.
Bundles are immutable so they can be shared freely between RIBs, event
streams and analysis structures without defensive copying.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Iterable, Optional

from repro.net.aspath import ASPath


class Origin(enum.IntEnum):
    """The BGP ORIGIN attribute. Lower is preferred in route selection."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class Community:
    """A BGP community tag, e.g. ``11423:65350``.

    Communities drive the policy interactions in Sections III-D.1 and IV-D:
    Berkeley's rate-limiting router keys LOCAL_PREF off CalREN's tags, and
    the Figure 6 incident is a mis-applied tag. The canonical textual form
    is ``asn:value``.
    """

    __slots__ = ("asn", "value", "_hash")

    def __init__(self, asn: int, value: int) -> None:
        if not 0 <= asn <= 0xFFFF:
            raise ValueError(f"community AS part {asn} out of range")
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"community value part {value} out of range")
        object.__setattr__(self, "asn", asn)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((asn, value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Community is immutable")

    @classmethod
    def parse(cls, text: str) -> "Community":
        return _parse_community_cached(text.strip())

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"

    def __repr__(self) -> str:
        return f"Community({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Community):
            return NotImplemented
        return self.asn == other.asn and self.value == other.value

    def __lt__(self, other: "Community") -> bool:
        return (self.asn, self.value) < (other.asn, other.value)

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=1 << 12)
def _parse_community_cached(text: str) -> Community:
    asn_text, sep, value_text = text.partition(":")
    if not sep or not asn_text.isdigit() or not value_text.isdigit():
        raise ValueError(f"malformed community {text!r}")
    return Community(int(asn_text), int(value_text))


DEFAULT_LOCAL_PREF = 100


class PathAttributes:
    """The immutable attribute bundle attached to a BGP route.

    *nexthop* is a 32-bit integer address (see
    :func:`repro.net.prefix.parse_address`); keeping it numeric makes
    attribute bundles compact when an ISP-scale RIB holds 1.5M routes.
    """

    __slots__ = (
        "nexthop",
        "as_path",
        "origin",
        "local_pref",
        "med",
        "communities",
        "originator_id",
        "cluster_list",
        "_hash",
    )

    def __init__(
        self,
        nexthop: int,
        as_path: ASPath,
        origin: Origin = Origin.IGP,
        local_pref: int = DEFAULT_LOCAL_PREF,
        med: Optional[int] = None,
        communities: Iterable[Community] = (),
        originator_id: Optional[int] = None,
        cluster_list: Iterable[int] = (),
    ) -> None:
        object.__setattr__(self, "nexthop", nexthop)
        object.__setattr__(self, "as_path", as_path)
        object.__setattr__(self, "origin", Origin(origin))
        object.__setattr__(self, "local_pref", local_pref)
        object.__setattr__(self, "med", med)
        object.__setattr__(self, "communities", frozenset(communities))
        object.__setattr__(self, "originator_id", originator_id)
        object.__setattr__(self, "cluster_list", tuple(cluster_list))
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.nexthop,
                    self.as_path,
                    self.origin,
                    self.local_pref,
                    self.med,
                    self.communities,
                    self.originator_id,
                    self.cluster_list,
                )
            ),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PathAttributes is immutable")

    def __reduce__(self) -> tuple:
        # Slot pickling would call the blocked __setattr__ on load;
        # rebuild through __init__ instead (copy goes through here).
        return (
            PathAttributes,
            (
                self.nexthop,
                self.as_path,
                self.origin,
                self.local_pref,
                self.med,
                self.communities,
                self.originator_id,
                self.cluster_list,
            ),
        )

    def replace(self, **changes: object) -> "PathAttributes":
        """A copy with the given fields replaced (policy actions use this)."""
        fields = {
            "nexthop": self.nexthop,
            "as_path": self.as_path,
            "origin": self.origin,
            "local_pref": self.local_pref,
            "med": self.med,
            "communities": self.communities,
            "originator_id": self.originator_id,
            "cluster_list": self.cluster_list,
        }
        unknown = set(changes) - set(fields)
        if unknown:
            raise TypeError(f"unknown attribute fields {sorted(unknown)}")
        fields.update(changes)  # type: ignore[arg-type]
        return PathAttributes(**fields)  # type: ignore[arg-type]

    def has_community(self, community: Community) -> bool:
        return community in self.communities

    def add_community(self, community: Community) -> "PathAttributes":
        return self.replace(communities=self.communities | {community})

    def remove_community(self, community: Community) -> "PathAttributes":
        return self.replace(communities=self.communities - {community})

    def __eq__(self, other: object) -> bool:
        if self is other:
            # The common case wherever bundles are interned (MRT
            # decode, the collector's RIBs, cached parses).
            return True
        if not isinstance(other, PathAttributes):
            return NotImplemented
        return (
            self.nexthop == other.nexthop
            and self.as_path == other.as_path
            and self.origin == other.origin
            and self.local_pref == other.local_pref
            and self.med == other.med
            and self.communities == other.communities
            and self.originator_id == other.originator_id
            and self.cluster_list == other.cluster_list
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from repro.net.prefix import format_address

        parts = [
            f"nexthop={format_address(self.nexthop)}",
            f"as_path={str(self.as_path)!r}",
        ]
        if self.local_pref != DEFAULT_LOCAL_PREF:
            parts.append(f"local_pref={self.local_pref}")
        if self.med is not None:
            parts.append(f"med={self.med}")
        if self.communities:
            tags = ",".join(str(c) for c in sorted(self.communities))
            parts.append(f"communities={tags}")
        return f"PathAttributes({', '.join(parts)})"
