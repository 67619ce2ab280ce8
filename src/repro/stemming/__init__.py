"""Stemming: root-cause anomaly detection over BGP event streams.

Section III-B of the paper. Each BGP event is encoded as the sequence
``c = x h a1 … an p`` (peer, nexthop, AS path, prefix). Stemming counts
every contiguous subsequence across the stream, takes the strongest one,
and reads the *last adjacent pair* of that subsequence as the problem
location (the "stem"). The prefixes carried by the winning subsequence
select the correlated component of events; removing it and repeating
decomposes a million-event stream into a handful of ranked incidents.

Key property (Section III-B): temporal independence. Correlation is
well-defined at any timescale, so the same algorithm finds second-scale
session resets and week-scale single-prefix oscillations — the latter
invisible to every rate-threshold detector.
"""

from repro.stemming.stemmer import Component, Stemmer, StemmingResult
from repro.stemming.weighted import TrafficWeightedStemmer
from repro.stemming.encode import format_stem, format_token

__all__ = [
    "Stemmer",
    "Component",
    "StemmingResult",
    "TrafficWeightedStemmer",
    "format_token",
    "format_stem",
]
