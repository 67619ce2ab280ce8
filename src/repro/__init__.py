"""Reproduction of "Internet Routing Anomaly Detection and Visualization"
(Wong, Jacobson, Alaettinoglu — DSN 2005).

The package implements the paper's two algorithms and every substrate
they run on:

* :mod:`repro.tamp` — the TAMP visualization (trees, merged graphs,
  threshold/hierarchical pruning, layout, SVG/ASCII rendering, and the
  30-second/25-fps animation with the paper's edge-color semantics).
* :mod:`repro.stemming` — the Stemming anomaly detector (subsequence
  correlation, recursive component decomposition, traffic-weighted
  variant); :mod:`repro.pipeline` runs it over sliding windows.
* :mod:`repro.net`, :mod:`repro.bgp`, :mod:`repro.igp` — BGP-4 and
  link-state substrates: prefixes/tries/AS paths, RIBs, the full decision
  process, policy engine, session FSM, route reflection, SPF.
* :mod:`repro.config` — the IOS-like configuration language the policy
  integration (Section III-D.1) parses.
* :mod:`repro.collector` — the passive REX-style collector with
  withdrawal augmentation, event streams, and rate series.
* :mod:`repro.simulator` — a deterministic discrete-event simulator with
  Berkeley and ISP-Anon workload builders.
* :mod:`repro.scenarios` — the labeled anomaly catalog: the Section IV
  scenarios plus five related-work families, every incident carrying
  machine-readable ground truth, scored by a precision/recall harness.
* :mod:`repro.traffic` / :mod:`repro.integrate` — the elephant-and-mice
  traffic model and the three data-source integrations.
* :mod:`repro.analysis` — operator-level diagnosis reports and turn-key
  case studies.

Quickstart::

    from repro import BerkeleySite, Stemmer, diagnose, scenarios

    site = BerkeleySite()                       # simulated vantage point
    incident = scenarios.route_leak(site)       # inject the Figure 7 leak
    report = diagnose(incident.stream)          # Stemming + TAMP + rates
    print(report.to_text())
"""

from repro.analysis.report import IncidentReport, diagnose
from repro.collector.events import BGPEvent, EventKind
from repro.collector.rex import RouteExplorer
from repro.collector.stream import EventStream
from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.prefix import Prefix
from repro import scenarios
from repro.simulator.workloads import (
    BerkeleySite,
    IspAnonSite,
    build_berkeley,
    build_isp_anon,
)
from repro.stemming.stemmer import Component, Stemmer, StemmingResult
from repro.stemming.weighted import TrafficWeightedStemmer
from repro.tamp.animate import TampAnimation, animate_stream
from repro.tamp.graph import TampGraph
from repro.tamp.prune import prune_flat, prune_hierarchical
from repro.tamp.render import render_ascii, render_svg

__version__ = "1.0.0"

__all__ = [
    "ASPath",
    "BGPEvent",
    "BerkeleySite",
    "Community",
    "Component",
    "EventKind",
    "EventStream",
    "IncidentReport",
    "IspAnonSite",
    "Origin",
    "PathAttributes",
    "Prefix",
    "RouteExplorer",
    "Stemmer",
    "StemmingResult",
    "TampAnimation",
    "TampGraph",
    "TrafficWeightedStemmer",
    "animate_stream",
    "build_berkeley",
    "build_isp_anon",
    "diagnose",
    "prune_flat",
    "prune_hierarchical",
    "render_ascii",
    "render_svg",
    "scenarios",
    "__version__",
]
