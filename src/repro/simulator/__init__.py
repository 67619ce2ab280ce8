"""A discrete-event simulator for BGP networks.

This package provides the testbed the paper had for real: networks of
:class:`repro.bgp.BGPRouter` speakers exchanging messages over links with
delay, observed by a passive :class:`repro.collector.RouteExplorer`. Two
workload builders reproduce the paper's vantage points — U.C. Berkeley
(four BGP edge routers behind CalREN) and "ISP-Anon" (a Tier-1 with a
route-reflector core). The case-study anomaly injectors live in
:mod:`repro.scenarios` (the labeled scenario library).
"""

from repro.simulator.engine import Engine
from repro.simulator.network import Network
from repro.simulator.workloads import (
    BerkeleySite,
    IspAnonSite,
    build_berkeley,
    build_isp_anon,
)

__all__ = [
    "Engine",
    "Network",
    "BerkeleySite",
    "IspAnonSite",
    "build_berkeley",
    "build_isp_anon",
]
