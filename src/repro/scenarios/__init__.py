"""The scenario library: labeled anomalies and the scoring harness.

``repro.scenarios`` is the promoted home of the Section IV injectors
(:mod:`repro.scenarios.paper`) plus the anomaly catalog drawn from the
related work (:mod:`repro.scenarios.catalog`), a registry that names
and seeds them (:mod:`repro.scenarios.registry`), and the
precision/recall scorer that turns labeled streams into the repo's
detection-quality regression gate (:mod:`repro.scenarios.score`).
"""

from repro.scenarios.catalog import (
    burst_announcements,
    community_signal,
    hyper_specific_flood,
    interception_hijack,
    valley_route_leak,
)
from repro.scenarios.labels import (
    DetailValue,
    IncidentClass,
    LabeledIncident,
    ScenarioDetails,
    StemEdge,
    TimeWindow,
)
from repro.scenarios.paper import (
    MedOscillationLab,
    backdoor_routes,
    build_med_oscillation_lab,
    community_mistag,
    customer_flap,
    full_table_hijack,
    max_prefix_leak,
    med_oscillation,
    route_leak,
    session_reset,
)
from repro.scenarios.registry import (
    SCENARIOS,
    Scenario,
    generate,
    get,
    names,
)
from repro.scenarios.score import (
    IncidentScore,
    Scorecard,
    build_scorecard,
    compare_scorecards,
    score_incident,
    score_ranked,
)

__all__ = [
    "DetailValue",
    "IncidentClass",
    "IncidentScore",
    "LabeledIncident",
    "MedOscillationLab",
    "SCENARIOS",
    "Scenario",
    "ScenarioDetails",
    "Scorecard",
    "StemEdge",
    "TimeWindow",
    "backdoor_routes",
    "build_med_oscillation_lab",
    "build_scorecard",
    "burst_announcements",
    "community_mistag",
    "community_signal",
    "compare_scorecards",
    "customer_flap",
    "full_table_hijack",
    "generate",
    "get",
    "hyper_specific_flood",
    "interception_hijack",
    "max_prefix_leak",
    "med_oscillation",
    "names",
    "route_leak",
    "score_incident",
    "score_ranked",
    "session_reset",
    "valley_route_leak",
]
