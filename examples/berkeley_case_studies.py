#!/usr/bin/env python3
"""The four Berkeley case studies of Section IV, end to end.

Reproduces, on the simulated Berkeley site:

* IV-A  Load Balancing Unbalanced — the 78%/5% rate-limiter skew,
  visible in the TAMP picture;
* IV-B  Backdoor routes — hidden at the default prune threshold,
  exposed by hierarchical pruning (Figure 5);
* IV-C  BGP community mis-tagging — the 32%/68% split of the
  2152:65297-tagged subset (Figure 6);
* IV-D  Peer leaking routes — the 6-AS-hop leak and the silent
  community-filter interaction (Figure 7), detected by Stemming and
  correlated back to configuration lines (Section III-D.1).

Writes SVG pictures for each study into examples/output/.

Run:
    python examples/berkeley_case_studies.py
"""

from pathlib import Path

from repro import BerkeleySite, Stemmer, prune_flat, prune_hierarchical, render_svg
from repro.analysis.case_studies import (
    run_backdoor_routes,
    run_community_mistag,
    run_load_balance_check,
    run_route_leak,
    site_tamp_graph,
)
from repro.config.compiler import compile_config
from repro.config.parser import parse_config
from repro.integrate.policy import correlate_policies
from repro.scenarios import paper as scenarios
from repro.simulator.workloads import COMM_CENIC_LAAP

OUT_DIR = Path(__file__).resolve().parent / "output"


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    print("building Berkeley site...")
    site = BerkeleySite(n_prefixes=1_200)

    # --- IV-A: the unbalanced load split -----------------------------
    result = run_load_balance_check(site)
    print(result.row())
    picture = prune_flat(site_tamp_graph(site))
    (OUT_DIR / "iv_a_load_split.svg").write_text(
        render_svg(picture, title="IV-A: rate-limiter split 78%/5%")
    )

    # --- IV-B: backdoor routes ----------------------------------------
    result = run_backdoor_routes(site)
    print(result.row())
    graph = site_tamp_graph(site)
    (OUT_DIR / "iv_b_backdoor_hierarchical.svg").write_text(
        render_svg(
            prune_hierarchical(graph, keep_depth=4),
            title="IV-B: backdoor exposed by hierarchical pruning",
        )
    )

    # --- IV-C: community mis-tagging ----------------------------------
    result = run_community_mistag(site)
    print(result.row())
    tagged_graph = site_tamp_graph(
        site,
        route_filter=lambda r: COMM_CENIC_LAAP in r.attributes.communities,
    )
    (OUT_DIR / "iv_c_community_subset.svg").write_text(
        render_svg(tagged_graph, title="IV-C: routes tagged 2152:65297")
    )

    # --- IV-D: the route leak, with policy correlation ----------------
    result = run_route_leak(site, cycles=2)
    print(result.row())
    incident = scenarios.route_leak(site, cycles=1)
    component = Stemmer().strongest_component(incident.stream)
    configs = [
        compile_config(parse_config(site._edge13_config())),
        compile_config(parse_config(site._edge200_config())),
    ]
    correlation = correlate_policies(component, configs)
    print()
    print("policy correlation (Section III-D.1):")
    print(correlation.summary())
    print()
    print(f"pictures written to {OUT_DIR}/")


if __name__ == "__main__":
    main()
