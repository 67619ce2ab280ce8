"""Unit tests for the precision/recall scorer and the regression gate."""

import dataclasses

import pytest

from repro.scenarios import catalog, registry
from repro.scenarios.score import (
    DEFAULT_TOLERANCE,
    IncidentScore,
    Scorecard,
    build_scorecard,
    compare_scorecards,
    format_comparison,
    score_incident,
    score_ranked,
)

A, B, C, D = (1, 2), (2, 3), (3, 4), (4, 5)


class TestScoreRanked:
    def test_perfect_single_stem(self):
        score = score_ranked([A, B, C], [A], k=3)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0
        assert score.best_rank == 1
        assert score.top1_hit and score.topk_hit

    def test_known_precision_recall(self):
        # Truth {A, B}; top-3 holds A, C, B: 2 matches of 3 considered,
        # both truths covered.
        score = score_ranked([A, C, B, D], [A, B], k=3)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.8)

    def test_miss_in_top_k_but_ranked_later(self):
        score = score_ranked([B, C, D, A], [A], k=3)
        assert score.precision == 0.0
        assert score.recall == 0.0
        assert score.best_rank == 4  # found in the full ranking
        assert not score.top1_hit and not score.topk_hit

    def test_k_larger_than_ranking(self):
        # Precision counts over stems actually considered, so a short
        # but correct ranking is not penalized.
        score = score_ranked([A], [A], k=10)
        assert score.precision == 1.0
        assert score.recall == 1.0

    def test_empty_ranking_scores_zero(self):
        score = score_ranked([], [A], k=3)
        assert score.precision == score.recall == score.f1 == 0.0
        assert score.best_rank is None

    def test_multiple_true_stems_partial_coverage(self):
        score = score_ranked([A, C, D], [A, B], k=3)
        assert score.recall == pytest.approx(0.5)
        assert score.precision == pytest.approx(1 / 3)

    def test_duplicates_count_once_for_recall(self):
        score = score_ranked([A, A, A], [A, B], k=3)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(0.5)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError, match="positive"):
            score_ranked([A], [A], k=0)

    def test_empty_truth_raises(self):
        with pytest.raises(ValueError, match="ground truth"):
            score_ranked([A], [], k=3)


@pytest.fixture(scope="module")
def burst():
    return registry.generate("burst-announcements", seed=0)


@pytest.fixture(scope="module")
def burst_entry():
    return registry.get("burst-announcements")


class TestScoreIncident:
    def test_detects_burst_ground_truth(self, burst, burst_entry):
        score = score_incident(
            burst, window=burst_entry.window, slide=burst_entry.slide
        )
        assert score.detected
        assert score.best_rank == 1
        assert score.f1 == pytest.approx(1.0)
        assert 0.0 < score.prefix_recall <= 1.0
        assert score.windows_scored <= score.windows

    def test_unscoreable_incident_raises(self, burst):
        unlabeled = dataclasses.replace(burst, true_stems=())
        with pytest.raises(ValueError, match="no true stems"):
            score_incident(unlabeled, window=60.0)

    def test_degraded_stage_scores_zero(self, burst, burst_entry):
        # A detector whose strength threshold filters everything out
        # must produce an honest zero, not an error.
        score = score_incident(
            burst,
            window=burst_entry.window,
            slide=burst_entry.slide,
            min_strength=10**9,
        )
        assert not score.detected
        assert score.f1 == 0.0
        assert score.best_rank is None

    def test_round_trips_through_dict(self, burst, burst_entry):
        score = score_incident(
            burst, window=burst_entry.window, slide=burst_entry.slide
        )
        # to_dict rounds to 6 decimals, so compare in artifact form.
        round_tripped = IncidentScore.from_dict(score.to_dict())
        assert round_tripped.to_dict() == score.to_dict()


class TestScorecard:
    def test_save_load_round_trip(self, tmp_path, burst, burst_entry):
        card = Scorecard(config={"seed": 0})
        card.add(
            score_incident(
                burst, window=burst_entry.window, slide=burst_entry.slide
            )
        )
        path = tmp_path / "card.json"
        card.save(path)
        loaded = Scorecard.load(path)
        assert loaded.to_dict() == card.to_dict()
        assert loaded.config == {"seed": 0}

    def test_build_scorecard_rejects_unscored(self):
        with pytest.raises(ValueError, match="community-mistag"):
            build_scorecard(["community-mistag"])


def card_with(**metrics) -> Scorecard:
    base = dict(
        scenario="s",
        incident_class="burst",
        seed=0,
        events=10,
        windows=4,
        windows_scored=4,
        precision=1.0,
        recall=1.0,
        f1=1.0,
        best_rank=1,
        top1_rate=1.0,
        topk_rate=1.0,
        prefix_recall=1.0,
        detected=True,
    )
    base.update(metrics)
    card = Scorecard()
    card.add(IncidentScore(**base))
    return card


class TestCompareScorecards:
    def test_identical_cards_pass(self):
        regressions, checks = compare_scorecards(card_with(), card_with())
        assert regressions == []
        assert checks > 0

    def test_drop_within_tolerance_passes(self):
        fresh = card_with(f1=1.0 - DEFAULT_TOLERANCE / 2)
        regressions, _ = compare_scorecards(fresh, card_with())
        assert regressions == []

    def test_drop_beyond_tolerance_fails(self):
        fresh = card_with(f1=0.5)
        regressions, _ = compare_scorecards(fresh, card_with())
        assert [(r.scenario, r.metric) for r in regressions] == [("s", "f1")]

    def test_rank_worsening_fails(self):
        fresh = card_with(best_rank=3)
        regressions, _ = compare_scorecards(fresh, card_with())
        assert [r.metric for r in regressions] == ["best_rank"]
        # Slack forgives it.
        regressions, _ = compare_scorecards(
            fresh, card_with(), rank_slack=2
        )
        assert regressions == []

    def test_lost_rank_fails(self):
        fresh = card_with(best_rank=None, detected=False)
        regressions, _ = compare_scorecards(fresh, card_with())
        assert "best_rank" in [r.metric for r in regressions]

    def test_missing_scenario_fails(self):
        regressions, _ = compare_scorecards(Scorecard(), card_with())
        assert [r.metric for r in regressions] == ["present"]
        report = format_comparison(Scorecard(), card_with(), regressions)
        assert "MISSING" in report

    def test_new_scenario_is_not_a_failure(self):
        regressions, _ = compare_scorecards(card_with(), Scorecard())
        assert regressions == []

    def test_improvement_passes(self):
        base = card_with(f1=0.5, precision=0.5)
        regressions, _ = compare_scorecards(card_with(), base)
        assert regressions == []


class TestPerturbationTripsGate:
    """End-to-end proof: degrading the detector fails the comparison."""

    def test_degraded_min_strength_regresses(self, burst, burst_entry):
        good = Scorecard()
        good.add(
            score_incident(
                burst, window=burst_entry.window, slide=burst_entry.slide
            )
        )
        bad = Scorecard()
        bad.add(
            score_incident(
                burst,
                window=burst_entry.window,
                slide=burst_entry.slide,
                min_strength=10**9,
            )
        )
        regressions, _ = compare_scorecards(bad, good)
        metrics = {r.metric for r in regressions}
        assert "f1" in metrics and "best_rank" in metrics
        report = format_comparison(bad, good, regressions)
        assert "REGRESSED" in report
