"""Unit tests for repro.experiments (runner, reporting, scenarios)."""

import pytest

from repro.budget import plan_for_selection_ratio
from repro.config import FAST_PIPELINE
from repro.datasets import make_scenario
from repro.exceptions import ConfigurationError
from repro.experiments import (
    format_records,
    format_series,
    run_baseline_arm,
    run_pipeline_arm,
)
from repro.experiments.runner import ExperimentRecord, collect_votes
from repro.experiments import scenarios


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(15, 0.5, n_workers=10, workers_per_task=4, rng=31)


@pytest.fixture(scope="module")
def votes(scenario):
    return collect_votes(scenario, rng=31)


class TestRunner:
    def test_pipeline_arm_record(self, scenario, votes):
        record = run_pipeline_arm(scenario, FAST_PIPELINE, rng=1, votes=votes)
        assert record.algorithm == "saps"
        assert record.n_objects == 15
        assert 0.0 <= record.accuracy <= 1.0
        assert record.seconds > 0
        assert "t_truth_discovery" in record.extras

    @pytest.mark.parametrize("algorithm", ["rc", "qs", "borda", "copeland",
                                           "btl"])
    def test_baseline_arms(self, scenario, votes, algorithm):
        record = run_baseline_arm(scenario, algorithm, rng=1, votes=votes)
        assert record.algorithm == algorithm
        assert 0.0 <= record.accuracy <= 1.0

    def test_crowdbt_arm(self, scenario):
        record = run_baseline_arm(scenario, "crowdbt", rng=1)
        assert record.algorithm == "crowdbt"
        # CrowdBT queries until the matched budget is spent.
        plan = plan_for_selection_ratio(15, 0.5, workers_per_task=4)
        afforded = int(plan.budget.total / plan.budget.reward + 1e-9)
        assert record.extras["queries"] == afforded == 208

    def test_unknown_baseline_rejected(self, scenario, votes):
        with pytest.raises(ConfigurationError):
            run_baseline_arm(scenario, "pagerank", votes=votes)

    def test_pipeline_beats_rc_and_qs(self, scenario, votes):
        """The Table-I headline, on a small paired instance."""
        ours = run_pipeline_arm(scenario, FAST_PIPELINE, rng=2, votes=votes)
        rc = run_baseline_arm(scenario, "rc", rng=2, votes=votes)
        qs = run_baseline_arm(scenario, "qs", rng=2, votes=votes)
        assert ours.accuracy > rc.accuracy
        assert ours.accuracy > qs.accuracy

    def test_collect_votes_size(self, scenario, votes):
        expected_pairs = round(0.5 * 15 * 14 / 2)
        assert len(votes) == expected_pairs * 4


class TestReporting:
    def _records(self):
        return [
            ExperimentRecord("saps", 10, 0.5, 3, "Gaussian", 0.95, 0.1,
                             extras={"note": "x"}),
            ExperimentRecord("rc", 10, 0.5, 3, "Gaussian", 0.5, 0.01),
        ]

    def test_format_records_contains_all(self):
        text = format_records(self._records(), title="T")
        assert "T" in text
        assert "saps" in text and "rc" in text
        assert "0.95" in text
        assert "note" in text

    def test_missing_cells_render_dash(self):
        text = format_records(self._records())
        assert "-" in text.splitlines()[-1]

    def test_explicit_columns(self):
        text = format_records(self._records(), columns=["algorithm",
                                                        "accuracy"])
        header = text.splitlines()[0]
        assert header.split() == ["algorithm", "accuracy"]

    def test_format_series_groups(self):
        records = [
            ExperimentRecord("saps", 10, r, 3, "Gaussian", a, 0.0)
            for r, a in [(0.1, 0.8), (0.5, 0.9)]
        ] + [
            ExperimentRecord("rc", 10, 0.1, 3, "Gaussian", 0.5, 0.0),
        ]
        text = format_series(records, x="r", y="accuracy",
                             group_by="algorithm", title="fig")
        assert "fig" in text
        assert "saps: 0.1:0.8, 0.5:0.9" in text
        assert "rc:" in text


class TestScenarioGrids:
    def test_laptop_scale_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert not scenarios.paper_scale()
        assert max(scenarios.fig3_object_counts()) <= 400

    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert scenarios.paper_scale()
        assert max(scenarios.fig3_object_counts()) == 1000
        assert scenarios.fig4_object_count() == 1000

    def test_grids_nonempty(self):
        assert scenarios.fig4_selection_ratios()
        assert scenarios.fig5_object_counts()
        assert scenarios.fig5_selection_ratios()
        assert scenarios.table1_object_counts()
        assert scenarios.fig6_selection_ratios()
        assert scenarios.convergence_grid()
        assert scenarios.amt_image_counts() == [10, 20]
