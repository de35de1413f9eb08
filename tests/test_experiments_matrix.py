"""Tests for the scenario × engine robustness matrix and its CLI."""

import json

import pytest

from repro.budget import plan_for_selection_ratio
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments.matrix import (
    ACQUISITION_ENGINES,
    DEFAULT_ENGINES,
    ENGINES,
    NONINTERACTIVE_ENGINES,
    REWARD,
    run_cell,
    run_matrix,
)

#: Tiny-but-nontrivial cell knobs shared across the tests.
SMALL = dict(n_objects=10, selection_ratio=0.5, n_workers=8,
             workers_per_task=3, seeds=(1, 2))


class TestEngineRegistry:
    def test_partition(self):
        assert set(ENGINES) == (set(NONINTERACTIVE_ENGINES)
                                | set(ACQUISITION_ENGINES))
        assert not set(NONINTERACTIVE_ENGINES) & set(ACQUISITION_ENGINES)

    def test_defaults_are_known(self):
        assert set(DEFAULT_ENGINES) <= set(ENGINES)

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_cell("honest", "quicksort", **SMALL)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_matrix(["bogus"], ["borda"], **SMALL)


class TestRunCell:
    def test_cell_shape(self):
        cell = run_cell("spammer", "borda", **SMALL)
        assert cell.family == "spammer"
        assert cell.engine == "borda"
        assert cell.seeds == (1, 2)
        assert 0.0 <= cell.accuracy_min <= cell.accuracy_mean \
            <= cell.accuracy_max <= 1.0
        assert cell.votes_mean > 0
        assert cell.vote_efficiency > 0

    def test_accuracy_complements_kendall(self):
        cell = run_cell("honest", "copeland", **SMALL)
        assert cell.accuracy_mean + cell.kendall_tau_mean \
            == pytest.approx(1.0)

    def test_deterministic(self):
        first = run_cell("clique", "crh_saps", **SMALL)
        second = run_cell("clique", "crh_saps", **SMALL)
        assert first.accuracy_mean == second.accuracy_mean
        assert first.kendall_tau_mean == second.kendall_tau_mean
        assert first.votes_mean == second.votes_mean

    def test_acquisition_cell_spends_the_matched_budget(self):
        cell = run_cell("spammer", "random", rounds=2, **SMALL)
        paired = run_cell("spammer", "borda", **SMALL)
        assert 0 < cell.votes_mean <= paired.votes_mean
        plan = plan_for_selection_ratio(
            SMALL["n_objects"], SMALL["selection_ratio"],
            workers_per_task=SMALL["workers_per_task"], reward=REWARD)
        afforded = int(plan.budget.total / REWARD + 1e-9)
        assert cell.votes_mean == afforded == 66

    def test_row_and_payload(self):
        cell = run_cell("honest", "rc", **SMALL)
        row = cell.as_row()
        assert row["family"] == "honest"
        assert row["engine"] == "rc"
        assert set(row) == {"family", "engine", "n", "r", "w", "accuracy",
                            "acc_min", "kendall_tau", "votes",
                            "acc_per_kvote", "seconds"}
        payload = cell.as_payload()
        assert payload["seeds"] == [1, 2]


class TestRunMatrix:
    def test_cells_in_grid_order(self):
        cells = run_matrix(["honest", "spammer"], ["borda", "copeland"],
                           **SMALL)
        assert [(c.family, c.engine) for c in cells] == [
            ("honest", "borda"), ("honest", "copeland"),
            ("spammer", "borda"), ("spammer", "copeland"),
        ]

    def test_noninteractive_rows_are_paired(self):
        cells = run_matrix(["clique"], ["crh_saps", "borda", "rc"],
                           **SMALL)
        votes = {c.votes_mean for c in cells}
        assert len(votes) == 1

    def test_matrix_cell_matches_standalone_cell(self):
        # The shared per-seed votes are identically seeded, so a row
        # cell must equal the same cell collected standalone.
        matrix_cell = run_matrix(["drift"], ["borda"], **SMALL)[0]
        solo_cell = run_cell("drift", "borda", **SMALL)
        assert matrix_cell.accuracy_mean == solo_cell.accuracy_mean

    def test_budget_families_override_knobs(self):
        cells = run_matrix(["starved", "saturated"], ["borda"], **SMALL)
        starved, saturated = cells
        assert starved.workers_per_task == 1
        assert starved.votes_mean == SMALL["n_objects"] - 1
        assert saturated.selection_ratio == 1.0
        assert saturated.votes_mean > starved.votes_mean


class TestMatrixCli:
    ARGS = ["matrix", "--families", "spammer", "--engines", "borda",
            "--n-objects", "8", "--workers", "6", "--ratio", "0.5",
            "--seeds", "1", "2"]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "spammer" in out
        assert "borda" in out
        assert "accuracy" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        cell = payload[0]
        assert cell["family"] == "spammer"
        assert cell["seeds"] == [1, 2]
        assert 0.0 <= cell["accuracy"] <= 1.0

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "matrix.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "family" in header and "accuracy" in header

    def test_unknown_family_is_an_error(self, capsys):
        assert main(["matrix", "--families", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err
