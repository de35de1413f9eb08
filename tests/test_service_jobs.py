"""Unit tests for the batch-service job model and JSONL codecs."""

import json

import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.exceptions import ConfigurationError, DataFormatError
from repro.service import (
    JobResult,
    JobStatus,
    RankingJob,
    ScenarioSpec,
    dump_results_jsonl,
    iter_jobs_jsonl,
    job_from_payload,
    job_result_from_payload,
    job_result_to_payload,
    job_to_payload,
    load_jobs_jsonl,
)
from repro.service.jobs import config_from_payload, config_to_payload
from repro.types import InferenceResult, Ranking


class TestRankingJobValidation:
    def test_requires_exactly_one_work_source(self, tiny_votes):
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="j")  # neither votes nor scenario
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="j", votes=tiny_votes,
                       scenario=ScenarioSpec(5, 0.5))

    def test_requires_job_id(self, tiny_votes):
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="", votes=tiny_votes)

    def test_scenario_spec_validates(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(1, 0.5)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.5, quality="psychic")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.5, level="superb")


class TestConfigCodec:
    def test_round_trip_preserves_every_field(self):
        config = PipelineConfig(
            search="taps",
            truth_engine="em",
            saps=SAPSConfig(iterations=123, restarts=1),
            propagation=PropagationConfig(alpha=0.7, max_hops=4,
                                          method="walks"),
        )
        assert config_from_payload(config_to_payload(config)) == config

    def test_partial_payload_fills_defaults(self):
        config = config_from_payload({"search": "taps"})
        assert config.search == "taps"
        assert config.truth == PipelineConfig().truth

    def test_none_means_defaults(self):
        assert config_from_payload(None) == PipelineConfig()

    def test_unknown_field_raises(self):
        with pytest.raises(DataFormatError):
            config_from_payload({"exotic": 1})

    def test_invalid_value_raises_data_format(self):
        with pytest.raises(DataFormatError):
            config_from_payload({"search": "bogosort"})
        with pytest.raises(DataFormatError):
            config_from_payload({"saps": {"iterations": -1}})


class TestJobCodec:
    def test_votes_job_round_trip(self, tiny_votes):
        job = RankingJob(job_id="j1", votes=tiny_votes, seed=7)
        clone = job_from_payload(job_to_payload(job))
        assert clone.job_id == "j1"
        assert clone.seed == 7
        assert clone.votes == tiny_votes
        assert clone.config == job.config

    def test_scenario_job_round_trip(self):
        job = RankingJob(job_id="sim", seed=3,
                         scenario=ScenarioSpec(12, 0.4, n_workers=9,
                                               workers_per_task=3,
                                               quality="uniform",
                                               level="low"))
        clone = job_from_payload(job_to_payload(job))
        assert clone.scenario == job.scenario

    def test_schema_tag_enforced(self):
        with pytest.raises(DataFormatError):
            job_from_payload({"job_id": "j"})
        with pytest.raises(DataFormatError):
            job_from_payload({"schema": "repro.job/999", "job_id": "j"})
        with pytest.raises(DataFormatError):
            job_from_payload([1, 2, 3])

    def test_malformed_votes_raise(self):
        with pytest.raises(DataFormatError):
            job_from_payload({"schema": "repro.job/1", "job_id": "j",
                              "votes": {"n_objects": 3,
                                        "votes": [[0, 1, 1]]}})

    @pytest.mark.parametrize("vote", [[2, 0, -1], [0, 7, 1]],
                             ids=["negative", "past_n_objects"])
    def test_out_of_range_vote_id_raises(self, vote):
        with pytest.raises(DataFormatError, match=r"outside \[0, 3\)"):
            job_from_payload({"schema": "repro.job/1", "job_id": "j",
                              "votes": {"n_objects": 3,
                                        "votes": [[0, 0, 1], vote]}})

    @pytest.mark.parametrize("votes", [
        {"n_objects": 3.9, "votes": [[0, 0, 1]]},
        {"n_objects": 3, "votes": [[0, 1.5, 0]]},
        {"n_objects": 3, "votes": [[True, 2, 0]]},
        {"n_objects": 3, "votes": [[1, 2, 0.2]]},
        {"n_objects": 3, "votes": [["1", 2, 0]]},
    ], ids=["float_n_objects", "float_winner", "bool_worker",
            "float_loser", "string_worker"])
    def test_non_integer_ids_raise(self, votes):
        """Nothing is truncated: 3.9 objects or a vote (True, 2, 0.2)
        must not decode as 3 objects or the vote (1, 2, 0)."""
        with pytest.raises(DataFormatError, match="must be (an )?integers?"):
            job_from_payload({"schema": "repro.job/1", "job_id": "j",
                              "votes": votes})

    @pytest.mark.parametrize("seed", [-1, True], ids=["negative", "bool"])
    def test_seed_must_be_a_non_negative_integer(self, tiny_votes, seed):
        payload = job_to_payload(RankingJob(job_id="j", votes=tiny_votes))
        payload["seed"] = seed
        with pytest.raises(DataFormatError, match="non-negative integer"):
            job_from_payload(payload)

    @pytest.mark.parametrize("fields", [
        {"n_objects": 10.5},
        {"n_workers": 0},
        {"workers_per_task": 0},
        {"n_workers": 3, "workers_per_task": 4},
    ], ids=["fractional_n_objects", "no_workers", "no_workers_per_task",
            "more_per_task_than_workers"])
    def test_invalid_scenario_sizes_raise(self, fields):
        scenario = dict({"n_objects": 10, "selection_ratio": 0.5}, **fields)
        with pytest.raises(DataFormatError, match="invalid scenario"):
            job_from_payload({"schema": "repro.job/1", "job_id": "j",
                              "seed": 1, "scenario": scenario})

    def test_non_integer_seed_raises(self, tiny_votes):
        payload = job_to_payload(RankingJob(job_id="j", votes=tiny_votes))
        payload["seed"] = "soon"
        with pytest.raises(DataFormatError):
            job_from_payload(payload)


class TestJsonlStreams:
    def test_blank_and_comment_lines_skipped(self, tiny_votes):
        line = json.dumps(job_to_payload(
            RankingJob(job_id="a", votes=tiny_votes, seed=1)))
        jobs = list(iter_jobs_jsonl(["", "# jobs below", line, "   "]))
        assert [job.job_id for job in jobs] == ["a"]

    def test_error_carries_line_number(self):
        with pytest.raises(DataFormatError, match=":2:"):
            list(iter_jobs_jsonl(["", "{not json"], source=""))

    def test_load_jobs_file_round_trip(self, tmp_path, tiny_votes):
        path = tmp_path / "jobs.jsonl"
        payloads = [
            job_to_payload(RankingJob(job_id=f"j{i}", votes=tiny_votes,
                                      seed=i))
            for i in range(3)
        ]
        path.write_text("".join(json.dumps(p) + "\n" for p in payloads))
        jobs = load_jobs_jsonl(path)
        assert [job.job_id for job in jobs] == ["j0", "j1", "j2"]

    def test_load_missing_file_raises_data_format(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_jobs_jsonl(tmp_path / "nope.jsonl")

    def test_dump_results_jsonl(self):
        result = InferenceResult(ranking=Ranking([1, 0]),
                                 log_preference=-0.5)
        ok = JobResult(job_id="a", status=JobStatus.SUCCEEDED,
                       result=result, attempts=1, seconds=0.1,
                       extras={"accuracy": 1.0})
        bad = JobResult(job_id="b", status=JobStatus.FAILED,
                        error="InferenceError: boom", attempts=2,
                        seconds=0.2)
        lines = dump_results_jsonl([ok, bad]).splitlines()
        first, second = (json.loads(line) for line in lines)
        assert first["schema"] == "repro.job_result/1"
        assert first["ranking"] == [1, 0]
        assert first["extras"] == {"accuracy": 1.0}
        assert first["result"]["schema"] == "repro.inference_result/1"
        assert second["status"] == "failed"
        assert "ranking" not in second
        assert second["error"].startswith("InferenceError")


class TestJobResultRoundTrip:
    def test_succeeded_result_round_trips(self):
        result = InferenceResult(ranking=Ranking([1, 0]),
                                 log_preference=-0.5,
                                 step_seconds={"search": 0.25})
        original = JobResult(job_id="a", status=JobStatus.SUCCEEDED,
                             result=result, attempts=2, from_cache=False,
                             seconds=0.125, extras={"accuracy": 0.9})
        decoded = job_result_from_payload(job_result_to_payload(original))
        assert decoded.job_id == "a"
        assert decoded.status is JobStatus.SUCCEEDED
        assert decoded.result.ranking == result.ranking
        assert decoded.result.step_seconds == {"search": 0.25}
        assert decoded.attempts == 2
        assert decoded.seconds == pytest.approx(0.125)
        assert decoded.extras == {"accuracy": 0.9}

    def test_failed_result_round_trips(self):
        original = JobResult(job_id="b", status=JobStatus.FAILED,
                             error="InferenceError: boom", attempts=3)
        decoded = job_result_from_payload(job_result_to_payload(original))
        assert decoded.status is JobStatus.FAILED
        assert decoded.result is None
        assert decoded.error == "InferenceError: boom"

    def test_wrong_schema_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job/1", "job_id": "a",
                                     "status": "succeeded"})

    def test_unknown_status_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job_result/1",
                                     "job_id": "a", "status": "exploded"})

    def test_missing_job_id_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job_result/1",
                                     "status": "succeeded"})
