"""The adversarial workload matrix: scenario families × engines.

``run_matrix`` sweeps the :mod:`repro.datasets.adversarial` scenario
families against a grid of ranking engines and reports one
:class:`MatrixCell` per ``(family, engine)`` — mean/min/max accuracy,
mean normalised Kendall-tau distance, votes spent, and *vote
efficiency* (accuracy points per 1000 votes) aggregated over seeds.
This is the robustness surface ``BENCH_scenarios.json`` publishes and
CI gates: a future perf PR that silently trades away robustness moves
a cell below its committed floor and fails the smoke gate.

Engines come in two kinds, all at **matched budgets**:

* *Non-interactive* engines consume one shared, paired vote set per
  ``(family, seed)`` — the CRH+SAPS pipeline (``crh_saps``) against
  the unweighted baselines (``borda``, ``copeland``, ``rc``, ``btl``).
  Pairing means engine comparisons within a cell row are not confounded
  by vote noise.
* *Acquisition* engines (``bdp``, ``uncertainty``, ``random``) run
  :func:`repro.adaptive.adaptive_rank` against an interactive platform
  over the *same* adversarial pool, with a money budget equal to the
  non-interactive plan's spend — the BDP value-of-information policy is
  thereby exercised under hostile posteriors, not just honest ones.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..adaptive import adaptive_rank
from ..baselines import borda_count, bradley_terry_mle, copeland_ranking, repeat_choice
from ..budget import plan_for_selection_ratio
from ..config import PipelineConfig
from ..datasets.adversarial import FAMILIES, make_adversarial_scenario
from ..datasets.synthetic import SimulationScenario
from ..exceptions import ConfigurationError
from ..inference import RankingPipeline
from ..metrics import normalized_kendall_tau_distance, ranking_accuracy
from ..platform import InteractivePlatform
from ..types import Ranking, VoteSet
from .runner import collect_votes

#: Engines ranked on one shared (paired) non-interactive vote set.
#: ``hodge``/``lsq`` are the sparse least-squares engines of
#: :mod:`repro.inference.engines`, run through the same pipeline seam.
NONINTERACTIVE_ENGINES: Tuple[str, ...] = (
    "crh_saps", "hodge", "lsq", "borda", "copeland", "rc", "btl",
)

#: Engines driving their own value-of-information acquisition loop.
ACQUISITION_ENGINES: Tuple[str, ...] = ("bdp", "uncertainty", "random")

ENGINES: Tuple[str, ...] = NONINTERACTIVE_ENGINES + ACQUISITION_ENGINES

#: The default grid: the pipeline, two unweighted baselines, and the
#: BDP acquisition policy.
DEFAULT_ENGINES: Tuple[str, ...] = ("crh_saps", "borda", "copeland", "bdp")

#: Reward per vote on the interactive platform (the paper's $0.025).
REWARD = 0.025


@dataclass(frozen=True)
class MatrixCell:
    """One ``(family, engine)`` cell, aggregated over seeds."""

    family: str
    engine: str
    n_objects: int
    selection_ratio: float
    workers_per_task: int
    seeds: Tuple[int, ...]
    accuracy_mean: float
    accuracy_min: float
    accuracy_max: float
    kendall_tau_mean: float
    votes_mean: float
    vote_efficiency: float
    seconds_mean: float

    def as_row(self) -> Dict[str, object]:
        """Flatten for the reporting layer (aligned text tables)."""
        return {
            "family": self.family,
            "engine": self.engine,
            "n": self.n_objects,
            "r": round(self.selection_ratio, 3),
            "w": self.workers_per_task,
            "accuracy": round(self.accuracy_mean, 4),
            "acc_min": round(self.accuracy_min, 4),
            "kendall_tau": round(self.kendall_tau_mean, 4),
            "votes": round(self.votes_mean, 1),
            "acc_per_kvote": round(self.vote_efficiency, 4),
            "seconds": round(self.seconds_mean, 4),
        }

    def as_payload(self) -> Dict[str, object]:
        """JSON-ready dict (the BENCH_scenarios.json cell format)."""
        row = self.as_row()
        row["seeds"] = list(self.seeds)
        return row


def _family_rng(family: str, seed: int, salt: int = 0) -> np.random.Generator:
    """A generator keyed on ``(family, seed)`` — stable under adding or
    reordering families in the sweep (no shared-stream coupling)."""
    return np.random.default_rng(
        [seed, salt, zlib.crc32(family.encode("utf-8"))]
    )


def _run_noninteractive(
    engine: str,
    scenario: SimulationScenario,
    votes: VoteSet,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> Ranking:
    if engine == "crh_saps":
        return RankingPipeline(config.with_(engine="crh_saps")).run(
            votes, rng
        ).ranking
    if engine in ("hodge", "lsq"):
        return RankingPipeline(config.with_(engine=engine)).run(
            votes, rng
        ).ranking
    if engine == "borda":
        return borda_count(votes, rng)
    if engine == "copeland":
        return copeland_ranking(votes, rng)
    if engine == "rc":
        return repeat_choice(votes, rng)
    if engine == "btl":
        ranking, _ = bradley_terry_mle(votes)
        return ranking
    raise ConfigurationError(f"unknown non-interactive engine {engine!r}")


def run_cell(
    family: str,
    engine: str,
    *,
    n_objects: int = 40,
    selection_ratio: float = 0.3,
    n_workers: int = 20,
    workers_per_task: int = 3,
    seeds: Sequence[int] = (1, 2, 3),
    config: Optional[PipelineConfig] = None,
    rounds: int = 4,
    shared_votes: Optional[Dict[int, Tuple[SimulationScenario, VoteSet]]]
    = None,
    **family_params,
) -> MatrixCell:
    """Run one ``(family, engine)`` cell over the given seeds.

    ``shared_votes`` lets :func:`run_matrix` pair every non-interactive
    engine of a family row on the same per-seed vote sets; when absent
    the cell collects its own (identically seeded, hence identical)
    votes.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    config = config or PipelineConfig()
    accuracies: List[float] = []
    taus: List[float] = []
    vote_counts: List[float] = []
    timings: List[float] = []
    ratio_used = selection_ratio
    w_used = workers_per_task
    for seed in seeds:
        if shared_votes is not None and seed in shared_votes:
            scenario, votes = shared_votes[seed]
        else:
            scenario = make_adversarial_scenario(
                family, n_objects, selection_ratio, n_workers=n_workers,
                workers_per_task=workers_per_task,
                rng=_family_rng(family, seed), **family_params,
            )
            votes = collect_votes(scenario, rng=_family_rng(family, seed, 1))
        ratio_used = scenario.selection_ratio
        w_used = scenario.workers_per_task
        infer_rng = _family_rng(family, seed, 2)
        start = time.perf_counter()
        if engine in NONINTERACTIVE_ENGINES:
            ranking = _run_noninteractive(engine, scenario, votes, config,
                                          infer_rng)
            n_votes = len(votes)
        else:
            # Matched budget: the same spend the non-interactive plan
            # makes, paid out query by query on an interactive platform
            # over the same hostile pool.
            plan = plan_for_selection_ratio(
                scenario.n_objects, scenario.selection_ratio,
                workers_per_task=scenario.workers_per_task, reward=REWARD,
            )
            scenario.pool.reseed(_family_rng(family, seed, 3))
            platform = InteractivePlatform(
                scenario.pool, scenario.ground_truth,
                budget=plan.budget.total, reward=REWARD,
                rng=_family_rng(family, seed, 4),
            )
            affordable = platform.remaining_queries()
            result, _ = adaptive_rank(
                platform, config=config, rng=infer_rng, policy=engine,
                rounds=rounds,
            )
            ranking = result.ranking
            # Each query pays exactly one comparison.
            n_votes = affordable - platform.remaining_queries()
        timings.append(time.perf_counter() - start)
        accuracies.append(
            ranking_accuracy(ranking, scenario.ground_truth)
        )
        taus.append(normalized_kendall_tau_distance(
            ranking, scenario.ground_truth
        ))
        vote_counts.append(float(n_votes))
    votes_mean = sum(vote_counts) / len(vote_counts)
    accuracy_mean = sum(accuracies) / len(accuracies)
    return MatrixCell(
        family=family,
        engine=engine,
        n_objects=n_objects,
        selection_ratio=ratio_used,
        workers_per_task=w_used,
        seeds=tuple(int(s) for s in seeds),
        accuracy_mean=accuracy_mean,
        accuracy_min=min(accuracies),
        accuracy_max=max(accuracies),
        kendall_tau_mean=sum(taus) / len(taus),
        votes_mean=votes_mean,
        vote_efficiency=(accuracy_mean / votes_mean * 1000.0
                         if votes_mean else 0.0),
        seconds_mean=sum(timings) / len(timings),
    )


def run_matrix(
    families: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    *,
    n_objects: int = 40,
    selection_ratio: float = 0.3,
    n_workers: int = 20,
    workers_per_task: int = 3,
    seeds: Sequence[int] = (1, 2, 3),
    config: Optional[PipelineConfig] = None,
    rounds: int = 4,
    **family_params,
) -> List[MatrixCell]:
    """Sweep the full scenario × engine grid.

    Within one family row every non-interactive engine is paired on the
    same per-seed vote set (collected once), so row-internal engine
    comparisons isolate the inference method from vote noise.  Returns
    cells in ``families × engines`` order.
    """
    families = list(families) if families is not None else list(FAMILIES)
    engines = list(engines) if engines is not None else list(DEFAULT_ENGINES)
    for family in families:
        if family not in FAMILIES:
            raise ConfigurationError(
                f"unknown scenario family {family!r}; choose from "
                f"{', '.join(FAMILIES)}"
            )
    cells: List[MatrixCell] = []
    for family in families:
        shared: Dict[int, Tuple[SimulationScenario, VoteSet]] = {}
        if any(e in NONINTERACTIVE_ENGINES for e in engines):
            for seed in seeds:
                scenario = make_adversarial_scenario(
                    family, n_objects, selection_ratio,
                    n_workers=n_workers,
                    workers_per_task=workers_per_task,
                    rng=_family_rng(family, seed), **family_params,
                )
                votes = collect_votes(
                    scenario, rng=_family_rng(family, seed, 1)
                )
                shared[seed] = (scenario, votes)
        for engine in engines:
            cells.append(run_cell(
                family, engine,
                n_objects=n_objects, selection_ratio=selection_ratio,
                n_workers=n_workers, workers_per_task=workers_per_task,
                seeds=seeds, config=config, rounds=rounds,
                shared_votes=shared if engine in NONINTERACTIVE_ENGINES
                else None,
                **family_params,
            ))
    return cells
