"""The ``serve_mixed`` workload: one server child, one load generator.

The server (``serve_child.py``) runs with ``ServerConfig()`` defaults in
its own process.  This process drives it over one keep-alive HTTP
connection, closed loop (each request is sent as soon as it is ready
and the previous reply has arrived, after a random pause of at most
``PAUSE_S``), with no client retries.  The traffic is a fixed
sequence of streaming sessions (``early_stop: false``).  A session is
created, then ``SESSION_BATCHES`` times runs one cycle of four requests,
then is deleted.  One cycle is:

* ``POST /v1/rank`` with a fresh job of crowd votes on ``N_OBJECTS``
  objects and the ``FAST_PIPELINE`` config (a cache miss);
* the exact same request again (a cache hit);
* ``POST /v1/sessions/{id}/votes`` with a batch of ``SESSION_BATCH``
  votes;
* ``GET /v1/sessions/{id}/suggest?k=SUGGEST_K``.

The sequence is a pure function of the seed; the run stops at the first
cycle boundary after ``seconds``.  Latency runs from send to the end of
the reply.  One connection and no overlapping requests keep the load
generator and the server each on one core of a 2-core host, so the
figures measure the program rather than the scheduler.

After the run every reply is checked against the program run in this
process: each rank reply equals ``RankingPipeline.run`` on the same
job, each hit equals its miss, and each session's last ranking equals a
``RankingSession`` fed the same batches.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.config import FAST_PIPELINE
from repro.inference import RankingPipeline
from repro.metrics import ranking_accuracy
from repro.service import JobResult, JobStatus, ResultCache
from repro.service.cache import fingerprint_job
from repro.service.jobs import (
    config_to_payload,
    job_from_payload,
    job_result_to_payload,
)
from repro.streaming.session import RankingSession, SessionConfig
from repro.types import Ranking, Vote

HERE = Path(__file__).resolve().parent

N_OBJECTS = 100
N_WORKERS = N_OBJECTS // 8
#: Rank jobs: share of all pairs compared and workers per pair (about
#: 4.5k votes, a 58 KB body).
RANK_RATIO = 0.3
RANK_W = 3
SESSION_BATCH = 200
SESSION_BATCHES = 20
SUGGEST_K = 5
REQUEST_TIMEOUT_S = 60.0
ROUTES = ("rank_miss", "rank_hit", "session_votes", "suggest")
#: Each request waits a seeded random pause of up to this long before it
#: is sent.  Replies wait for the kernel's delayed-ACK timer (see
#: ``perfbench/README.md``), which fires on 4 ms ticks; sent back to back,
#: requests would stay in phase with the ticks and every latency would
#: round to a whole tick, so a route's median would jump by 4 ms at a
#: time.  The pause spreads the phase evenly over a tick.
PAUSE_S = 0.004
#: Server start-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


# -- inputs -------------------------------------------------------------------

class Crowd:
    """A latent ranking and ``N_WORKERS`` workers who answer each
    comparison correctly with their own fixed probability.  Every crowd
    has the same spread of qualities, only shuffled, so accuracy varies
    little from seed to seed."""

    def __init__(self, rng: np.random.Generator):
        self.order = rng.permutation(N_OBJECTS)
        self.position = np.argsort(self.order)
        self.quality = rng.permutation(np.linspace(0.6, 0.95, N_WORKERS))

    def answer(self, rng, first, second, workers) -> List[List[int]]:
        correct = rng.random(len(workers)) < self.quality[workers]
        first_better = self.position[first] < self.position[second]
        winner_is_first = first_better == correct
        winner = np.where(winner_is_first, first, second)
        loser = np.where(winner_is_first, second, first)
        return np.stack([workers, winner, loser], axis=1).tolist()


def rank_job(rng: np.random.Generator, index: int):
    """One ``/v1/rank`` job body and the latent ranking behind it."""
    crowd = Crowd(rng)
    lo, hi = np.triu_indices(N_OBJECTS, k=1)
    chosen = rng.choice(len(lo), size=round(RANK_RATIO * len(lo)),
                        replace=False)
    first = np.repeat(lo[chosen], RANK_W)
    second = np.repeat(hi[chosen], RANK_W)
    workers = np.argsort(rng.random((len(chosen), N_WORKERS)),
                         axis=1)[:, :RANK_W].ravel()
    payload = {
        "schema": "repro.job/1",
        "job_id": f"job-{index}",
        "seed": int(rng.integers(2**31)),
        "votes": {"n_objects": N_OBJECTS,
                  "votes": crowd.answer(rng, first, second, workers)},
        "config": config_to_payload(FAST_PIPELINE),
    }
    return json.dumps(payload).encode(), Ranking(crowd.order.tolist())


def session_batches(rng: np.random.Generator):
    """``SESSION_BATCHES`` vote batches on random pairs of one crowd."""
    crowd = Crowd(rng)
    batches = []
    for _ in range(SESSION_BATCHES):
        first = rng.integers(N_OBJECTS, size=SESSION_BATCH)
        second = (first + rng.integers(1, N_OBJECTS, size=SESSION_BATCH)) \
            % N_OBJECTS
        workers = rng.integers(N_WORKERS, size=SESSION_BATCH)
        batches.append(crowd.answer(rng, first, second, workers))
    return batches


class Traffic:
    """The run's requests, a pure function of the seed, in groups: a
    session's create, its cycles, its delete, then the next session.
    ``sessions`` holds each session's batches, config and server id."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pauses = np.random.default_rng([seed, 1])
        self.sessions: List[dict] = []

    def groups(self) -> Iterator[List[dict]]:
        rng, job = self.rng, 0
        while True:
            sid = len(self.sessions)
            batches = session_batches(rng)
            config = {"early_stop": False, "seed": int(rng.integers(2**31))}
            self.sessions.append({"batches": batches, "config": config,
                                  "id": None})
            yield [{"route": "session_create", "method": "POST",
                    "path": "/v1/sessions", "session": sid,
                    "body": json.dumps({"n_objects": N_OBJECTS,
                                        "config": config}).encode()}]
            for number, batch in enumerate(batches):
                body, truth = rank_job(rng, job)
                rank = {"method": "POST", "path": "/v1/rank", "body": body,
                        "job": job, "truth": truth}
                yield [
                    dict(rank, route="rank_miss"),
                    dict(rank, route="rank_hit"),
                    {"route": "session_votes", "method": "POST",
                     "path": "/v1/sessions/{id}/votes", "session": sid,
                     "batch": number,
                     "body": json.dumps({"votes": batch}).encode()},
                    {"route": "suggest", "method": "GET",
                     "path": f"/v1/sessions/{{id}}/suggest?k={SUGGEST_K}",
                     "session": sid, "body": None},
                ]
                job += 1
            yield [{"route": "session_delete", "method": "DELETE",
                    "path": "/v1/sessions/{id}", "session": sid,
                    "body": None}]


# -- driving the server ---------------------------------------------------------

class Connection:
    """One keep-alive connection; reopened only after the server closed it."""

    def __init__(self, port: int):
        self._port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, method: str, path: str, body: Optional[bytes]):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def drive(port: int, traffic: Traffic, seconds: float) -> List[dict]:
    """Send ``traffic`` closed loop until ``seconds`` have passed at a
    group boundary.  Returns the requests sent, each with its send and
    reply times, status and reply."""
    conn = Connection(port)
    sent_requests: List[dict] = []
    previous_done = start = time.perf_counter()
    try:
        for group in traffic.groups():
            if time.perf_counter() - start >= seconds:
                break
            for request in group:
                path = request["path"]
                if "session" in request:
                    session = traffic.sessions[request["session"]]
                    path = path.format(id=session["id"])
                pause = PAUSE_S * traffic.pauses.random()
                time.sleep(pause)
                sent = time.perf_counter()
                request["late"] = sent - previous_done - pause
                try:
                    status, data = conn.send(request["method"], path,
                                             request["body"])
                except (OSError, http.client.HTTPException) as error:
                    status, data = None, repr(error).encode()
                done = previous_done = time.perf_counter()
                request.update(sent=sent, done=done, status=status,
                               reply=data)
                sent_requests.append(request)
                if status == 201 and request["route"] == "session_create":
                    session["id"] = json.loads(data)["session_id"]
    finally:
        conn.close()
    return sent_requests


def get(port: int, path: str):
    conn = Connection(port)
    try:
        return conn.send("GET", path, None)
    finally:
        conn.close()


def start_server(env: dict, trace: bool, trace_out: Optional[Path]):
    """Start the server child; returns (process, port, seconds until the
    first 200 reply)."""
    start = time.perf_counter()
    command = [sys.executable, str(HERE / "serve_child.py"),
               "--trace", str(int(trace))]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    process = subprocess.Popen(command, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = process.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"server child did not start: {line!r}")
        port = int(line.split()[1])
        while True:
            try:
                if get(port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > 60:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
    except BaseException:
        stop_server(process)
        raise
    return process, port, time.perf_counter() - start


def stop_server(process) -> dict:
    """Close the child's stdin, wait for it, return its JSON summary."""
    try:
        out, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"server child exited with {process.returncode}")
    return json.loads(lines[-1])


# -- metrics --------------------------------------------------------------------

def p50(values: List[float]) -> float:
    """Median; 0.0 for no values (a run that failed already)."""
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def prometheus_values(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*(?:\{[^}]*\})?) (\S+)$", line)
        if match:
            values[match.group(1)] = float(match.group(2))
    return values


def check_and_time(requests: List[dict], sessions: List[dict]):
    """Check every reply against the program run in this process, and
    time the service layers' public calls on the same bodies.

    Returns (failed request ids, accuracies, in-process layer timings).
    """
    failed = set()
    accuracies = []
    layer = {"parse": [], "fingerprint": [], "cache_get": [],
             "serialize": []}
    cache = ResultCache(max_entries=8)
    misses: Dict[int, dict] = {}
    for request in requests:
        if not request["route"].startswith("rank_"):
            continue
        if request["status"] != 200:
            failed.add(id(request))
            continue
        reply = json.loads(request["reply"])
        request["job_seconds"] = reply.get("seconds", 0.0)
        if request["route"] == "rank_hit":
            miss = misses.get(request["job"])
            same = miss is not None and all(
                reply.get(key) == miss.get(key)
                for key in ("status", "ranking", "result"))
            if not same:
                failed.add(id(request))
            continue
        misses[request["job"]] = reply
        start = time.perf_counter()
        job = job_from_payload(json.loads(request["body"]))
        parsed = time.perf_counter()
        key = fingerprint_job(job)
        layer["fingerprint"].append(time.perf_counter() - parsed)
        layer["parse"].append(parsed - start)
        result = RankingPipeline(job.config).run(
            job.votes, np.random.default_rng(job.seed))
        cache.put(key, result)
        start = time.perf_counter()
        cache.get(key)
        layer["cache_get"].append(time.perf_counter() - start)
        start = time.perf_counter()
        json.dumps(job_result_to_payload(JobResult(
            job_id=job.job_id, status=JobStatus.SUCCEEDED, result=result,
            attempts=1, seconds=reply.get("seconds", 0.0))), sort_keys=True)
        layer["serialize"].append(time.perf_counter() - start)
        if (reply.get("ranking") != list(result.ranking.order)
                or reply.get("result", {}).get("log_preference")
                != result.log_preference):
            failed.add(id(request))
        accuracies.append(ranking_accuracy(result.ranking, request["truth"]))

    for sid, session in enumerate(sessions):
        own = [r for r in requests if r.get("session") == sid]
        for request in own:
            if request["status"] not in (200, 201):
                failed.add(id(request))
        votes = [r for r in own if r["route"] == "session_votes"]
        if not votes or any(id(r) in failed for r in own):
            continue
        local = RankingSession("check", N_OBJECTS, SessionConfig(
            early_stop=False, seed=session["config"]["seed"]))
        for request in votes:
            local.ingest(Vote(worker=w, winner=a, loser=b)
                         for w, a, b in session["batches"][request["batch"]])
        last = json.loads(votes[-1]["reply"])["ranking"]
        if last != list(local.ranking.order):
            failed.add(id(votes[-1]))
    return failed, accuracies, layer


def run(env: dict, seed: int, seconds: float, trace: bool,
        trace_out: Optional[Path]) -> dict:
    """One ``serve_mixed`` run; returns the result fields for run.py."""
    # Set-up samples: server start until its first 200 reply.
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        process, _, setup = start_server(env, False, None)
        stop_server(process)
        setups.append(setup)
    traffic = Traffic(seed)
    process, port, setup = start_server(env, trace, trace_out)
    setups.append(setup)
    try:
        everything = drive(port, traffic, seconds)
        status, text = get(port, "/metrics")
        scraped = prometheus_values(text.decode()) if status == 200 else {}
    finally:
        server = stop_server(process)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    failed, accuracies, inproc = check_and_time(everything, traffic.sessions)
    latency = {route: [1000 * (r["done"] - r["sent"]) for r in everything
                       if r["route"] == route and id(r) not in failed]
               for route in ROUTES}
    routes = {}
    for route, values in latency.items():
        routes[f"{route}_p50_ms"] = p50(values)
        routes[f"{route}_p90_ms"] = p90(values)
        routes[f"{route}_samples"] = len(values)
    # Geometric mean of the route medians, so each route weighs the same.
    route_p50 = [max(routes[f"{route}_p50_ms"], 1e-9) for route in ROUTES]
    end_to_end = {
        "latency_ms": (math.exp(statistics.fmean(map(math.log, route_p50))),
                       "ms"),
        # Median, not mean: about one FAST_PIPELINE job in ten ends far
        # from the optimum (accuracy 0.4-0.7), and how many such jobs a
        # run draws moves the mean by a few percent from seed to seed.
        "accuracy": (p50(accuracies), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }

    spans = server["layers"]
    span = lambda name, field="median_s": spans.get(name, {}).get(field, 0.0)  # noqa: E731
    hits = scraped.get("repro_cache_hits_total", 0.0)
    lookups = hits + scraped.get("repro_cache_misses_total", 0.0)
    rank_ok = [r for r in everything
               if r["route"].startswith("rank_") and id(r) not in failed]
    layers = {
        "inference.search_s": span("inference.search"),
        "inference.saps_proposed": span("inference.search", "proposed"),
        "inference.saps_accepted": span("inference.search", "accepted"),
        "inference.saps_accept_ratio": (
            span("inference.search", "accepted")
            / span("inference.search", "proposed")
            if span("inference.search", "proposed") else 0.0),
        "service.parse_s": p50(inproc["parse"]),
        "service.fingerprint_s": p50(inproc["fingerprint"]),
        "service.cache_get_s": p50(inproc["cache_get"]),
        "service.serialize_s": p50(inproc["serialize"]),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.execute_s": span("service.execute"),
        "service.job_s": (scraped.get("repro_job_seconds_sum", 0.0)
                          / scraped["repro_job_seconds_count"]
                          if scraped.get("repro_job_seconds_count") else 0.0),
        "service.retries": scraped.get("repro_retry_attempts_total", 0.0),
        "server.http_overhead_ms": p50([
            1000 * (r["done"] - r["sent"] - r["job_seconds"])
            for r in rank_ok]),
        "server.rejected": sum(value for name, value in scraped.items()
                               if name.startswith("repro_http_rejected_")),
        "streaming.ingest_s": span("streaming.ingest"),
        "streaming.dirty_pairs": span("streaming.ingest", "dirty_pairs"),
        "streaming.damped_restarts": scraped.get(
            "repro_session_damped_restarts_total", 0.0),
        "acquisition.suggest_s": span("acquisition.suggest"),
        "loadgen.late_ms_p90": 1000 * p90([r["late"] for r in everything]),
    }
    layers.update({f"route.{route}_{q}_ms": routes[f"{route}_{q}_ms"]
                   for route in ROUTES for q in ("p50", "p90")})
    return {
        "attempted": len(everything),
        "failed": len(failed),
        "correct": not failed,
        "end_to_end": end_to_end,
        "layers": layers,
        "detail": {"routes": routes, "accuracies": accuracies,
                   "latency_ms": latency,
                   "setups_s": setups,
                   "missing_targets": server.get("missing_targets", []),
                   "server_spans": spans},
    }
