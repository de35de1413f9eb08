"""The server process of the ``serve_mixed`` workload.

Runs one :class:`repro.server.RankingServer` with the shipped
``ServerConfig()`` defaults, prints ``PORT <port>`` once it listens, and
serves until its standard input closes.  Then it stops the server and
prints one JSON line with its per-layer spans summary.

With ``--trace 1`` it wraps, before the server starts, the public calls
a rank miss and a session update make (see ``SERVE_TARGETS``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.server import RankingServer, ServerConfig  # noqa: E402
from spans import Tracer, count  # noqa: E402

SERVE_TARGETS = [
    ("repro.inference.pipeline", "RankingPipeline.run", "service.execute",
     None),
    ("repro.inference.pipeline", "saps_search_report", "inference.search",
     lambda r: {"proposed": count(r, "proposed_moves"),
                "accepted": count(r, "accepted_moves")}),
    ("repro.streaming.session", "RankingSession.ingest", "streaming.ingest",
     lambda r: {"dirty_pairs": count(r, "n_dirty_pairs")}),
    ("repro.streaming.session", "RankingSession.suggest",
     "acquisition.suggest", None),
]


def summarize(tracer: Tracer) -> dict:
    """Per span name: median call duration and medians of its counts."""
    out = {}
    names = sorted({span["name"] for span in tracer.spans})
    for name in names:
        spans = [s for s in tracer.spans if s["name"] == name]
        entry = {"calls": len(spans),
                 "median_s": statistics.median(s["end"] - s["start"]
                                               for s in spans)}
        for key in sorted({k for s in spans for k in s.get("attrs", {})}):
            entry[key] = statistics.median(s.get("attrs", {}).get(key, 0.0)
                                           for s in spans)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")

    tracer = Tracer()
    if args.trace:
        tracer.install(SERVE_TARGETS)
    server = RankingServer(ServerConfig())
    server.start()
    print(f"PORT {server.port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
    if args.trace_out:
        tracer.dump(Path(args.trace_out))
    print(json.dumps({"layers": summarize(tracer),
                      "missing_targets": tracer.missing}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
