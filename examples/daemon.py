"""A long-lived synthesis service daemon with artifact hot-reload.

Run with::

    python examples/daemon.py

The script runs the synthesis pipeline once and persists the run, then starts a
:class:`SynthesisDaemon` over the artifact with ``workers=4`` dispatcher
threads (the pipeline's own parallelism is ``SynthesisConfig.executor``, which
sizes build pools only; see :mod:`repro.exec`).
Auto-fill / auto-join / auto-correct batches are submitted concurrently from
several client threads.  While clients keep submitting, the corpus grows and
``pipeline.refresh`` publishes a new artifact version — the daemon's watcher
picks it up and atomically hot-swaps the served generation (in-flight batches
finish on the old one).
Finally the daemon drains and shuts down cleanly, printing per-generation
serving stats.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.applications import CorrectRequest, FillRequest, JoinRequest
from repro.core import SynthesisConfig, SynthesisPipeline
from repro.corpus import CorpusGenerationSpec, WebCorpusGenerator


def main() -> None:
    # 1. One cold pipeline run, persisted as the served artifact.
    spec = CorpusGenerationSpec(tables_per_relation=5, max_rows=20, seed=7)
    corpus = WebCorpusGenerator(spec).generate()
    artifact_path = Path(tempfile.mkdtemp(prefix="repro-daemon-")) / "web.artifact.json.gz"
    config = SynthesisConfig(
        min_domains=2,
        min_mapping_size=5,
        artifact_path=str(artifact_path),
    )
    pipeline = SynthesisPipeline(config)
    result = pipeline.run(corpus)  # auto-saves to config.artifact_path
    print(f"pipeline run: {len(result.curated)} curated mappings -> {artifact_path.name}")

    # 2. The daemon serves the artifact: bounded queue, dispatcher threads, watcher.
    daemon = pipeline.start_daemon(workers=4, queue_size=32, poll_seconds=0.05)
    generation = daemon.generation
    print(f"daemon up: generation {generation.number}, "
          f"{daemon.workers} workers, "
          f"queue bound {daemon.queue_size}")

    # 3. Several client threads submit batches concurrently.
    def client(name: str, batches: int) -> None:
        for index in range(batches):
            ticket = daemon.autofill(
                [FillRequest(keys=("California", "Texas", "Ohio", "Washington"))],
                block=True,
            )
            result = ticket.result(timeout=30)
            if index == 0:
                filled = result.responses[0].result.filled
                print(f"  client {name}: gen {result.generation} "
                      f"({result.total_seconds * 1000:.1f} ms) -> {filled}")

    clients = [
        threading.Thread(target=client, args=(f"c{index}", 10)) for index in range(3)
    ]
    for thread in clients:
        thread.start()

    # 4. Meanwhile the corpus grows; refresh publishes -> the watcher hot-swaps.
    bigger = WebCorpusGenerator(
        CorpusGenerationSpec(tables_per_relation=6, max_rows=20, seed=7)
    ).generate()
    _, refresh_stats = pipeline.refresh(bigger)  # auto-saves the new version
    deadline = time.monotonic() + 10
    while daemon.generation.number == 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    print(f"hot reload: generation {daemon.generation.number} after refresh "
          f"(+{refresh_stats.tables_added} tables, "
          f"{refresh_stats.pairs_reused} pair scores reused)")

    for thread in clients:
        thread.join()

    # 5. Operators poll health(): one JSON-able snapshot of generation, queue,
    #    shed-load counters, and watcher degradation.
    health = daemon.health()
    print(f"health: {health['status']}, generation {health['generation']}, "
          f"queue {health['queue_depth']}/{health['queue_size']}, "
          f"shed {health['shed']}")

    # 6. Chaos drill: every publish in this block is deterministically treated
    #    as failed.  The watcher backs off, then pins the last good generation
    #    — the daemon keeps serving and health() says exactly what is wrong.
    from repro.faults import FaultPlan, injected_faults

    pinned_generation = daemon.generation.number
    with injected_faults(FaultPlan(seed=7, publish_failure_rate=1.0)):
        for _ in range(4):  # a storm of failed publishes
            time.sleep(0.01)  # distinct mtime per publish
            pipeline.save_artifact(artifact_path)
            daemon.watcher.check_now(force=True)
        health = daemon.health()
        watcher_health = health["watcher"]
        print(f"failed-publish storm: status {health['status']}, "
              f"still serving generation {daemon.generation.number}, "
              f"pinned={watcher_health['pinned']} after "
              f"{watcher_health['consecutive_failures']} consecutive failures")
        assert daemon.generation.number == pinned_generation
    # Chaos over: the very next good publish recovers automatically.
    time.sleep(0.01)
    pipeline.save_artifact(artifact_path)
    daemon.watcher.check_now(force=True)
    print(f"recovered: status {daemon.health()['status']}, "
          f"generation {daemon.generation.number}")

    # 7. Mixed batches against the new generation, then a clean drain + close.
    join = daemon.autojoin(
        [JoinRequest(left_keys=("California", "Texas"), right_keys=("TX", "CA"))]
    ).result(timeout=30)
    correct = daemon.autocorrect(
        [CorrectRequest(values=("California", "Washington", "Oregon", "CA", "WA"))]
    ).result(timeout=30)
    print(f"autojoin on gen {join.generation}: "
          f"{join.responses[0].result.row_pairs}")
    print(f"autocorrect on gen {correct.generation}: "
          f"{ {s.original: s.suggestion for s in correct.responses[0].result} }")

    daemon.drain(timeout=30)
    daemon.close()
    print("per-generation stats after clean shutdown:")
    for stats in daemon.stats_by_generation():
        print(f"  gen {stats.generation}: {stats.as_dict()['total_requests']} requests "
              f"in {stats.batches} batches "
              f"(p95 autofill {stats.latency_percentile('autofill', 0.95) * 1000:.1f} ms)")


if __name__ == "__main__":
    main()
