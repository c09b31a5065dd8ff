"""Unit tests for the :mod:`repro.exec` build pool.

Covers spec parsing (``"serial"`` and ``"process[:N]"`` only), the
:class:`ProcessBackend` methods (ordered ``map_blocks``, lifecycle),
initializer plumbing, the :class:`FanOut` session (one pool per stage run,
none below the gate), and the :class:`~repro.core.config.SynthesisConfig`
integration — the ``executor`` field and the ``REPRO_EXECUTOR`` environment
hook.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import EXECUTOR_ENV_VAR, SynthesisConfig
from repro.exec import (
    ExecutorSpecError,
    FanOut,
    ProcessBackend,
    chunk_evenly,
    parse_executor_spec,
)


def _square(value: int) -> int:
    return value * value


def _read_token(_: object = None) -> str:
    # Reads state installed by _install_token — exercises initializer plumbing.
    return os.environ.get("_REPRO_EXEC_TEST_TOKEN", "missing")


def _install_token(token: str) -> None:
    # Set in each worker process by the pool initializer.
    os.environ["_REPRO_EXEC_TEST_TOKEN"] = token


def _token_and_pid(_: object = None) -> tuple[str, int]:
    return _read_token(), os.getpid()


class TestSpecParsing:
    def test_kinds_and_counts(self):
        assert parse_executor_spec("serial") == ("serial", 1)
        assert parse_executor_spec("process:4") == ("process", 4)
        assert parse_executor_spec(" Process:2 ") == ("process", 2)

    def test_bare_parallel_kind_defaults_to_cpu_count(self):
        kind, workers = parse_executor_spec("process")
        assert kind == "process"
        assert workers == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "spec",
        ["", "  ", "rocket:4", "process:0", "process:-1", "process:two",
         "serial:3", "process:", "process: ", "thread"],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ExecutorSpecError):
            parse_executor_spec(spec)

    def test_retired_thread_kind_names_the_supported_kinds(self):
        with pytest.raises(ExecutorSpecError, match="'serial'.*'process'"):
            parse_executor_spec("thread:2")

    def test_spec_error_is_a_value_error(self):
        assert issubclass(ExecutorSpecError, ValueError)


class TestChunkEvenly:
    def test_contiguous_and_complete(self):
        items = list(range(10))
        chunks = chunk_evenly(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) <= 4  # ceil-sized contiguous slices

    def test_fewer_items_than_chunks(self):
        assert chunk_evenly([1, 2], 8) == [[1], [2]]

    def test_empty(self):
        assert chunk_evenly([], 4) == []

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)


class TestChunkEvenlyProperties:
    """Hypothesis invariants for the chunker every fan-out path relies on."""

    @given(
        items=st.lists(st.integers(), max_size=50),
        chunks=st.integers(min_value=1, max_value=64),
    )
    def test_order_preserved_and_nothing_lost(self, items, chunks):
        result = chunk_evenly(items, chunks)
        assert [x for chunk in result for x in chunk] == items

    @given(
        items=st.lists(st.integers(), max_size=50),
        chunks=st.integers(min_value=1, max_value=64),
    )
    def test_no_empty_chunks_and_at_most_requested(self, items, chunks):
        result = chunk_evenly(items, chunks)
        assert all(chunk for chunk in result)
        assert len(result) <= chunks

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=50),
        chunks=st.integers(min_value=1, max_value=64),
    )
    def test_sizes_even_within_one(self, items, chunks):
        sizes = [len(chunk) for chunk in chunk_evenly(items, chunks)]
        assert max(sizes) - min(sizes) <= 1

    @given(items=st.lists(st.integers(), max_size=20))
    def test_more_chunks_than_items_yields_singletons(self, items):
        result = chunk_evenly(items, len(items) + 5)
        assert result == [[item] for item in items]

    @given(
        items=st.lists(st.integers(), max_size=10),
        chunks=st.integers(max_value=0),
    )
    def test_nonpositive_chunks_always_raise(self, items, chunks):
        with pytest.raises(ValueError):
            chunk_evenly(items, chunks)


class TestProcessBackend:
    def test_map_blocks_preserves_order(self):
        with ProcessBackend(2) as backend:
            assert backend.map_blocks(sum, [[1, 2], [3], [4, 5, 6]]) == [3, 3, 15]

    def test_task_exceptions_propagate(self):
        with ProcessBackend(2) as backend:
            with pytest.raises(TypeError):
                backend.map_blocks(_square, [2, "not-an-int"])

    def test_initializer_runs_before_tasks(self):
        backend = ProcessBackend(
            2, initializer=_install_token, initargs=("token-process",)
        )
        with backend:
            results = set(backend.map_blocks(_read_token, range(3)))
        assert results == {"token-process"}

    def test_matches_a_plain_list_comprehension(self):
        blocks = [list(range(i, i + 4)) for i in range(0, 20, 4)]
        with ProcessBackend(2) as backend:
            assert backend.map_blocks(sum, blocks) == [sum(block) for block in blocks]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)

    def test_close_is_idempotent_and_final(self):
        backend = ProcessBackend(2)
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError):
            backend.map_blocks(_square, [1])

    def test_pool_is_lazy(self):
        # A backend that never runs anything must never spawn its pool.
        backend = ProcessBackend(2)
        assert backend._pool is None
        backend.close()
        assert backend._pool is None

    def test_concurrent_first_use_creates_one_pool(self):
        # The lazy pool property may be read by many threads at once; a
        # check-then-create race must not construct (and orphan) a second
        # executor.
        from concurrent.futures import ThreadPoolExecutor

        backend = ProcessBackend(2)
        try:
            with ThreadPoolExecutor(max_workers=8) as racers:
                pools = list(
                    racers.map(lambda _: backend.pool, range(16))
                )
            assert len({id(pool) for pool in pools}) == 1
        finally:
            backend.close()

    def test_process_pool_uses_spawn_when_other_threads_are_alive(self):
        # Forking a multi-threaded process can clone a held lock into the
        # child and hang the pool; with any other thread alive the backend
        # must pick the spawn start method instead of the platform default.
        import threading

        release = threading.Event()
        keeper = threading.Thread(target=release.wait, daemon=True)
        keeper.start()
        backend = ProcessBackend(1)
        try:
            assert backend.pool._mp_context.get_start_method() == "spawn"
            assert backend.map_blocks(_square, [5]) == [25]
        finally:
            backend.close()
            release.set()
            keeper.join()


class TestConfigExecutorField:
    @pytest.fixture(autouse=True)
    def _clean_executor_env(self, monkeypatch):
        # These tests pin the *default* resolution order; a REPRO_EXECUTOR set
        # in the environment (the CI process matrix leg exports process:2
        # job-wide) would legitimately pre-empt it, so clear it here and test
        # the env behavior explicitly via monkeypatch.setenv below.
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)

    def test_hash_regression_with_extra_dict(self):
        # `extra` is a dict field on a frozen dataclass: without hash=False the
        # generated __hash__ raised TypeError (the PR 4 latent bug).
        assert isinstance(hash(SynthesisConfig()), int)
        assert isinstance(hash(SynthesisConfig(extra={"sweep": 1})), int)
        assert hash(SynthesisConfig()) == hash(SynthesisConfig())

    def test_extra_still_participates_in_equality(self):
        assert SynthesisConfig(extra={"a": 1}) != SynthesisConfig(extra={"a": 2})

    def test_invalid_executor_spec_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            SynthesisConfig(executor="rocket:4")
        with pytest.raises(ValueError):
            SynthesisConfig(executor="process:0")

    def test_retired_thread_spec_rejected_naming_supported_kinds(self):
        with pytest.raises(ExecutorSpecError, match="'serial'.*'process'"):
            SynthesisConfig(executor="thread:2")

    def test_effective_executor_is_the_explicit_spec(self):
        config = SynthesisConfig(executor="process:3")
        assert config.effective_executor() == "process:3"

    def test_effective_executor_defaults_to_serial(self):
        config = SynthesisConfig()
        assert config.effective_executor() == "serial"

    def test_env_override_fills_unset_executor(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process:2")
        config = SynthesisConfig()
        assert config.executor == "process:2"
        assert config.effective_executor() == "process:2"

    def test_env_override_loses_to_explicit_executor(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process:2")
        assert SynthesisConfig(executor="serial").executor == "serial"

    def test_invalid_env_spec_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "bogus:2")
        with pytest.raises(ValueError):
            SynthesisConfig()

    def test_retired_thread_env_spec_rejected_naming_supported_kinds(
        self, monkeypatch
    ):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread:2")
        with pytest.raises(ExecutorSpecError, match="'serial'.*'process'"):
            SynthesisConfig()

    def test_with_overrides_preserves_executor(self):
        config = SynthesisConfig(executor="process:2").with_overrides(fd_theta=0.9)
        assert config.executor == "process:2"


class TestDaemonExecutorSizing:
    """``executor`` sizes build pools only; the daemon's thread count is its own."""

    @pytest.fixture(scope="class")
    def tiny_artifact(self, store_corpus, tmp_path_factory):
        from repro.core.pipeline import SynthesisPipeline

        pipeline = SynthesisPipeline(
            SynthesisConfig(
                executor="serial", use_pmi_filter=False,
                min_domains=1, min_mapping_size=2, min_rows=4,
            )
        )
        pipeline.run(store_corpus)
        return pipeline.save_artifact(tmp_path_factory.mktemp("sizing") / "tiny.gz")

    def test_executor_does_not_size_the_daemon(self, tiny_artifact, monkeypatch):
        from repro.applications.service import MappingService
        from repro.serving import SynthesisDaemon

        def dispatchers(config, **kwargs):
            with SynthesisDaemon.from_artifact(
                tiny_artifact, config=config, watch=False, **kwargs
            ) as daemon:
                assert len(daemon._threads) == daemon.workers
                return daemon.workers

        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        for spec in ("", "serial", "process:3"):
            assert dispatchers(SynthesisConfig(executor=spec)) == 1
            assert dispatchers(SynthesisConfig(executor=spec), workers=4) == 4
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process:3")
        assert dispatchers(SynthesisConfig()) == 1
        assert dispatchers(None) == 1
        with SynthesisDaemon(MappingService([])) as daemon:
            assert daemon.workers == 1


# ---------------------------------------------------------------------------------------
# FanOut: the shared gate + chunk + serial-fallback skeleton
# ---------------------------------------------------------------------------------------
class TestFanOut:
    def test_serial_and_single_worker_never_fan_out(self):
        assert not FanOut("serial").should_fan_out(10_000)
        assert not FanOut("process:1").should_fan_out(10_000)

    def test_gate_requires_two_items_per_worker_by_default(self):
        fan = FanOut("process:3")
        assert not fan.should_fan_out(5)
        assert fan.should_fan_out(6)

    def test_chunking_matches_chunk_evenly(self):
        fan = FanOut("process:2")
        items = list(range(100))
        assert fan.chunk(items) == chunk_evenly(items, 8)

    def test_run_blocks_matches_serial(self):
        fan = FanOut("process:2")
        blocks = [[1, 2], [3], [4, 5, 6]]
        with fan.session():
            assert fan.run_blocks(_sum_block, blocks) == [3, 3, 15]
        assert not fan.fallback

    def test_pool_failure_returns_none_and_sets_fallback(self):
        # A lambda cannot be pickled into a worker: the pool fails, the caller
        # is told to run its sequential path, and the fan-out stays closed.
        fan = FanOut("process:2")
        with fan.session():
            assert fan.run_blocks(lambda block: block, [[1], [2]]) is None
        assert fan.fallback
        assert fan.fallback_reason
        assert not fan.should_fan_out(10_000)

    def test_run_blocks_needs_a_session(self):
        with pytest.raises(RuntimeError, match="session"):
            FanOut("process:2").run_blocks(_sum_block, [[1]])

    def test_invalid_spec_fails_at_construction(self):
        with pytest.raises(ExecutorSpecError):
            FanOut("process:zero")

    def test_session_shares_one_pool_across_calls(self):
        """Calls inside a session run on the same pool, whose workers ran the
        session's initializer."""
        fan = FanOut("process:2")
        with fan.session(initializer=_install_token, initargs=("session",)):
            first = fan.run_blocks(_token_and_pid, [None] * 4)
            pool = fan._backend._pool
            second = fan.run_blocks(_token_and_pid, [None] * 4)
            assert fan._backend._pool is pool
        if first is None:  # pragma: no cover - sandboxed environments
            assert fan.fallback
            return
        assert pool is not None
        assert {token for token, _ in first + second} == {"session"}
        workers = {pid for _, pid in first + second}
        assert len(workers) <= 2
        # The pool ends with its session; the next session starts its own.
        assert fan._backend is None
        with fan.session(initializer=_install_token, initargs=("next",)):
            third = fan.run_blocks(_token_and_pid, [None] * 4)
        assert {token for token, _ in third} == {"next"}
        assert {pid for _, pid in third}.isdisjoint(workers)

    def test_session_that_never_fans_out_builds_no_backend(self):
        fan = FanOut("process:2")
        with fan.session(initializer=_install_token, initargs=("idle",)):
            assert fan._backend is None
        assert fan._backend is None

    def test_serial_or_gated_stages_build_no_backend(self, store_corpus, monkeypatch):
        # edit_stream extracts one changed table at a time: below the gate, as
        # under "serial", a stage must not even construct a backend.
        from repro.exec import fanout
        from repro.extraction.candidates import CandidateExtractor
        from repro.graph.build import GraphBuilder

        def refuse(*args, **kwargs):
            raise AssertionError("a ProcessBackend was built")

        monkeypatch.setattr(fanout, "ProcessBackend", refuse)
        tables = list(store_corpus)
        serial = SynthesisConfig(executor="serial")
        gated = SynthesisConfig(executor="process:2")
        candidates, _ = CandidateExtractor(serial).extract_tables(tables)
        GraphBuilder(serial).build(candidates)
        extractor = CandidateExtractor(gated)
        extractor.extract_tables(tables[:1])
        assert not extractor.last_parallel_fallback
        builder = GraphBuilder(gated)
        builder.build(candidates[:3])
        assert not builder.last_build_stats.parallel_fallback


def _sum_block(block):
    return sum(block)
