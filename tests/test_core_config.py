"""Tests for SynthesisConfig validation and helpers."""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro.applications.service import MappingService
from repro.cluster import ClusterRouter
from repro.core.config import SynthesisConfig
from repro.net.client import RemoteReplica
from repro.net.server import ReplicaServer, serve_shard
from repro.serving import ArtifactWatcher, SynthesisDaemon
from repro.store import save_artifact
from repro.updates import UpdateStream


class TestSynthesisConfigValidation:
    def test_defaults_are_valid(self):
        config = SynthesisConfig()
        assert 0.0 < config.fd_theta <= 1.0
        assert config.conflict_threshold <= 0.0

    def test_invalid_fd_theta(self):
        with pytest.raises(ValueError):
            SynthesisConfig(fd_theta=0.0)
        with pytest.raises(ValueError):
            SynthesisConfig(fd_theta=1.5)

    def test_invalid_min_rows(self):
        with pytest.raises(ValueError):
            SynthesisConfig(min_rows=0)

    def test_invalid_edge_threshold(self):
        with pytest.raises(ValueError):
            SynthesisConfig(edge_threshold=1.5)
        with pytest.raises(ValueError):
            SynthesisConfig(edge_threshold=-0.1)

    def test_positive_conflict_threshold_rejected(self):
        with pytest.raises(ValueError):
            SynthesisConfig(conflict_threshold=0.3)

    def test_invalid_overlap_threshold(self):
        with pytest.raises(ValueError):
            SynthesisConfig(overlap_threshold=0)

    def test_invalid_conflict_strategy(self):
        with pytest.raises(ValueError):
            SynthesisConfig(conflict_strategy="delete-everything")

    def test_invalid_edit_fraction(self):
        with pytest.raises(ValueError):
            SynthesisConfig(edit_fraction=-0.2)

    def test_negative_edit_cap_rejected(self):
        with pytest.raises(ValueError, match="edit_cap"):
            SynthesisConfig(edit_cap=-1)

    def test_invalid_min_domains(self):
        with pytest.raises(ValueError):
            SynthesisConfig(min_domains=0)


class TestSynthesisConfigHelpers:
    def test_with_overrides_returns_new_object(self):
        config = SynthesisConfig()
        changed = config.with_overrides(fd_theta=0.9)
        assert changed.fd_theta == 0.9
        assert config.fd_theta == 0.95
        assert changed is not config

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            SynthesisConfig().with_overrides(fd_theta=2.0)

    def test_paper_defaults(self):
        config = SynthesisConfig.paper_defaults()
        assert config.fd_theta == 0.95
        assert config.use_negative_edges

    def test_positive_only(self):
        config = SynthesisConfig.positive_only()
        assert not config.use_negative_edges

    def test_frozen(self):
        config = SynthesisConfig()
        with pytest.raises(AttributeError):
            config.fd_theta = 0.5  # type: ignore[misc]

    def test_stored_config_with_retired_num_workers_still_decodes(self):
        # Artifacts written before `executor` became the only parallelism
        # option carry a `num_workers` key; loading drops it.
        from repro.store.sections import decode_config

        config = decode_config({"num_workers": 4, "executor": "process:2"})
        assert config.executor == "process:2"
        assert not hasattr(config, "num_workers")


class TestComponentOwnedSettings:
    """Serving, cluster, stream and encoding settings are component keywords.

    Each keeps the default and the range check it had as a config field.
    """

    def test_config_keeps_only_pipeline_fields(self):
        assert len(fields(SynthesisConfig)) == 23
        assert not hasattr(SynthesisConfig, "executor_workers")

    @pytest.mark.parametrize(
        ("owner", "defaults"),
        [
            (
                SynthesisDaemon.from_artifact,
                {"workers": 1, "queue_size": 64, "default_deadline": 0.0,
                 "poll_seconds": 0.25, "breaker_threshold": 0.0},
            ),
            (
                SynthesisDaemon,
                {"workers": 1, "queue_size": 64, "breaker_threshold": 0.0,
                 "breaker_min_requests": 10, "breaker_cooldown": 1.0},
            ),
            (
                ClusterRouter.from_artifact,
                {"replication": 2, "request_timeout": 30.0, "transport": "inproc",
                 "workers": 1, "queue_size": 64, "default_deadline": 0.0,
                 "poll_seconds": 0.25},
            ),
            (
                serve_shard,
                {"workers": 1, "queue_size": 64, "default_deadline": 0.0,
                 "poll_seconds": 0.25, "request_timeout": 30.0},
            ),
            (RemoteReplica, {"connect_timeout": 5.0}),
            (UpdateStream, {"compact_threshold": 64}),
            (save_artifact, {"compress": True}),
        ],
    )
    def test_component_defaults(self, owner, defaults):
        params = inspect.signature(owner).parameters
        assert {name: params[name].default for name in defaults} == defaults

    @pytest.mark.parametrize(
        "build",
        [
            lambda: UpdateStream(None, None, compact_threshold=0),
            lambda: SynthesisDaemon.from_artifact("missing", poll_seconds=0.0),
            lambda: ClusterRouter.from_artifact("missing", request_timeout=0.0),
            lambda: ClusterRouter.from_artifact("missing", transport="udp"),
            lambda: ReplicaServer(None, request_timeout=0.0),
            lambda: RemoteReplica("127.0.0.1", 1, connect_timeout=0.0),
            lambda: ArtifactWatcher("missing", lambda *_: None, poll_seconds=0.0),
            lambda: ClusterRouter.from_artifact("missing", num_shards=0),
        ],
    )
    def test_component_range_checks(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_size": 0},
            {"default_deadline": -1.0},
            {"breaker_threshold": 1.5},
            {"breaker_min_requests": 0},
            {"breaker_cooldown": -1.0},
        ],
    )
    def test_daemon_range_checks(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisDaemon(MappingService([]), **kwargs)
