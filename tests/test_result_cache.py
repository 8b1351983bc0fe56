"""Unit tests for the content-addressed result cache.

Covers the key scheme (``repro.cache.keys``), the on-disk store
(``repro.cache.store``) with its read-through remote tier, and the
session integration: a rerun served from cache, invalidation on
salt/machine/schema changes, and graceful recovery from corrupted
entries.
"""

import dataclasses
import json
import os

import pytest

import repro.core.session as session_mod
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cell_cache_key,
    machine_fingerprint,
)
from repro.core.session import Session
from repro.errors import CacheError
from repro.obs import ObsContext, activate_obs
from repro.uarch.machine import XEON_E5_2650_V4

from tests.test_resilience_integration import synthetic_report


class TestCellCacheKey:
    def test_key_is_stable_across_calls(self):
        a = cell_cache_key("svt-av1", "desktop", 35, 4, 3, XEON_E5_2650_V4)
        b = cell_cache_key("svt-av1", "desktop", 35, 4, 3, XEON_E5_2650_V4)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_int_and_float_crf_hash_identically(self):
        a = cell_cache_key("svt-av1", "desktop", 35, 4, 3, XEON_E5_2650_V4)
        b = cell_cache_key("svt-av1", "desktop", 35.0, 4, 3, XEON_E5_2650_V4)
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            {"codec": "x264"},
            {"video": "game1"},
            {"crf": 36.0},
            {"preset": 5},
            {"num_frames": None},
            {"salt": "campaign-2"},
        ],
    )
    def test_every_coordinate_changes_the_key(self, change):
        base = dict(
            codec="svt-av1", video="desktop", crf=35.0, preset=4,
            num_frames=3, machine=XEON_E5_2650_V4, salt="",
        )
        assert cell_cache_key(**base) != cell_cache_key(**{**base, **change})

    def test_machine_model_changes_the_key(self):
        tweaked = dataclasses.replace(
            XEON_E5_2650_V4, frequency_hz=XEON_E5_2650_V4.frequency_hz + 1e8
        )
        base = cell_cache_key("svt-av1", "desktop", 35, 4, 3, XEON_E5_2650_V4)
        assert base != cell_cache_key("svt-av1", "desktop", 35, 4, 3, tweaked)
        assert machine_fingerprint(tweaked) != machine_fingerprint(
            XEON_E5_2650_V4
        )


class TestResultCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" + "0" * 62
        assert cache.put(key, {"ipc": 2.0})
        assert cache.get(key) == {"ipc": 2.0}
        assert cache.hits == 1 and cache.writes == 1
        assert len(cache) == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("cd" + "0" * 62) is None
        assert cache.misses == 1 and cache.invalidations == 0

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ef" + "1" * 62
        cache.put(key, 1)
        assert os.path.exists(tmp_path / "ef" / f"{key}.json")

    def test_corrupt_entry_invalidated_and_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "aa" + "0" * 62
        cache.put(key, {"x": 1})
        path = tmp_path / "aa" / f"{key}.json"
        path.write_text("{truncated")
        assert cache.get(key) is None
        assert cache.invalidations == 1
        assert not path.exists()
        # The slot is usable again after re-publishing.
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}

    def test_stale_schema_version_invalidated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "bb" + "0" * 62
        cache.put(key, 1)
        path = tmp_path / "bb" / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_key_mismatch_invalidated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cc" + "0" * 62
        other = "cc" + "1" * 62
        cache.put(other, 1)
        os.rename(cache._path(other), cache._path(key))
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_put_failure_returns_false_not_raise(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cache = ResultCache(str(blocker))
        assert cache.put("dd" + "0" * 62, 1) is False

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for digit in "012":
            cache.put(f"e{digit}" + "0" * 62, {"n": digit})
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0

    def test_stats_on_missing_root_is_empty(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        assert cache.stats()["entries"] == 0

    def test_unreadable_root_is_cache_error(self, tmp_path):
        blocker = tmp_path / "file-root"
        blocker.write_text("")
        with pytest.raises(CacheError):
            ResultCache(str(blocker)).stats()


class TestRemoteTier:
    KEY = "ab" + "2" * 62

    @staticmethod
    def _counted(action):
        """Run ``action`` under a fresh ObsContext; (result, counters)."""
        obs = ObsContext()
        with activate_obs(obs):
            result = action()
        return result, obs.metrics.snapshot()["counters"]

    def test_put_mirrors_to_the_remote(self, tmp_path):
        remote = tmp_path / "remote"
        cache = ResultCache(str(tmp_path / "local"), remote=str(remote))
        written, counters = self._counted(
            lambda: cache.put(self.KEY, {"ipc": 2.0})
        )
        assert written
        mirrored = remote / "ab" / f"{self.KEY}.json"
        assert mirrored.read_text() == (
            tmp_path / "local" / "ab" / f"{self.KEY}.json"
        ).read_text()
        assert counters["cache.remote.writes"] == 1

    def test_local_miss_reads_through_and_promotes(self, tmp_path):
        remote = str(tmp_path / "remote")
        ResultCache(str(tmp_path / "a"), remote=remote).put(self.KEY, [1, 2])
        reader = ResultCache(str(tmp_path / "b"), remote=remote)
        payload, counters = self._counted(lambda: reader.get(self.KEY))
        assert payload == [1, 2]
        assert counters["cache.remote.hits"] == 1
        assert counters["cache.remote.promotions"] == 1
        # Hits and misses keep their single-tier meaning.
        assert "cache.hits" not in counters
        assert "cache.misses" not in counters
        assert (reader.hits, reader.misses, reader.remote_hits) == (0, 0, 1)
        assert (tmp_path / "b" / "ab" / f"{self.KEY}.json").exists()
        # The promoted entry now serves from the local tier.
        payload, counters = self._counted(lambda: reader.get(self.KEY))
        assert payload == [1, 2]
        assert counters == {"cache.hits": 1}

    @pytest.mark.parametrize(
        "body", ["{truncated", json.dumps({"schema_version": -1})]
    )
    def test_corrupt_remote_entry_is_a_miss_and_kept(self, tmp_path, body):
        remote = tmp_path / "remote"
        entry = remote / "ab" / f"{self.KEY}.json"
        entry.parent.mkdir(parents=True)
        entry.write_text(body)
        reader = ResultCache(str(tmp_path / "local"), remote=str(remote))
        payload, counters = self._counted(lambda: reader.get(self.KEY))
        assert payload is None
        assert counters["cache.remote.errors"] == 1
        assert counters["cache.misses"] == 1
        assert "cache.remote.hits" not in counters
        assert entry.read_text() == body  # someone else's tier: kept
        assert len(reader) == 0

    def test_empty_remote_overrides_the_environment(
        self, monkeypatch, tmp_path
    ):
        remote = tmp_path / "remote"
        monkeypatch.setenv("REPRO_CACHE_REMOTE", str(remote))
        assert ResultCache(str(tmp_path / "a")).remote == str(remote)
        cache = ResultCache(str(tmp_path / "b"), remote="")
        assert cache.remote is None
        assert cache.put(self.KEY, 1)
        assert not remote.exists()

    def test_put_succeeds_when_the_remote_cannot_be_written(self, tmp_path):
        blocker = tmp_path / "remote-is-a-file"
        blocker.write_text("")
        cache = ResultCache(str(tmp_path / "local"), remote=str(blocker))
        written, counters = self._counted(lambda: cache.put(self.KEY, 7))
        assert written is True
        assert counters["cache.writes"] == 1
        assert counters["cache.remote.errors"] == 1
        assert "cache.errors" not in counters
        assert cache.get(self.KEY) == 7


class TestSessionCacheIntegration:
    @pytest.fixture()
    def stub(self, monkeypatch):
        calls = []

        def fake(codec, video, machine=None, crf=None, preset=None,
                 num_frames=None):

            # the session resolves catalog clips to Video objects now

            video = getattr(video, "name", video)
            calls.append((codec, video, crf, preset))
            return synthetic_report(codec, video, crf=crf, preset=preset)

        monkeypatch.setattr(session_mod, "characterize", fake)
        return calls

    def test_rerun_in_fresh_session_served_from_cache(self, stub, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = Session(num_frames=3, cache=cache)
        report = first.report("svt-av1", "desktop", 35, 4)
        assert len(stub) == 1 and cache.writes == 1

        # A brand-new session (fresh process, conceptually) re-asks for
        # the same cell: the encode never runs again.
        second = Session(num_frames=3, cache=ResultCache(str(tmp_path)))
        rerun = second.report("svt-av1", "desktop", 35, 4)
        assert len(stub) == 1
        assert second.cache.hits == 1
        assert rerun == report

    def test_salt_change_orphans_previous_entries(self, stub, tmp_path):
        Session(
            num_frames=3, cache=ResultCache(str(tmp_path))
        ).report("svt-av1", "desktop", 35, 4)
        salted = Session(
            num_frames=3, cache=ResultCache(str(tmp_path), salt="v2")
        )
        salted.report("svt-av1", "desktop", 35, 4)
        assert len(stub) == 2  # the salted run recomputed
        assert salted.cache.misses == 1

    def test_corrupted_entry_recomputed_transparently(self, stub, tmp_path):
        cache = ResultCache(str(tmp_path))
        Session(num_frames=3, cache=cache).report("svt-av1", "desktop", 35, 4)
        (path,) = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(tmp_path)
            for name in names
        ]
        with open(path, "w") as handle:
            handle.write("\x00garbage")
        fresh = Session(num_frames=3, cache=ResultCache(str(tmp_path)))
        report = fresh.report("svt-av1", "desktop", 35, 4)
        assert len(stub) == 2
        assert fresh.cache.invalidations == 1
        assert report == synthetic_report("svt-av1", "desktop", crf=35,
                                          preset=4)
