"""Wisdom store: buckets, round-trips, corruption recovery, fingerprints."""

import json

import pytest

from repro.tune.wisdom import (
    SCHEMA_VERSION,
    WisdomStore,
    default_store,
    default_wisdom_path,
    fingerprint_digest,
    machine_fingerprint,
    problem_bucket,
    set_default_store,
)


class TestProblemBucket:
    def test_deterministic(self):
        assert problem_bucket(96, 96, 96) == problem_bucket(96, 96, 96)

    def test_size_bins_separate(self):
        assert problem_bucket(64, 64, 64) != problem_bucket(256, 256, 256)

    def test_shape_ratio_separates_rank_k_from_square(self):
        assert problem_bucket(14400, 480, 14400) != problem_bucket(
            12000, 12000, 12000
        )

    def test_nearby_sizes_share_a_bucket(self):
        # The whole point of a bucket: verdicts generalize to neighbors.
        assert problem_bucket(96, 96, 96) == problem_bucket(100, 100, 100)

    def test_dtype_and_threads_scope(self):
        """dtype scopes a bucket; thread counts do not (schema 3: every
        execution runs on one worker, BLAS threads the leaf products)."""
        base = problem_bucket(96, 96, 96, "float64")
        assert problem_bucket(96, 96, 96, "float32") != base
        assert base == "s7|r0,0|float64"

    def test_invalid_problem_raises(self):
        with pytest.raises(ValueError):
            problem_bucket(0, 10, 10)


class TestFingerprint:
    def test_fields(self):
        fp = machine_fingerprint()
        assert {"cpu_count", "machine", "python", "numpy", "repro"} <= set(fp)

    def test_digest_stable(self):
        assert fingerprint_digest() == fingerprint_digest(machine_fingerprint())
        assert len(fingerprint_digest()) == 12


class TestRoundTrip:
    def test_record_lookup(self, store, sample_config):
        cfg = sample_config()
        store.record(96, 96, 96, config=cfg, gflops=5.0, time_s=1e-3, samples=9)
        # record() stamps the canonical schedule signature into the config.
        assert store.lookup(96, 96, 96) == {**cfg, "schedule": "<2,2,2>@1"}

    def test_record_stamps_schedule_signature(self, store, sample_config):
        store.record(96, 96, 96, config=sample_config(2), gflops=5.0,
                     time_s=1e-3, samples=9)
        assert store.lookup(96, 96, 96)["schedule"] == "<2,2,2>@2"
        classical = dict(sample_config(), algorithm="classical")
        store.record(8, 8, 8, config=classical, gflops=1.0, time_s=1e-3,
                     samples=3)
        assert store.lookup(8, 8, 8)["schedule"] == "classical@1"

    def test_lookup_tuple_form(self, store, sample_config):
        store.record(96, 96, 96, config=sample_config(2), gflops=5.0,
                     time_s=1e-3, samples=9)
        assert store.lookup_tuple(96, 96, 96) == (
            ((2, 2, 2), (2, 2, 2)), 2, "abc", "direct",
        )

    def test_survives_process_restart(self, store, sample_config):
        store.record(96, 96, 96, config=sample_config(), gflops=5.0,
                     time_s=1e-3, samples=9)
        reborn = WisdomStore(store.path)  # a new process does exactly this
        assert reborn.lookup(96, 96, 96) == {
            **sample_config(), "schedule": "<2,2,2>@1"
        }
        assert len(reborn) == 1

    def test_miss_returns_none(self, store):
        assert store.lookup(500, 10, 500) is None

    def test_classical_config(self, store, sample_config):
        cfg = dict(sample_config(), algorithm="classical")
        store.record(8, 8, 8, config=cfg, gflops=1.0, time_s=1e-3, samples=3)
        assert store.lookup_tuple(8, 8, 8) == (
            "classical", 1, "abc", "direct"
        )

    def test_file_is_versioned_json(self, store, sample_config):
        store.record(96, 96, 96, config=sample_config(), gflops=5.0,
                     time_s=1e-3, samples=9)
        doc = json.loads(store.path.read_text())
        assert doc["version"] == SCHEMA_VERSION
        assert doc["fingerprint"] == machine_fingerprint()

    def test_record_validates_config(self, store):
        with pytest.raises(ValueError):
            store.record(96, 96, 96, config={"algorithm": "nonsense"},
                         gflops=1.0, time_s=1e-3, samples=1)

    def test_machine_params_round_trip(self, store):
        from repro.model.machines import generic_laptop

        store.record_machine(generic_laptop(2))
        mp = WisdomStore(store.path).machine_params()
        assert mp is not None
        assert mp.cores == 2 and mp.peak_gflops_per_core == 8.0

    def test_clear(self, store, sample_config):
        store.record(96, 96, 96, config=sample_config(), gflops=5.0,
                     time_s=1e-3, samples=9)
        store.clear()
        assert len(store) == 0
        assert WisdomStore(store.path).lookup(96, 96, 96) is None

    def test_record_after_a_negative_lookup(self, store, sample_config):
        assert store.lookup(96, 96, 96) is None
        store.record(96, 96, 96, config=sample_config(), gflops=5.0,
                     time_s=1e-3, samples=9)
        assert store.lookup(96, 96, 96) == {
            **sample_config(), "schedule": "<2,2,2>@1"
        }


class TestCorruptionRecovery:
    def test_garbage_degrades_to_empty(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("{this is not json")
        s = WisdomStore(path)
        assert s.recovered_corrupt
        assert len(s) == 0
        assert s.lookup(96, 96, 96) is None
        # The bad file is set aside, not silently destroyed.
        assert path.with_suffix(".json.corrupt").exists()

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"version": 999, "entries": {}}))
        s = WisdomStore(path)
        assert s.recovered_corrupt and len(s) == 0

    def test_version_1_file_is_set_aside(self, tmp_path, sample_config):
        # Version 1 configs carried backend/workers fields; version 2
        # dropped them and reads old files as unsupported, not upgraded.
        assert SCHEMA_VERSION == 3
        path = tmp_path / "wisdom.json"
        cfg = {**sample_config(), "backend": "specialized",
               "workers": "processes"}
        path.write_text(json.dumps({
            "version": 1,
            "fingerprint": machine_fingerprint(),
            "entries": {"b": {"config": cfg, "problem": [96, 96, 96],
                              "gflops": 5.0, "time_s": 1e-3, "samples": 3,
                              "dtype": "float64"}},
        }))
        s = WisdomStore(path)
        assert s.recovered_corrupt and len(s) == 0
        assert path.with_suffix(".json.corrupt").exists()
        assert s.lookup(96, 96, 96) is None

    def test_version_2_file_is_set_aside(self, tmp_path, sample_config):
        # Version 2 configs and buckets carried a thread count; version 3
        # dropped both and sets old files aside, with no upgrader.
        path = tmp_path / "wisdom.json"
        cfg = {**sample_config(), "threads": 1}
        path.write_text(json.dumps({
            "version": 2,
            "fingerprint": machine_fingerprint(),
            "entries": {"s7|r0,0|float64|tauto": {
                "config": cfg, "problem": [96, 96, 96], "gflops": 5.0,
                "time_s": 1e-3, "samples": 3, "dtype": "float64"}},
        }))
        s = WisdomStore(path)
        assert s.recovered_corrupt and len(s) == 0
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()
        assert s.lookup(96, 96, 96) is None

    def test_malformed_entry_config(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": machine_fingerprint(),
            "entries": {"b": {"config": {"algorithm": 42}}},
        }))
        s = WisdomStore(path)
        assert s.recovered_corrupt and len(s) == 0

    def test_entry_missing_metadata_is_corrupt(self, tmp_path, sample_config):
        # A valid config with no problem/gflops fields must not pass load:
        # the CLI renders those fields without re-checking.
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": machine_fingerprint(),
            "entries": {"b": {"config": sample_config()}},
        }))
        s = WisdomStore(path)
        assert s.recovered_corrupt and len(s) == 0

    def test_recovered_store_records_fine(self, tmp_path, sample_config):
        path = tmp_path / "wisdom.json"
        path.write_text("garbage")
        s = WisdomStore(path)
        s.record(96, 96, 96, config=sample_config(), gflops=5.0,
                 time_s=1e-3, samples=9)
        assert WisdomStore(path).lookup(96, 96, 96) == {
            **sample_config(), "schedule": "<2,2,2>@1"
        }

    def test_foreign_fingerprint_ignored(self, tmp_path, sample_config):
        path = tmp_path / "wisdom.json"
        fp = dict(machine_fingerprint(), cpu_count=4096, machine="alien")
        path.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": fp,
            "entries": {
                problem_bucket(96, 96, 96): {
                    "config": sample_config(), "gflops": 1.0, "time_s": 1e-3,
                    "samples": 1, "problem": [96, 96, 96], "dtype": "float64",
                    "created_utc": "2026-01-01T00:00:00Z",
                },
            },
        }))
        s = WisdomStore(path)
        assert s.ignored_stale and not s.recovered_corrupt
        assert s.lookup(96, 96, 96) is None


class TestConcurrentProcesses:
    def test_save_merges_other_writers(self, tmp_path, sample_config):
        # Two processes share one file: neither may erase the other's
        # verdicts when it persists its own.
        path = tmp_path / "wisdom.json"
        a = WisdomStore(path)  # both load while the file is empty
        b = WisdomStore(path)
        a.record(64, 64, 64, config=sample_config(), gflops=1.0,
                 time_s=1e-3, samples=1)
        b.record(256, 256, 256, config=sample_config(2), gflops=2.0,
                 time_s=1e-3, samples=1)
        reborn = WisdomStore(path)
        assert reborn.lookup(64, 64, 64) is not None
        assert reborn.lookup(256, 256, 256) is not None

    def test_machine_calibration_not_erased_by_other_writer(self, tmp_path,
                                                            sample_config):
        from repro.model.machines import generic_laptop

        path = tmp_path / "wisdom.json"
        a = WisdomStore(path)
        b = WisdomStore(path)
        a.record_machine(generic_laptop(2))
        b.record(64, 64, 64, config=sample_config(), gflops=1.0,
                 time_s=1e-3, samples=1)
        reborn = WisdomStore(path)
        assert reborn.machine_params() is not None
        assert reborn.lookup(64, 64, 64) is not None

    def test_clear_does_not_resurrect_disk_entries(self, store, sample_config):
        store.record(64, 64, 64, config=sample_config(), gflops=1.0,
                     time_s=1e-3, samples=1)
        store.clear()
        assert len(WisdomStore(store.path)) == 0


class TestDefaultStore:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WISDOM", str(tmp_path / "env.json"))
        set_default_store(None)
        try:
            assert default_wisdom_path() == tmp_path / "env.json"
            assert default_store().path == tmp_path / "env.json"
        finally:
            set_default_store(None)

    def test_set_default_store_by_path(self, tmp_path):
        try:
            set_default_store(tmp_path / "explicit.json")
            assert default_store().path == tmp_path / "explicit.json"
        finally:
            set_default_store(None)
