"""Wisdom store: machine-record round-trips, corruption recovery, fingerprints."""

import json
import logging

import pytest

from repro.model.machines import generic_laptop
from repro.tune import wisdom
from repro.tune.wisdom import (
    SCHEMA_VERSION,
    WisdomStore,
    default_store,
    default_wisdom_path,
    fingerprint_digest,
    machine_fingerprint,
    set_default_store,
)


#: A well-formed machine record as the store file holds it.
MACHINE_DOC = {"name": "tuned-old", "peak_gflops_per_core": 9.0,
               "bandwidth_gbs": 9.0, "cores": 2, "lam": 1.0}


class TestFingerprint:
    def test_fields(self):
        fp = machine_fingerprint()
        assert {"cpu_count", "machine", "python", "numpy", "repro"} <= set(fp)

    def test_digest_stable(self):
        assert fingerprint_digest() == fingerprint_digest(machine_fingerprint())
        assert len(fingerprint_digest()) == 12

    @pytest.mark.parametrize("field", [
        "cpu_count", "machine", "python", "numpy", "blas", "repro"])
    def test_each_field_scopes_the_record(self, tmp_path, field):
        path = tmp_path / "wisdom.json"
        fp = machine_fingerprint()
        fp[field] = fp[field] + 1 if isinstance(fp[field], int) else "other"
        path.write_text(json.dumps({"version": SCHEMA_VERSION,
                                    "fingerprint": fp,
                                    "machine": MACHINE_DOC}))
        s = WisdomStore(path)
        assert s.ignored_stale and not s.recovered_corrupt
        assert s.machine_params() is None
        assert path.exists()  # ignored, not set aside

    def test_stale_record_is_dropped_at_the_next_save(self, tmp_path):
        path = tmp_path / "wisdom.json"
        fp = dict(machine_fingerprint(), machine="alien")
        path.write_text(json.dumps({"version": SCHEMA_VERSION,
                                    "fingerprint": fp,
                                    "machine": MACHINE_DOC}))
        WisdomStore(path).save()
        assert json.loads(path.read_text()) == {
            "version": SCHEMA_VERSION, "fingerprint": machine_fingerprint()}


class TestRoundTrip:
    def test_survives_process_restart(self, store):
        store.record_machine(generic_laptop(2))
        reborn = WisdomStore(store.path)  # a new process does exactly this
        assert reborn.machine_params() == generic_laptop(2)

    def test_file_is_versioned_json(self, store):
        store.record_machine(generic_laptop(2))
        doc = json.loads(store.path.read_text())
        assert set(doc) == {"version", "fingerprint", "machine"}
        assert doc["version"] == SCHEMA_VERSION == 4
        assert doc["fingerprint"] == machine_fingerprint()

    def test_machine_params_round_trip(self, store):
        store.record_machine(generic_laptop(2))
        mp = WisdomStore(store.path).machine_params()
        assert mp is not None
        assert mp.cores == 2 and mp.peak_gflops_per_core == 8.0

    def test_clear(self, store):
        store.record_machine(generic_laptop(2))
        store.clear()
        assert store.machine_params() is None
        assert WisdomStore(store.path).machine_params() is None


def _old_schema(path, version, **fields):
    """Write a file of an older schema that also holds a machine record."""
    path.write_text(json.dumps({
        "version": version,
        "fingerprint": machine_fingerprint(),
        "machine": MACHINE_DOC,
        **fields,
    }))


class TestCorruptionRecovery:
    def test_garbage_degrades_to_empty(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("{this is not json")
        s = WisdomStore(path)
        assert s.recovered_corrupt
        assert s.machine_params() is None
        # The bad file is set aside, not silently destroyed.
        assert path.with_suffix(".json.corrupt").exists()

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"version": 999}))
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None

    def test_version_1_file_is_set_aside(self, tmp_path, sample_config):
        # Version 1 configs carried backend/workers fields; version 2
        # dropped them and reads old files as unsupported, not upgraded.
        path = tmp_path / "wisdom.json"
        cfg = {**sample_config(), "backend": "specialized",
               "workers": "processes"}
        _old_schema(path, 1, entries={"b": {
            "config": cfg, "problem": [96, 96, 96], "gflops": 5.0,
            "time_s": 1e-3, "samples": 3, "dtype": "float64"}})
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()

    def test_version_2_file_is_set_aside(self, tmp_path, sample_config):
        # Version 2 configs and buckets carried a thread count; version 3
        # dropped both and sets old files aside, with no upgrader.
        path = tmp_path / "wisdom.json"
        cfg = {**sample_config(), "threads": 1}
        _old_schema(path, 2, entries={"s7|r0,0|float64|tauto": {
            "config": cfg, "problem": [96, 96, 96], "gflops": 5.0,
            "time_s": 1e-3, "samples": 3, "dtype": "float64"}})
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()

    def test_version_3_file_is_set_aside(self, tmp_path, sample_config):
        # Version 3 files carried measured per-bucket verdicts and a
        # tunables section; version 4 holds only the machine record and
        # sets the older file aside, machine record included.
        path = tmp_path / "wisdom.json"
        _old_schema(path, 3, entries={"s7|r0,0|float64": {
            "config": sample_config(), "problem": [96, 96, 96],
            "gflops": 5.0, "time_s": 1e-3, "samples": 3,
            "dtype": "float64"}}, tunables={"fused_group": 4})
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()

    @pytest.mark.parametrize("version", [0, 5, "4", None],
                             ids=["0", "5", "string", "null"])
    def test_unsupported_version_is_set_aside(self, tmp_path, version):
        path = tmp_path / "wisdom.json"
        _old_schema(path, version)
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()

    @pytest.mark.parametrize("doc", [[], "wisdom", 4, None],
                             ids=["list", "string", "number", "null"])
    def test_non_object_document_is_set_aside(self, tmp_path, doc):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps(doc))
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()

    @pytest.mark.parametrize("field", sorted(MACHINE_DOC))
    def test_machine_record_missing_a_field_is_set_aside(self, tmp_path,
                                                         field):
        path = tmp_path / "wisdom.json"
        machine = {k: v for k, v in MACHINE_DOC.items() if k != field}
        path.write_text(json.dumps({"version": SCHEMA_VERSION,
                                    "fingerprint": machine_fingerprint(),
                                    "machine": machine}))
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None
        assert path.with_suffix(".json.corrupt").exists()

    def test_file_without_a_machine_record_loads_empty(self, tmp_path):
        # What save() writes before any calibration: valid, just empty.
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"version": SCHEMA_VERSION,
                                    "fingerprint": machine_fingerprint()}))
        s = WisdomStore(path)
        assert not s.recovered_corrupt and not s.ignored_stale
        assert s.machine_params() is None
        assert path.exists()

    def test_set_aside_warns_and_replaces_an_older_corrupt_file(
            self, tmp_path, caplog):
        path = tmp_path / "wisdom.json"
        corrupt = path.with_suffix(".json.corrupt")
        for text in ("first garbage", "second garbage"):
            path.write_text(text)
            with caplog.at_level(logging.WARNING, logger="repro.tune.wisdom"):
                WisdomStore(path)
        warned = [r for r in caplog.records if r.name == "repro.tune.wisdom"
                  and r.levelno == logging.WARNING]
        assert len(warned) == 2
        assert corrupt.read_text() == "second garbage"

    def test_malformed_machine_record(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": machine_fingerprint(),
            "machine": {"name": "tuned-x", "peak_gflops_per_core": "fast"},
        }))
        s = WisdomStore(path)
        assert s.recovered_corrupt and s.machine_params() is None

    def test_recovered_store_records_fine(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("garbage")
        s = WisdomStore(path)
        s.record_machine(generic_laptop(2))
        assert WisdomStore(path).machine_params() == generic_laptop(2)

    def test_foreign_fingerprint_ignored(self, tmp_path):
        path = tmp_path / "wisdom.json"
        fp = dict(machine_fingerprint(), cpu_count=4096, machine="alien")
        path.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": fp,
            "machine": {"name": "tuned-alien", "peak_gflops_per_core": 9.0,
                        "bandwidth_gbs": 9.0, "cores": 4096, "lam": 1.0},
        }))
        s = WisdomStore(path)
        assert s.ignored_stale and not s.recovered_corrupt
        assert s.machine_params() is None


class TestConcurrentProcesses:
    def test_clear_does_not_resurrect_disk_record(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = WisdomStore(path)  # both load while the file is empty
        b = WisdomStore(path)
        a.record_machine(generic_laptop(2))
        b.clear()
        assert WisdomStore(path).machine_params() is None


class TestAtomicSave:
    def test_saves_leave_only_the_file(self, store):
        store.record_machine(generic_laptop(2))
        store.record_machine(generic_laptop(1))
        store.clear()
        assert [p.name for p in store.path.parent.iterdir()] == [
            store.path.name]

    def test_failed_replace_keeps_the_old_file(self, store, monkeypatch):
        store.record_machine(generic_laptop(2))
        before = store.path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        with monkeypatch.context() as mp:
            mp.setattr(wisdom.os, "replace", failing_replace)
            with pytest.raises(OSError):
                store.save()
        assert store.path.read_bytes() == before
        assert [p.name for p in store.path.parent.iterdir()] == [
            store.path.name]  # the temp file is removed

    def test_record_keeps_the_machine_when_the_write_fails(
            self, store, monkeypatch, caplog):
        store.record_machine(generic_laptop(2))
        before = store.path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("read-only file system")

        with monkeypatch.context() as mp:
            mp.setattr(wisdom.os, "replace", failing_replace)
            with caplog.at_level(logging.WARNING, logger="repro.tune.wisdom"):
                store.record_machine(generic_laptop(1))  # does not raise
        assert store.machine_params() == generic_laptop(1)
        assert store.path.read_bytes() == before
        assert any("keeping it in memory" in r.getMessage()
                   for r in caplog.records)


class TestDefaultStore:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WISDOM", str(tmp_path / "env.json"))
        set_default_store(None)
        try:
            assert default_wisdom_path() == tmp_path / "env.json"
            assert default_store().path == tmp_path / "env.json"
        finally:
            set_default_store(None)

    @pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
    def test_home_cache_without_the_env(self, tmp_path, monkeypatch, env):
        monkeypatch.setenv("HOME", str(tmp_path))
        if env is None:
            monkeypatch.delenv("REPRO_WISDOM", raising=False)
        else:
            monkeypatch.setenv("REPRO_WISDOM", env)
        assert default_wisdom_path() == (
            tmp_path / ".cache" / "repro" / "wisdom.json")

    def test_set_default_store_by_path(self, tmp_path):
        try:
            set_default_store(tmp_path / "explicit.json")
            assert default_store().path == tmp_path / "explicit.json"
        finally:
            set_default_store(None)
