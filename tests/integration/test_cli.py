"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_multiply_defaults(self):
        args = build_parser().parse_args(["multiply"])
        assert args.m == 1024 and args.algorithm == "strassen"


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "<2,2,2>" in out and "<6,3,3>" in out

    def test_multiply_direct(self, capsys):
        rc = main(["multiply", "-m", "32", "-k", "40", "-n", "36"])
        assert rc == 0
        assert "max |C - AB|" in capsys.readouterr().out

    def test_multiply_blocked_hybrid(self, capsys):
        rc = main(
            ["multiply", "-m", "30", "-k", "20", "-n", "30",
             "--algorithm", "strassen+<3,2,3>", "--engine", "blocked",
             "--variant", "ab"]
        )
        assert rc == 0
        assert "counters" in capsys.readouterr().out

    def test_multiply_threads(self, capsys):
        # There is no --threads: every multiply runs on one worker and
        # BLAS threads the leaf products (OPENBLAS_NUM_THREADS).
        with pytest.raises(SystemExit) as exc:
            main(["multiply", "-m", "32", "-k", "32", "-n", "32",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["direct", "blocked"])
    def test_multiply_rejects_zero_threads(self, engine):
        # Neither engine path takes a thread count from the command line.
        with pytest.raises(SystemExit) as exc:
            main(["multiply", "-m", "8", "-k", "8", "-n", "8",
                  "--engine", engine, "--threads", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("engine", ["direct", "blocked", "auto"])
    @pytest.mark.parametrize("dims", [("0", "32", "32"), ("32", "32", "0"),
                                      ("0", "0", "0")])
    def test_multiply_empty_dimension_reports_zero_residual(
            self, capsys, engine, dims):
        """The library returns ``A @ B`` for an empty product; the
        residual check must not crash reducing over zero entries."""
        m, k, n = dims
        rc = main(["multiply", "-m", m, "-k", k, "-n", n,
                   "--engine", engine])
        assert rc == 0
        assert "max |C - AB| = 0.000e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["-m", "-k", "-n"])
    def test_multiply_rejects_negative_sizes(self, capsys, flag):
        args = {"-m": "8", "-k": "8", "-n": "8", flag: "-3"}
        with pytest.raises(SystemExit) as exc:
            main(["multiply", *(x for kv in args.items() for x in kv)])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["select"]])
    def test_empty_problem_is_a_usage_error_where_it_is_priced(
            self, capsys, command):
        """select prices the problem; an empty one is refused by the
        parser instead of failing inside the model."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "-m", "0", "-k", "8", "-n", "8"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["multiply"], ["trace", "run"]])
    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_batch_below_one_is_a_usage_error(self, capsys, tmp_path,
                                              command, batch):
        """A batch below one is refused, not run as one 2-D multiply."""
        out = ["-o", str(tmp_path / "t.json")] if command[0] == "trace" else []
        with pytest.raises(SystemExit) as exc:
            main([*command, "-m", "8", "-k", "8", "-n", "8",
                  "--batch", batch, *out])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_select(self, capsys):
        rc = main(["select", "-m", "4800", "-k", "480", "-n", "4800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selected:" in out

    def test_select_json(self, capsys):
        import json

        rc = main(["select", "-m", "4800", "-k", "480", "-n", "4800", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"] == [4800, 480, 4800]
        assert doc["selected"]["variant"] in ("naive", "ab", "abc")
        assert doc["selected"]["predicted_gflops"] > 0
        assert len(doc["ranked"]) >= 2
        # ranked is sorted fastest-first
        times = [c["predicted_time_s"] for c in doc["ranked"]]
        assert times == sorted(times)

    def test_codegen(self, capsys):
        rc = main(["codegen", "-m", "64", "-k", "64", "-n", "64"])
        assert rc == 0
        src = capsys.readouterr().out
        assert src.startswith("def fmm_")
        ns: dict = {}
        exec(src, ns)  # emitted source must be runnable as-is

    def test_model(self, capsys):
        rc = main(["model", "-m", "14400", "-k", "480", "-n", "14400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gemm (BLIS model)" in out and "strassen/abc" in out

    def test_discover_trivial(self, capsys):
        rc = main(
            ["discover", "-m", "1", "-k", "1", "-n", "2", "--rank", "2",
             "--restarts", "4", "--budget", "20"]
        )
        assert rc == 0

    def test_discover_impossible(self):
        rc = main(
            ["discover", "-m", "2", "-k", "2", "-n", "2", "--rank", "4",
             "--restarts", "2", "--budget", "5"]
        )
        assert rc == 1


class TestTuneAndWisdomCommands:
    def _store_arg(self, tmp_path):
        return ["--store", str(tmp_path / "wisdom.json")]

    @pytest.fixture
    def fake_probes(self, monkeypatch):
        """Calibration with fixed probe timings instead of host timing."""
        from repro.tune import tuner

        monkeypatch.setattr(tuner, "_time_matmuls",
                            lambda shapes, rounds=10: [1e-3] * len(shapes))

    def test_tune_calibrate_records_the_machine(self, tmp_path, capsys,
                                                fake_probes):
        from repro.tune import WisdomStore

        rc = main(["tune", "--calibrate", *self._store_arg(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "calibrated machine: tuned-" in out
        assert WisdomStore(tmp_path / "wisdom.json").machine_params()

    def test_tune_json(self, tmp_path, capsys, fake_probes):
        import json

        rc = main(["tune", "--calibrate", "--json",
                   *self._store_arg(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["path"] == str(tmp_path / "wisdom.json")
        assert doc["machine"]["name"].startswith("tuned-")
        assert doc["machine"]["peak_gflops_per_core"] > 0

    def test_tune_without_calibrate_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", *self._store_arg(tmp_path)])
        assert exc.value.code == 2
        assert "--calibrate" in capsys.readouterr().err
        assert not (tmp_path / "wisdom.json").exists()

    @pytest.mark.parametrize("flag", [
        ["-m", "64"], ["--budget", "1s"], ["--top", "1"], ["--dtype",
        "float32"], ["--sweep", "small"], ["--no-calibrate"],
        ["--threads", "0"],
    ])
    def test_tune_rejects_the_measuring_options(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--calibrate", *flag, *self._store_arg(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "wisdom.json").exists()

    def test_wisdom_show_empty(self, tmp_path, capsys):
        rc = main(["wisdom", *self._store_arg(tmp_path)])
        assert rc == 0
        assert "no machine record" in capsys.readouterr().out

    def test_wisdom_show_after_calibrate(self, tmp_path, capsys, fake_probes):
        main(["tune", "--calibrate", *self._store_arg(tmp_path)])
        capsys.readouterr()
        rc = main(["wisdom", *self._store_arg(tmp_path)])
        assert rc == 0
        assert "machine: tuned-" in capsys.readouterr().out

    def test_wisdom_json(self, tmp_path, capsys, fake_probes):
        import json

        main(["tune", "--calibrate", *self._store_arg(tmp_path)])
        capsys.readouterr()
        rc = main(["wisdom", "--json", *self._store_arg(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"path", "machine", "recovered_corrupt",
                            "ignored_stale"}
        assert doc["machine"]["name"].startswith("tuned-")
        assert not doc["recovered_corrupt"]

    def test_wisdom_clear_and_path(self, tmp_path, capsys, fake_probes):
        main(["tune", "--calibrate", *self._store_arg(tmp_path)])
        rc = main(["wisdom", "clear", *self._store_arg(tmp_path)])
        assert rc == 0
        rc = main(["wisdom", "path", *self._store_arg(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["wisdom", *self._store_arg(tmp_path)])
        assert "no machine record" in capsys.readouterr().out

    def test_wisdom_path_prints_the_store(self, tmp_path, capsys):
        rc = main(["wisdom", "path", *self._store_arg(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "wisdom.json")
        assert not (tmp_path / "wisdom.json").exists()

    def test_wisdom_json_on_an_empty_store(self, tmp_path, capsys):
        import json

        rc = main(["wisdom", "--json", *self._store_arg(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "path": str(tmp_path / "wisdom.json"), "machine": None,
            "recovered_corrupt": False, "ignored_stale": False}

    def test_wisdom_show_survives_a_malformed_record(self, tmp_path, capsys):
        # A machine record with a junk field: the store must treat the
        # file as corrupt and the CLI must not traceback.
        import json

        from repro.tune.wisdom import SCHEMA_VERSION, machine_fingerprint

        p = tmp_path / "wisdom.json"
        p.write_text(json.dumps({
            "version": SCHEMA_VERSION,
            "fingerprint": machine_fingerprint(),
            "machine": {"name": "tuned-x", "peak_gflops_per_core": "fast"},
        }))
        rc = main(["wisdom", "--store", str(p)])
        assert rc == 0
        assert "corrupt" in capsys.readouterr().out

    def test_multiply_auto_with_tune_off(self, capsys):
        rc = main(["multiply", "-m", "64", "-k", "64", "-n", "64",
                   "--engine", "auto", "--tune", "off"])
        assert rc == 0
        assert "max |C - AB|" in capsys.readouterr().out

    def test_multiply_tune_on_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["multiply", "-m", "8", "-k", "8", "-n", "8",
                  "--engine", "auto", "--tune", "on"])
        assert exc.value.code == 2


class TestObservabilityCommands:
    def test_multiply_report_prints_history(self, capsys):
        rc = main(["multiply", "-m", "32", "-k", "32", "-n", "32",
                   "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report:" in out and "n_chunks=" in out
        assert "history:" in out and "p95=" in out
        assert "plan-cache hit-rate" in out

    def test_trace_run_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        rc = main(["trace", "run", "-m", "48", "-k", "48", "-n", "48",
                   "-o", str(out_path)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "execute_plan" in names
        assert "plan.compile" in names      # cold first run
        assert "plan_cache.hit" in names    # warm second run
        assert any(n.startswith("phase:") for n in names)

    def test_trace_leaves_tracer_disabled(self, tmp_path):
        from repro.obs import trace

        main(["trace", "run", "-m", "32", "-k", "32", "-n", "32",
              "-o", str(tmp_path / "t.json")])
        assert not trace.is_enabled()

    def test_stats_text(self, capsys):
        rc = main(["stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "gauges:" in out
        assert "plan_cache" in out

    def test_stats_json(self, capsys):
        import json

        main(["multiply", "-m", "32", "-k", "32", "-n", "32"])
        capsys.readouterr()
        rc = main(["stats", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        snap = doc["metrics"]
        for name in ("plan_cache", "workspace.arena"):
            assert name in snap["gauges"], name
        assert snap["counters"]["runtime.executions"] >= 1
        assert doc["reports"]  # the multiply above landed in the history
