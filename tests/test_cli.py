"""Tests for the command-line interface (python -m repro.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXPERIMENTS, _build_parser, main, run_experiment
from repro.experiments.studies import STUDIES


class TestCliListing:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "table3" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table7"])


class TestCliRuns:
    def test_table1_runs_without_training(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "fedadmm" in out and "fedavg" in out

    def test_table3_small_run_and_json_output(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            [
                "table3",
                "--dataset",
                "blobs",
                "--clients",
                "8",
                "--rounds",
                "2",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert "summary" in payload
        out = capsys.readouterr().out
        assert "fedadmm" in out

    def test_table4_small_run(self, capsys):
        code = main(["table4", "--dataset", "blobs", "--clients", "8", "--rounds", "2"])
        assert code == 0
        assert "rounds_to_target" in capsys.readouterr().out

    def test_systems_small_run(self, capsys):
        code = main(
            [
                "systems",
                "--dataset",
                "blobs",
                "--clients",
                "8",
                "--rounds",
                "2",
                "--codec",
                "qsgd",
                "--dropout",
                "0.2",
                "--executor",
                "thread",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wire_upload_MB" in out and "sim_minutes" in out

    def test_fig6_small_run(self, capsys):
        code = main(
            ["fig6", "--dataset", "blobs", "--clients", "8", "--rounds", "4", "--non-iid"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eta=1.0" in out

    def test_async_experiment_small_run(self, capsys):
        code = main(
            [
                "async",
                "--dataset",
                "blobs",
                "--clients",
                "8",
                "--rounds",
                "3",
                "--buffer-size",
                "2",
                "--max-concurrency",
                "4",
                "--staleness",
                "constant",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seconds_to_target" in out
        assert "sync" in out and "async" in out

    def test_semisync_experiment_small_run(self, tmp_path, capsys):
        output = tmp_path / "semisync.json"
        code = main(
            [
                "semisync",
                "--dataset",
                "blobs",
                "--clients",
                "8",
                "--rounds",
                "3",
                "--round-deadline",
                "2.0",
                "--staleness",
                "constant",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "semisync" in out and "seconds_to_target" in out
        payload = json.loads(output.read_text())
        assert {"rows", "late_arrivals", "round_deadline_s"} <= set(payload)

    def test_semisync_mode_flag_on_table3(self, capsys):
        code = main(
            ["table3", "--dataset", "blobs", "--clients", "8", "--rounds", "2",
             "--mode", "semisync", "--network", "lognormal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skips" in out  # scaffold/fedpd opt out of buffered plans
        assert "fedadmm" in out

    def test_registry_extra_flags_reach_the_sweep(self, capsys):
        code = main(
            ["fig6", "--dataset", "blobs", "--clients", "8", "--rounds", "2",
             "--etas", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eta=0.5" in out and "eta=1.5" not in out

    def test_async_flag_on_systems_skips_scaffold(self, capsys):
        code = main(
            ["systems", "--dataset", "blobs", "--clients", "8", "--rounds", "2",
             "--async"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skips scaffold" in out
        assert "fedadmm" in out

    def test_run_experiment_rejects_unknown_name(self):
        class Args:
            dataset = "blobs"
            non_iid = False
            clients = 8
            rounds = 2
            rho = 0.3
            seed = 0

        with pytest.raises(ValueError):
            run_experiment("not-an-experiment", Args())


class TestEveryStudySmokes:
    """Every registered study runs in seconds on the same three flags."""

    TINY = ["--dataset", "blobs", "--clients", "8", "--rounds", "2"]

    @pytest.mark.parametrize("name", STUDIES.names())
    def test_study_runs_and_its_output_round_trips(self, name, tmp_path, capsys):
        output = tmp_path / f"{name}.json"
        assert main([name, *self.TINY, "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload and json.loads(json.dumps(payload)) == payload
        assert "Traceback" not in capsys.readouterr().err

    def test_table6_refuses_an_odd_population_with_one_line(self, capsys):
        # An even --clients runs (the parametrised case above; it used to
        # die on every point with num_groups fixed before --clients applied).
        assert main(["table6", "--dataset", "blobs", "--clients", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be even" in captured.err

    def test_failed_sweep_is_one_error_line_not_a_traceback(self, capsys):
        # A fault deadline without a network model fails every sweep point
        # inside the orchestrator; its summary used to escape as a raw
        # SimulationError traceback.
        code = main(["table4", *self.TINY, "--epochs", "1", "--deadline", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: 1 of 1 sweep points failed")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_dataset_defaults_to_the_studys_own_preset(self, capsys):
        # `repro fig5` used to silently run MNIST; the paper (and the
        # preset row) use FMNIST.
        assert main(["fig5", "--clients", "8", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig5-fmnist-iid" in out and "fig5-fmnist-noniid" in out

    def test_fig9_labels_are_rounded(self, tmp_path):
        output = tmp_path / "fig9.json"
        assert main(["fig9", *self.TINY, "--output", str(output)]) == 0
        assert list(json.loads(output.read_text())["series"]) == [
            "rho=0.1", "rho=0.3", "rho=0.1->0.3@1",
        ]


class TestCliOrchestration:
    TABLE4 = ["table4", "--dataset", "blobs", "--clients", "8", "--rounds", "2",
              "--epochs", "1", "5"]

    def test_plain_invocations_print_no_progress_lines(self, capsys):
        assert main(self.TABLE4) == 0
        assert "[1/" not in capsys.readouterr().out

    def test_jobs_and_store_dir_stream_progress_and_persist(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code = main(self.TABLE4 + ["--jobs", "2", "--store-dir", store_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out and "done" in out
        assert (tmp_path / "store" / "runs.jsonl").exists()

    def test_resume_skips_done_points(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(self.TABLE4 + ["--store-dir", store_dir]) == 0
        first = capsys.readouterr().out
        assert main(self.TABLE4 + ["--store-dir", store_dir, "--resume"]) == 0
        second = capsys.readouterr().out
        assert second.count("skipped") == 2
        # The resumed (fully cached) payload prints the same report.
        assert first.splitlines()[-3:] == second.splitlines()[-3:]

    def test_runs_list_show_clean_cycle(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(self.TABLE4 + ["--store-dir", store_dir]) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "done=2" in out and "table4" in out
        key = next(
            line.split("|")[0].strip()
            for line in out.splitlines()
            if "table4" in line
        )

        assert main(["runs", "show", key, "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "rounds_run" in out and "final_accuracy" in out

        assert main(["runs", "clean", "--store-dir", store_dir,
                     "--status", "done"]) == 0
        assert "dropped 2" in capsys.readouterr().out
        assert main(["runs", "list", "--store-dir", store_dir]) == 0
        assert "done=0" in capsys.readouterr().out

    def test_runs_show_unknown_key_fails(self, tmp_path, capsys):
        assert main(["runs", "show", "nope",
                     "--store-dir", str(tmp_path / "s")]) == 1
        assert "no run" in capsys.readouterr().err

    def test_runs_show_without_key_fails(self, tmp_path, capsys):
        assert main(["runs", "show",
                     "--store-dir", str(tmp_path / "s")]) == 2
        assert "needs a run key" in capsys.readouterr().err

    def test_runs_clean_default_keeps_done(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(self.TABLE4 + ["--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "clean", "--store-dir", store_dir]) == 0
        assert "dropped 0" in capsys.readouterr().out

    def test_resume_without_store_dir_uses_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.TABLE4 + ["--resume"]) == 0
        assert (tmp_path / ".repro_runs" / "runs.jsonl").exists()
        capsys.readouterr()
        assert main(self.TABLE4 + ["--resume"]) == 0
        assert capsys.readouterr().out.count("skipped") == 2

    def test_non_positive_jobs_rejected(self, capsys):
        # Configuration errors surface as a clean one-line failure (exit
        # code 2), not a traceback.
        assert main(self.TABLE4 + ["--jobs", "0"]) == 2
        assert "jobs must be positive" in capsys.readouterr().err

    def test_process_executor_is_gone(self, capsys):
        # Thread and process pools gave bit-identical runs; threads stay.
        with pytest.raises(SystemExit) as exit_info:
            main(self.TABLE4 + ["--executor", "process"])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and "invalid choice: 'process'" in errors[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rho_refused_at_parse_time(self, value, capsys):
        # ``x <= 0`` is false for NaN: without the parse-time check a NaN ρ
        # trained every sweep point and failed one at the end.
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", "--dataset", "blobs", "--rounds", "1", f"--rho={value}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--rho: must be finite" in errors[0]
        assert captured.out == ""

    def test_systems_refuses_the_process_executor(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["systems", "--executor", "process"])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and "invalid choice: 'process'" in errors[0]

    def test_backend_flag_is_gone(self, capsys):
        # The stacked kernels are NumPy; there is no array backend to pick.
        with pytest.raises(SystemExit) as exit_info:
            main(self.TABLE4 + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["paper", "bench"])
    def test_scale_flag_is_gone(self, value, capsys):
        # Every preset has one size; the paper-sized runs diverged in round
        # 1.  Both former values are refused, the old default included.
        flag = "--scale"
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", flag, value])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and f"unrecognized arguments: {flag}" in errors[0]

    def test_closed_stdout_pipe_exits_without_a_traceback(self, tmp_path):
        # The read end is closed before the CLI starts, so its first write
        # to stdout fails every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(repro.__file__).resolve().parents[1]
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "runs", "list",
                 "--store-dir", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr.decode()
        assert "BrokenPipeError" not in completed.stderr.decode()


class TestCliObservability:
    TABLE4 = ["table4", "--dataset", "blobs", "--clients", "8", "--rounds", "2",
              "--epochs", "1", "5"]

    def test_trace_and_metrics_flags_write_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.json"
        code = main(
            self.TABLE4 + ["--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Wrote Chrome trace" in out and "Wrote metrics snapshot" in out

        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        names = {event["name"] for event in events}
        assert {"run", "round", "client_task", "local_sgd"} <= names
        # The span log sits next to the Chrome trace.
        span_log = tmp_path / "run.trace.json.spans.jsonl"
        assert span_log.exists()
        assert len(span_log.read_text().splitlines()) == len(events)

        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["rounds_completed"] >= 2
        assert snapshot["counters"]["sweep.specs_done"] == 2

    def test_progress_flag_streams_eta_lines(self, capsys):
        assert main(self.TABLE4 + ["--progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        # The first resolved spec carries an ETA for the one remaining.
        assert "(eta " in out

    def test_profile_subcommand_prints_hotspots(self, capsys):
        code = main(
            ["profile", "table4", "--dataset", "blobs", "--clients", "8",
             "--rounds", "2", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Hot spots for table4" in out
        table = out.split("Hot spots for table4:\n")[1].splitlines()
        assert table[0].split() == [
            "hotspot", "calls", "total", "s", "self", "s", "mean", "ms", "share"
        ]
        assert len(table) == 7 and table[6].startswith("... (")

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_profile_refuses_a_top_below_one(self, top, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "table4", "--dataset", "blobs", "--clients", "8",
                  "--rounds", "2", "--top", top])
        assert exit_info.value.code == 2
        assert "--top: must be at least 1" in capsys.readouterr().err

    def test_profile_vectorized_includes_kernels(self, capsys):
        code = main(
            ["profile", "table4", "--dataset", "blobs", "--clients", "8",
             "--rounds", "2", "--executor", "vectorized"]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [
            line.split()
            for line in out.split("Hot spots for table4:\n")[1].splitlines()[1:]
        ]
        names = {row[0] for row in rows}
        assert {"round", "client_task", "local_sgd", "compress"} <= names
        assert any(name.startswith("kernel.") for name in names)
        # Self shares partition the recorded time (each printed to 0.1 %).
        shares = [float(row[-1].rstrip("%")) for row in rows]
        assert sum(shares) == pytest.approx(100.0, abs=0.05 * len(shares))

    def test_runs_show_prints_duration_and_wire_totals(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(self.TABLE4 + ["--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--store-dir", store_dir]) == 0
        key = next(
            line.split("|")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if "table4" in line
        )
        assert main(["runs", "show", key, "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "status: done (as of" in out
        assert "run duration:" in out
        assert "upload_wire_bytes:" in out


class TestCliServe:
    """The networked-runtime subcommands (see repro.serve and repro.cli)."""

    def test_serve_self_contained_smoke(self, tmp_path, capsys):
        output = tmp_path / "serve.json"
        code = main(
            ["serve", "--rounds", "2", "--workers", "2",
             "--output", str(output)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving serve-blobs-noniid / fedavg at http://" in out
        assert "rounds_run: 2" in out
        status = json.loads(output.read_text())
        assert status["rounds_run"] == 2
        assert status["done"] is True

    def test_loadtest_reports_and_saves_json(self, tmp_path, capsys):
        output = tmp_path / "load.json"
        code = main(
            ["loadtest", "--max-rounds", "2", "--time-scale", "0.001",
             "--output", str(output)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds_per_sec:" in out and "p99_round_latency_seconds:" in out
        report = json.loads(output.read_text())
        assert report["rounds"] == 2
        # float16: the bytes observed in HTTP bodies equal the ledger's
        # nominal accounting, and the closed-form expectation, exactly.
        assert (
            report["real_upload_payload_bytes"]
            == report["ledger_upload_wire_bytes"]
            == report["expected_real_upload_bytes"]
        )

    def test_worker_against_live_server(self, capsys):
        import threading

        from repro.experiments.configs import AlgorithmSpec, preset_config
        from repro.serve.server import FederationServer

        server = FederationServer(
            preset_config("serve"), AlgorithmSpec("fedavg"), num_rounds=1
        )
        server.start()
        try:
            thread = threading.Thread(
                target=main, args=(["worker", server.url],), daemon=True
            )
            thread.start()
            server.wait(timeout=120)
        finally:
            server.stop()
        thread.join(timeout=30)
        assert "completed" in capsys.readouterr().out

    def test_serve_flag_errors_fail_fast_without_traceback(self, capsys):
        # Same one-line `error: ...` + exit 2 contract as the studies.
        assert main(["loadtest", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert main(["worker", "ftp://nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "70000"],
            ["serve", "--port", "-5"],
            ["serve", "--rounds", "1", "--workers", "1", "--lease-s", "nan"],
            ["serve", "--lease-s", "inf"],
            ["serve", "--lease-s", "0"],
            ["worker", "http://127.0.0.1:1", "--poll-interval", "nan"],
            ["worker", "http://127.0.0.1:1", "--poll-interval", "-1"],
        ],
        ids=["port-70000", "port-neg", "lease-nan", "lease-inf", "lease-zero",
             "poll-nan", "poll-neg"],
    )
    def test_bad_addresses_and_waits_are_refused_at_parse_time(self, argv, capsys):
        # A port past 65535 died in bind() with an OverflowError traceback;
        # a NaN or infinite lease was accepted and would never expire.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {argv[-2]}:" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("url", ["http://127.0.0.1:99999", "http://127.0.0.1:abc"])
    def test_a_worker_url_with_a_bad_port_is_refused(self, url, capsys):
        # urlsplit's port raised a ValueError traceback.
        assert main(["worker", url]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and url in err
        assert "Traceback" not in err

    def test_a_worker_with_no_server_to_reach_exits_with_one_line(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on once closed
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        assert main(["worker", url]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and url in err
        assert "Traceback" not in err

    def test_negative_serve_workers_is_refused(self, capsys):
        # range(-1) spawns no worker, so the server used to wait forever;
        # parsing alone must refuse it (and starts no server if it does not).
        with pytest.raises(SystemExit) as exit_info:
            _build_parser().parse_args(["serve", "--workers", "-1"])
        assert exit_info.value.code == 2
        assert "--workers: must be at least 0, got -1" in capsys.readouterr().err

    def test_zero_serve_workers_still_parses(self):
        # 0 is the documented "workers attach externally" setting.
        args = _build_parser().parse_args(["serve", "--workers", "0"])
        assert args.workers == 0


class TestCliRobustness:
    def test_robustness_small_run(self, capsys):
        code = main(
            [
                "robustness",
                "--dataset", "blobs",
                "--clients", "8",
                "--rounds", "2",
                "--adversary", "sign_flip",
                "--defense", "median",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation_vs_clean" in out
        assert "sign_flip" in out and "median" in out

    def test_unknown_defense_fails_fast(self, capsys):
        code = main(
            [
                "robustness",
                "--clients", "8",
                "--rounds", "2",
                "--adversary", "sign_flip",
                "--defense", "bogus",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unsupported_adversary_on_a_study_fails_fast(self, capsys):
        assert main(["robustness", "--adversary", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "supported adversaries" in err

    def test_contributions_loo_smoke(self, tmp_path, capsys):
        output = tmp_path / "contrib.json"
        argv = [
            "contributions",
            "--clients", "4",
            "--rounds", "2",
            "--non-iid",
            "--method", "loo",
            "--store-dir", str(tmp_path / "store"),
            "--resume",
        ]
        assert main(argv + ["--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "contribution scores" in out
        assert "6 coalition run(s) executed" in out
        payload = json.loads(output.read_text())
        assert payload["method"] == "loo"
        assert len(payload["scores"]) == 4
        # A second resumed invocation loads every coalition from the store.
        assert main(argv) == 0
        assert "0 coalition run(s) executed, 6 reused" in capsys.readouterr().out
        # The coalitions are ordinary store runs.
        assert main(["runs", "list", "--store-dir", str(tmp_path / "store")]) == 0
        assert "5 run(s) listed" in capsys.readouterr().out

    @pytest.mark.parametrize("method, shards", [("loo", "4"), ("shapley", "2")])
    def test_contributions_refuse_more_shards_than_the_smallest_coalition(
        self, method, shards, tmp_path, capsys
    ):
        # Leave-one-out trains 3-client coalitions of 4, Shapley 1-client
        # prefixes; both are refused before the full coalition runs.
        store = tmp_path / "store"
        assert main([
            "contributions", "--clients", "4", "--shards", shards, "--rounds", "1",
            "--non-iid", "--method", method, "--store-dir", str(store),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"num_shards {shards} exceeds" in err
        assert not (store / "runs.jsonl").exists()

    def test_contributions_jobs_do_not_change_the_report(self, tmp_path, capsys):
        payloads = []
        for jobs in ("1", "2"):
            output = tmp_path / f"jobs{jobs}.json"
            assert main([
                "contributions", "--clients", "4", "--rounds", "2", "--non-iid",
                "--jobs", jobs, "--output", str(output),
            ]) == 0
            payloads.append(output.read_bytes())
        assert payloads[0] == payloads[1]
