"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defects_parsing_error(self):
        with pytest.raises(SystemExit):
            main(["table3", "--defects", "1,x"])


class TestCommands:
    def test_table1_fast(self, capsys):
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "CS1-1" in out

    def test_fig4_fast(self, capsys):
        assert main(["fig4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "DRV_DS1" in out and "DRV_DS0" in out

    def test_power_fast(self, capsys):
        assert main(["power", "--fast"]) == 0
        assert ">30%" in capsys.readouterr().out

    def test_classify_subset(self, capsys):
        assert main(["classify", "--defects", "6,14"]) == 0
        out = capsys.readouterr().out
        assert "Df6" in out and "Df14" in out and "MISMATCH" not in out

    def test_table2_slice(self, capsys):
        assert main(["table2", "--fast", "--defects", "16"]) == 0
        assert "Df16" in capsys.readouterr().out


class TestCampaignCommands:
    def test_mc_sharded(self, capsys):
        assert main(["mc", "--samples", "4", "--shards", "2", "--seed", "9"]) == 0
        captured = capsys.readouterr()
        assert "Monte Carlo DRV_DS" in captured.out
        assert "campaign[montecarlo] 2 tasks" in captured.err

    def test_campaign_umbrella_reports_cache_hits(self, capsys, tmp_path):
        argv = [
            "campaign", "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 cache hits (100%)" in captured.err
        assert "Monte Carlo DRV_DS" in captured.out

    @pytest.mark.slow
    def test_table2_jobs_and_cache(self, capsys, tmp_path):
        argv = [
            "table2", "--fast", "--defects", "16",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Df16" in first.out
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # cached rerun renders the same table
        assert "5 cache hits (100%)" in second.err


class TestStatsCommand:
    def test_campaign_run_then_stats(self, capsys, tmp_path):
        argv = [
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trace.jsonl").exists()
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign[montecarlo]" in out
        assert "slowest" in out and "mc-shard" in out

    def test_stats_accepts_report_file_and_top(self, capsys, tmp_path):
        main([
            "mc", "--samples", "4", "--shards", "4",
            "--cache-dir", str(tmp_path),
        ])
        capsys.readouterr()
        report_file = str(tmp_path / "report.json")
        assert main(["stats", report_file, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("mc-shard") >= 1

    def test_stats_missing_report_exits_with_hint(self, tmp_path):
        with pytest.raises(SystemExit, match="report.json"):
            main(["stats", str(tmp_path / "nowhere")])

    def test_stats_rejects_foreign_schema(self, tmp_path):
        bogus = tmp_path / "report.json"
        bogus.write_text('{"schema": "something/else"}')
        with pytest.raises(SystemExit, match="schema"):
            main(["stats", str(bogus)])

    def test_no_obs_suppresses_report(self, capsys, tmp_path):
        argv = [
            "mc", "--samples", "4", "--shards", "2", "--no-obs",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "trace.jsonl").exists()

    def test_obs_dir_redirects_artifacts(self, capsys, tmp_path):
        obs_dir = tmp_path / "obs"
        argv = [
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--obs-dir", str(obs_dir),
        ]
        assert main(argv) == 0
        assert (obs_dir / "report.json").exists()
        assert not (tmp_path / "cache" / "report.json").exists()


class TestStatsJson:
    def test_stats_json_emits_the_raw_report(self, capsys, tmp_path):
        import json

        main([
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert main(["stats", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"].startswith("repro.obs.report/")
        assert report["campaign"]["name"] == "montecarlo"
        assert report["campaign"]["total"] == 2


class TestTraceCommand:
    def _mc(self, tmp_path):
        return main([
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ])

    def test_trace_renders_stitched_tree_from_dir(self, capsys, tmp_path):
        assert self._mc(tmp_path) == 0
        capsys.readouterr()
        assert main(["trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "run montecarlo" in out
        assert "task.mc-shard" in out
        assert "*" in out  # the critical path is marked

    def test_trace_accepts_file_and_slow_filter(self, capsys, tmp_path):
        assert self._mc(tmp_path) == 0
        capsys.readouterr()
        trace_file = str(tmp_path / "trace.jsonl")
        assert main(["trace", trace_file, "--slow", "9999"]) == 0
        out = capsys.readouterr().out
        assert "run montecarlo" in out
        assert "hidden)" in out  # everything is faster than 9999s

    def test_trace_unknown_job_id_errors(self, capsys, tmp_path):
        assert self._mc(tmp_path) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no stitched trace"):
            main(["trace", "j9999-nope", "--dir", str(tmp_path)])

    def test_trace_empty_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace.jsonl"):
            main(["trace", str(tmp_path)])


class TestTopCommand:
    def test_top_renders_one_frame_and_exits(self, capsys, monkeypatch):
        from repro.serve.client import ServeClient

        fake = {
            "uptime_s": 5.0, "draining": False,
            "workers": {"jobs": 2, "mode": "pool", "pump_alive": True},
            "jobs": {"done": 3}, "queued_points": 0,
            "queued_by_tenant": {}, "tenants": [],
            "counters": {"serve.points.total": 6,
                         "serve.points.executed": 6},
        }
        monkeypatch.setattr(ServeClient, "stats", lambda self: fake)
        assert main(["top", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top | uptime 5s | workers 2 (pool, pump alive)" in out
        assert "jobs: 3 done" in out
        assert "tenants: none yet" in out

    def test_top_unreachable_daemon_exits_with_hint(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["top", "--url", "http://127.0.0.1:9", "--count", "1"])


class TestRunMarch:
    def test_library_test_passes_clean_memory(self, capsys):
        assert main(["run-march", "MATS+", "--words", "8", "--bits", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_custom_notation(self, capsys):
        code = main(["run-march", "{ u(w1); u(r1) }", "--words", "4", "--bits", "2"])
        assert code == 0

    def test_degraded_sleep_supply_fails(self, capsys):
        """A near-zero VDD_CC during DSM collapses the whole array."""
        code = main([
            "run-march", "March m-LZ", "--words", "8", "--bits", "2",
            "--vddcc", "0.01",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestResilienceFlags:
    def test_strict_exits_nonzero_on_failures(self, capsys):
        # transient:1.0 makes every attempt fail, so all 15 grid points
        # are recorded failures and --strict refuses to exit 0.
        argv = [
            "table2", "--fast", "--defects", "16",
            "--chaos", "transient:1.0", "--strict",
        ]
        from repro.cli import EXIT_STRICT

        assert main(argv) == EXIT_STRICT
        captured = capsys.readouterr()
        assert "strict:" in captured.err
        assert "15 failed" in captured.err

    def test_strict_passes_clean_run(self, capsys):
        argv = ["mc", "--samples", "4", "--shards", "2", "--strict"]
        assert main(argv) == 0

    def test_chaos_spec_rejected_with_hint(self):
        with pytest.raises(SystemExit, match="explode"):
            main(["mc", "--samples", "4", "--chaos", "explode:0.5"])

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(SystemExit, match="deadline"):
            main(["mc", "--samples", "4", "--deadline", "0"])

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--deadline", "0"], "--deadline must be positive"),
    ])
    def test_serve_nonpositive_seconds_rejected(self, argv, flag):
        with pytest.raises(SystemExit, match=flag):
            main(argv)

    def test_deadline_flag_accepted_on_clean_run(self, capsys):
        argv = ["mc", "--samples", "4", "--shards", "2", "--deadline", "300"]
        assert main(argv) == 0

    def test_compact_cache_flag(self, capsys, tmp_path):
        base = [
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(base) == 0
        results = tmp_path / "results.jsonl"
        with results.open("a", encoding="utf-8") as fh:
            fh.write("corrupt tail#\n")
        capsys.readouterr()
        assert main(base + ["--compact-cache"]) == 0
        captured = capsys.readouterr()
        assert "2 cache hits (100%)" in captured.err
        assert "cache compacted" in captured.err
        # The corrupt line is gone; only the two live records remain.
        assert len(results.read_text().splitlines()) == 2

    def test_compact_cache_requires_a_cache(self):
        with pytest.raises(SystemExit, match="compact-cache"):
            main(["mc", "--samples", "4", "--compact-cache"])

    def test_corrupt_cache_lines_surface_in_stats(self, capsys, tmp_path):
        argv = [
            "mc", "--samples", "4", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        with (tmp_path / "results.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("scribbled by chaos#\n")
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache.lines.corrupt" in out


#: Commands that take the shared execution flags: the daemon, the campaign
#: umbrella and the per-artifact campaign commands.
_RUN_COMMANDS = [["serve"], ["campaign", "table2"], ["table2"], ["mc"],
                 ["macro"]]


class TestRunFlags:
    @pytest.mark.parametrize("command", _RUN_COMMANDS, ids=" ".join)
    def test_shared_flags_parse_alike(self, command):
        args = build_parser().parse_args([
            *command, "--jobs", "3", "--cache-dir", "c", "--resume",
            "--no-obs", "--obs-dir", "o", "--deadline", "5",
        ])
        assert (args.jobs, args.cache_dir, args.resume, args.no_obs,
                args.obs_dir, args.deadline) == (3, "c", True, True, "o", 5.0)

    @pytest.mark.parametrize("command", _RUN_COMMANDS, ids=" ".join)
    def test_jobs_below_one_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, cache_dir, obs_dir", [
        ([], ".repro-cache", ".repro-cache/serve"),
        (["--resume"], ".repro-cache", ".repro-cache/serve"),
        (["--cache-dir", "c"], "c", "c/serve"),
        (["--cache-dir", "c", "--obs-dir", "o"], "c", "o"),
    ])
    def test_serve_cache_and_obs_defaults(self, monkeypatch, tmp_path,
                                          flags, cache_dir, obs_dir):
        """``serve`` always has a cache; its report goes beside it."""
        import repro.serve.server as server

        seen = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(server, "serve_forever",
                            lambda service, **kwargs: seen.append(service) or 0)
        assert main(["serve", *flags]) == 0
        (service,) = seen
        assert service.jobs == 1
        assert service.cache.directory.as_posix() == cache_dir
        assert service.obs_dir.as_posix() == obs_dir


class TestMacroCommand:
    ARGV = [
        "macro", "--words", "64", "--bits", "8", "--banks", "2",
        "--seed", "3", "--buckets", "6", "--temp", "-40",
    ]

    def test_macro_renders_escape_map(self, capsys, tmp_path):
        assert main(self.ARGV + ["--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "March m-LZ escape map: 64x8 macro, 2 banks, seed 3" in captured.out
        assert "campaign[macro] 2 tasks" in captured.err

    def test_cached_rerun_renders_identically(self, capsys, tmp_path):
        argv = self.ARGV + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "2 cache hits (100%)" in second.err

    def test_stats_renders_per_bank_escape_map(self, capsys, tmp_path):
        assert main(self.ARGV + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Macro escape map by bank (March m-LZ)" in out
        # The per-bank counters are folded into the table, not the raw list.
        assert "macro.bank.0.cells" not in out

    def test_cli_defaults_track_analysis_constants(self):
        """The parser uses literals (it must stay import-free); this pins
        them to the canonical MACRO_* values in analysis.macro."""
        from repro.analysis.macro import (
            MACRO_BUCKETS,
            MACRO_CORNER,
            MACRO_DS_TIME,
            MACRO_MISSION_TIME,
            MACRO_TEMP_C,
            MACRO_VDDCC,
        )

        args = build_parser().parse_args(["macro"])
        assert args.vddcc == MACRO_VDDCC
        assert args.ds_time == MACRO_DS_TIME
        assert args.mission_time == MACRO_MISSION_TIME
        assert args.corner == MACRO_CORNER
        assert args.temp == MACRO_TEMP_C
        # Slow-path geometry defaults resolved in cmd_macro.
        assert args.words is None and args.banks is None
        assert args.buckets is None or args.buckets == MACRO_BUCKETS
        assert args.bits == 64 and args.seed == 1
