"""The observability layer: recorder primitives, solver/campaign telemetry,
cross-process merge invariance, and the schema-versioned run report."""

import json
import math
import os
import time

import pytest

from repro import obs
from repro.campaign import SweepSpec, TaskPoint, run_campaign, task
from repro.campaign.metrics import ProgressReporter
from repro.devices import CORNERS, MosfetModel, nmos_params, pmos_params
from repro.obs import (
    COUNT_BOUNDS,
    TIME_BOUNDS,
    Histogram,
    Recorder,
    TraceContext,
    span_record,
    take_spans,
)
from repro.obs.recorder import bounds_for
from repro.obs.report import (
    REPORT_FILENAME,
    SCHEMA,
    build_report,
    load_report,
    validate,
    write_report,
)
from repro.obs.stitch import build_trees, critical_path, render_tree
from repro.obs.trace import TraceWriter, read_trace
from repro.spice import Circuit, ConvergenceError, solve_dc


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with instrumentation disabled."""
    obs.uninstall()
    yield
    obs.uninstall()


def _inverter_circuit(vin=0.55, corner="typical"):
    c = CORNERS[corner]
    circuit = Circuit("obs-inverter")
    circuit.vsource("vdd", "vdd", "0", 1.1)
    circuit.vsource("vin", "in", "0", vin)
    circuit.mosfet(
        "mp", "out", "in", "vdd", MosfetModel(pmos_params("mp", 240e-9), c, 25.0)
    )
    circuit.mosfet(
        "mn", "out", "in", "0", MosfetModel(nmos_params("mn", 120e-9), c, 25.0)
    )
    return circuit


def _singular_circuit():
    """Two voltage sources pinning one node to different values: every
    strategy's Jacobian is singular, so the full chain fails fast."""
    circuit = Circuit("contradiction")
    circuit.vsource("v1", "a", "0", 1.0)
    circuit.vsource("v2", "a", "0", 2.0)
    return circuit


@task("obs-inverter")
def _obs_inverter_task(params, context):
    solution = solve_dc(_inverter_circuit(vin=params["vin"]))
    return {"vout": solution.voltage("out")}


@task("obs-sleep")
def _obs_sleep_task(params, context):
    # Slow enough that a 2-worker pool spreads single-point chunks over
    # both processes (the >=3-distinct-pids stitching assertion).
    time.sleep(params["dt"])
    return {"i": params["i"]}


def _inverter_spec(n=6):
    tasks = [
        TaskPoint.make("obs-inverter", vin=round(0.2 + 0.1 * i, 3))
        for i in range(n)
    ]
    return SweepSpec.build("obs-toy", tasks)


class TestHistogram:
    def test_bucketing_is_exact_for_small_counts(self):
        hist = Histogram(COUNT_BOUNDS)
        for value in (0, 1, 1, 16, 17, 5000):
            hist.observe(value)
        assert hist.counts[0] == 1  # value 0
        assert hist.counts[1] == 2  # the two 1s
        assert hist.counts[16] == 1  # value 16 (last exact bucket)
        assert hist.counts[17] == 1  # 17 spills into the 32 bucket
        assert hist.counts[-1] == 1  # 5000 > 4096: overflow bucket
        assert hist.count == 6 and hist.min == 0 and hist.max == 5000

    def test_summary_statistics(self):
        hist = Histogram(COUNT_BOUNDS)
        for value in (2, 4, 6):
            hist.observe(value)
        assert hist.mean == pytest.approx(4.0)
        assert hist.quantile(0.0) == 2 and hist.quantile(1.0) == 6
        assert hist.quantile(0.5) == 4

    def test_merge_adds_everything(self):
        a, b = Histogram(COUNT_BOUNDS), Histogram(COUNT_BOUNDS)
        for value in (1, 2):
            a.observe(value)
        for value in (3, 100):
            b.observe(value)
        a.merge(b)
        assert a.count == 4 and a.total == 106
        assert a.min == 1 and a.max == 100

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            Histogram(COUNT_BOUNDS).merge(Histogram(TIME_BOUNDS))

    def test_dict_round_trip(self):
        hist = Histogram(TIME_BOUNDS)
        for value in (1e-4, 2.5e-3, 0.7):
            hist.observe(value)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone == hist

    def test_empty_histogram_serialises_nulls(self):
        data = Histogram(COUNT_BOUNDS).to_dict()
        assert data["min"] is None and data["max"] is None
        assert Histogram.from_dict(data).min == math.inf

    def test_bounds_chosen_by_name_convention(self):
        assert bounds_for("dc.solve.seconds") == TIME_BOUNDS
        assert bounds_for("dc.newton_iters") == COUNT_BOUNDS


class TestRecorder:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("a")
        rec.count("a", 4)
        assert rec.counters == {"a": 5}

    def test_spans_nest_into_paths(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert set(rec.spans) == {"outer", "outer/inner"}
        assert rec.spans["outer/inner"].calls == 2
        assert rec.spans["outer"].calls == 1
        assert rec.spans["outer"].total >= rec.spans["outer/inner"].total

    def test_timed_decorator(self):
        rec = Recorder()

        @rec.timed("f")
        def f(x):
            return x + 1

        assert f(1) == 2 and f(2) == 3
        assert rec.spans["f"].calls == 2

    def test_snapshot_merge_equals_direct_recording(self):
        direct, merged, other = Recorder(), Recorder(), Recorder()
        for rec in (direct, merged):
            rec.count("n", 2)
            rec.observe("iters", 3)
        direct.count("n", 1)
        direct.observe("iters", 9)
        other.count("n", 1)
        other.observe("iters", 9)
        merged.merge(other.snapshot())
        assert merged.counters == direct.counters
        assert merged.histograms["iters"] == direct.histograms["iters"]

    def test_snapshot_is_json_able(self):
        rec = Recorder()
        rec.count("n")
        rec.observe("iters", 1)
        with rec.span("s"):
            pass
        clone = json.loads(json.dumps(rec.snapshot()))
        fresh = Recorder()
        fresh.merge(clone)
        assert fresh.counters == {"n": 1}
        assert fresh.spans["s"].calls == 1

    def test_clear(self):
        rec = Recorder()
        rec.count("n")
        rec.observe("h", 1)
        rec.clear()
        assert not rec.counters and not rec.histograms and not rec.spans


class TestModuleHelpers:
    def test_disabled_helpers_are_no_ops(self):
        assert not obs.enabled()
        obs.count("x")
        obs.observe("x", 1.0)
        with obs.span("x"):
            pass
        assert obs.active() is None

    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_recording_installs_and_restores(self):
        outer = Recorder()
        with obs.recording(outer):
            assert obs.active() is outer
            obs.count("n")
            with obs.recording() as inner:
                assert obs.active() is inner and inner is not outer
                obs.count("n")
            assert obs.active() is outer
        assert obs.active() is None
        assert outer.counters == {"n": 1}

    def test_timed_decorator_follows_installation(self):
        calls = []

        @obs.timed("g")
        def g():
            calls.append(1)

        g()  # disabled: runs, records nothing
        with obs.recording() as rec:
            g()
        assert len(calls) == 2
        assert rec.spans["g"].calls == 1


class TestSolverTelemetry:
    def test_successful_solve_records_strategy_and_iters(self):
        with obs.recording() as rec:
            solve_dc(_inverter_circuit())
        assert rec.counters["dc.solves"] == 1
        assert rec.counters.get("dc.failures", 0) == 0
        strategies = [
            k for k in rec.counters if k.startswith("dc.converged.")
        ]
        assert strategies == ["dc.converged.newton"]
        iters = rec.histograms["dc.newton_iters"]
        assert iters.count == 1 and iters.min >= 1
        assert rec.histograms["dc.solve.seconds"].count == 1

    def test_solve_records_assembly_factor_split(self):
        with obs.recording() as rec:
            solve_dc(_inverter_circuit())
        assemble = rec.histograms["dc.assemble.seconds"]
        factor = rec.histograms["dc.factor.seconds"]
        assert assemble.count >= 1 and factor.count >= 1
        assert assemble.total > 0.0 and factor.total > 0.0
        assert rec.counters["dc.backend.compiled"] == 1

    def test_solve_counts_active_backend(self):
        from repro.spice import using_backend

        with obs.recording() as rec:
            with using_backend("reference"):
                solve_dc(_inverter_circuit())
        assert rec.counters["dc.backend.reference"] == 1
        assert "dc.backend.compiled" not in rec.counters

    def test_failed_solve_counts_failure(self):
        with obs.recording() as rec:
            with pytest.raises(ConvergenceError):
                solve_dc(_singular_circuit())
        assert rec.counters["dc.solves"] == 1
        assert rec.counters["dc.failures"] == 1
        assert rec.counters["dc.gmin_decades"] >= 2

    def test_convergence_error_carries_strategy_trail(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(_singular_circuit())
        message = str(excinfo.value)
        assert "'contradiction'" in message and "tried" in message
        for strategy in ("newton(", "gmin-step(", "source-step("):
            assert strategy in message
        assert "Newton iterations total" in message
        context = excinfo.value.context
        assert context["vstep_limits"] == [0.4, 0.1, 0.04]
        assert any("gmin-step" in entry for entry in context["strategies"])
        assert context["total_iterations"] >= 0

    def test_tightened_step_limits_reported(self):
        with pytest.raises(ConvergenceError, match=r"vstep limits tried: "
                                                   r"0\.4, 0\.1, 0\.04"):
            solve_dc(_singular_circuit())
        # A single-limit failure keeps the plain trail message.
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(_singular_circuit(), vstep_limit=0.04)
        assert "vstep limits tried" not in str(excinfo.value)

    def test_step_limit_ladder_has_no_duplicates(self):
        """A caller limit equal to a ladder rung runs that rung once."""
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(_singular_circuit(), vstep_limit=0.1)
        assert excinfo.value.context["vstep_limits"] == [0.1, 0.04]
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(_singular_circuit(), vstep_limit=0.2)
        assert excinfo.value.context["vstep_limits"] == [0.2, 0.1, 0.04]

    def test_stall_exits_are_counted_and_named_in_the_trail(self, monkeypatch):
        """With the stall window shrunk to one iteration and no progress
        accepted, every run that does not converge at once stalls: each is
        counted and named in the trail the error carries."""
        from repro.spice import dc

        monkeypatch.setattr(dc, "_STALL_WINDOW", 1)
        monkeypatch.setattr(dc, "_STALL_RATIO", 0.0)
        with obs.recording() as rec:
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dc(_inverter_circuit(), vstep_limit=0.04)
        strategies = excinfo.value.context["strategies"]
        assert strategies[0] == "newton(stalled after 1 iters)"
        assert "gmin-step(failed at gmin=0.001, stalled after 1 iters)" in strategies
        assert any(s.startswith("source-step(") and s.endswith("stalled after 1 iters)")
                   for s in strategies)
        assert "stalled after 1 iters" in str(excinfo.value)
        assert rec.counters["dc.newton.stalled"] == len(strategies)
        assert rec.counters["dc.failures"] == 1

    def test_tiny_table2_stall_exits_leave_the_payload_alone(self):
        """The stall rule fires on tiny Table II (the Df16 warm start), the
        rescue chain absorbs it: no skipped scan point, no truncated
        refinement, no failed solve, and the payload equals its golden."""
        from repro.verify.artifacts import build_payload, scope_for
        from repro.verify.goldens import default_goldens_dir, load_golden

        with obs.recording() as rec:
            payload = build_payload("table2", scope_for("tiny"))
        assert payload == load_golden(default_goldens_dir(), "tiny", "table2")["payload"]
        assert rec.counters.get("dc.newton.stalled", 0) > 0
        assert "characterize.scan.skipped" not in rec.counters
        assert "characterize.refine.truncated" not in rec.counters
        assert "dc.failures" not in rec.counters


class TestProgressReporterRate:
    """Satellite: the streamed rate counts executed tasks only."""

    def _reporter(self, stream, verbose=True, elapsed=2.0):
        import io
        import time

        reporter = ProgressReporter("toy", 10, verbose=verbose, stream=stream)
        reporter.started = time.perf_counter() - elapsed
        return reporter

    def test_rate_ignores_cache_hits(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        reporter.cache_hits(8)
        reporter.chunk_done(2)
        lines = stream.getvalue().splitlines()
        # 8 hits in ~2s must not read as 4 tasks/s; only the 2 executed count.
        assert "1.00 tasks/s" in lines[-1]
        assert "4.0" not in lines[-1]

    def test_hits_only_run_reports_zero_rate(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        reporter.cache_hits(10)
        assert "0.00 tasks/s" in stream.getvalue()

    def test_nonverbose_failure_run_gets_one_final_line(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream, verbose=False)
        reporter.chunk_done(9, failed=1)
        reporter.cache_hits(1)
        assert stream.getvalue() == ""  # silent while running
        reporter.finish()
        reporter.finish()  # idempotent: the line appears exactly once
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert "10/10 done" in lines[0] and "1 failed" in lines[0]
        assert "run complete" in lines[0]

    def test_nonverbose_clean_run_stays_silent(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream, verbose=False)
        reporter.chunk_done(10)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_summary_derived_from_recorder_counters(self):
        import io

        recorder = Recorder()
        reporter = ProgressReporter(
            "toy", 4, stream=io.StringIO(), recorder=recorder
        )
        reporter.cache_hits(1)
        reporter.chunk_done(3, failed=2)
        summary = reporter.summary()
        assert (summary.executed, summary.cache_hits, summary.failures) == (3, 1, 2)
        assert recorder.counters["campaign.executed"] == 3
        assert recorder.counters["campaign.cache_hits"] == 1
        assert recorder.counters["campaign.failures"] == 2


def _deterministic_histograms(recorder):
    return {
        name: hist.to_dict()
        for name, hist in recorder.histograms.items()
        if not name.endswith(".seconds")
    }


class TestDcSplitRender:
    @staticmethod
    def _report(a_sum, f_sum, count):
        def hist(total):
            return {"count": count, "sum": total, "max": total,
                    "bounds": [], "counts": [count]}

        return {"histograms": {
            "dc.assemble.seconds": hist(a_sum),
            "dc.factor.seconds": hist(f_sum),
        }}

    def test_split_line_shares_and_units(self):
        from repro.obs.render import render_dc_split

        line = render_dc_split(self._report(0.75, 0.25, 12))
        assert "assembly 750.00ms (75%)" in line
        assert "factorization 250.00ms (25%)" in line
        assert "over 12 solves" in line

    def test_absent_histograms_render_nothing(self):
        from repro.obs.render import render_dc_split

        assert render_dc_split({"histograms": {}}) == ""

    def test_single_backend_run_has_no_backend_suffix(self):
        from repro.obs.render import render_dc_split

        report = self._report(0.75, 0.25, 12)
        report["counters"] = {"dc.backend.compiled": 12}
        line = render_dc_split(report)
        assert "over 12 solves" in line
        assert "[" not in line

    def test_mixed_backend_run_lists_both(self):
        from repro.obs.render import render_dc_split

        report = self._report(0.75, 0.25, 12)
        report["counters"] = {
            "dc.backend.compiled": 9, "dc.backend.reference": 3,
        }
        line = render_dc_split(report)
        assert line.endswith(" [compiled 9, reference 3]")

    def test_full_report_carries_split_line(self):
        from repro.obs.render import render_report

        result = run_campaign(_inverter_spec(3), observe=True)
        assert "dc solver split:" in render_report(result.report)


class TestCampaignTelemetry:
    def test_serial_observe_collects_solver_metrics(self):
        result = run_campaign(_inverter_spec(3), observe=True)
        rec = result.recorder
        assert rec.counters["campaign.executed"] == 3
        assert rec.counters["dc.solves"] == 3
        assert rec.histograms["dc.newton_iters"].count == 3
        assert rec.histograms["task.seconds"].count == 3
        assert rec.spans["task.obs-inverter"].calls == 3
        assert result.report is not None
        assert result.report_path is None  # no directory: in-memory only

    def test_observe_off_leaves_solver_counters_empty(self):
        result = run_campaign(_inverter_spec(2), observe=False)
        assert "dc.solves" not in result.recorder.counters
        assert result.recorder.counters["campaign.executed"] == 2
        assert result.report is None

    @pytest.mark.slow
    def test_parallel_merge_matches_serial(self):
        """Satellite: counters and deterministic histograms are invariant
        under the worker count; time-valued histograms agree on count."""
        serial = run_campaign(_inverter_spec(6), observe=True)
        parallel = run_campaign(_inverter_spec(6), jobs=2, observe=True)
        assert serial.recorder.counters == parallel.recorder.counters
        assert (_deterministic_histograms(serial.recorder)
                == _deterministic_histograms(parallel.recorder))
        for name in ("dc.solve.seconds", "task.seconds"):
            assert (serial.recorder.histograms[name].count
                    == parallel.recorder.histograms[name].count)
        spans = parallel.recorder.spans
        assert spans["task.obs-inverter"].calls == 6


class TestReport:
    def test_report_schema_and_convergence_block(self):
        result = run_campaign(_inverter_spec(4), observe=True)
        report = validate(result.report)
        assert report["schema"] == SCHEMA
        assert report["campaign"]["name"] == "obs-toy"
        assert report["campaign"]["total"] == 4
        assert report["convergence"]["solves"] == 4
        assert report["convergence"]["strategies"] == {"newton": 4}
        assert report["convergence"]["failure_causes"] == {}
        assert len(report["slowest"]) == 4
        elapsed = [entry["elapsed"] for entry in report["slowest"]]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_failure_causes_grouped_by_type(self):
        records = run_campaign(
            SweepSpec.build(
                "mixed",
                [TaskPoint.make("obs-inverter", vin=0.5),
                 TaskPoint.make("no-such-kind", x=1)],
            ),
            retries=0, observe=True,
        )
        causes = records.report["convergence"]["failure_causes"]
        assert causes == {"KeyError": 1}

    def test_top_n_truncates_slowest(self):
        result = run_campaign(_inverter_spec(5), observe=True)
        report = build_report(
            result.summary, result.recorder, result.records.values(), top_n=2
        )
        assert len(report["slowest"]) == 2

    def test_write_load_round_trip(self, tmp_path):
        result = run_campaign(_inverter_spec(2), observe=True)
        path = write_report(result.report, tmp_path)
        assert path.name == REPORT_FILENAME
        assert load_report(path) == result.report
        assert load_report(tmp_path) == result.report  # directory form

    def test_validate_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate({"schema": "repro.obs.report/999"})
        with pytest.raises(ValueError, match="campaign"):
            validate({"schema": SCHEMA})

    def test_run_campaign_writes_report_and_trace(self, tmp_path):
        result = run_campaign(
            _inverter_spec(3), cache_dir=str(tmp_path), observe=True
        )
        assert result.report_path == str(tmp_path / REPORT_FILENAME)
        report = load_report(result.report_path)
        assert report["campaign"]["executed"] == 3
        events = read_trace(tmp_path / "trace.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run-start" and kinds[-1] == "run-end"
        assert kinds.count("task") == 3
        assert all("t" in e for e in events)

    def test_rerun_reports_cache_hits_and_truncates_trace(self, tmp_path):
        run_campaign(_inverter_spec(3), cache_dir=str(tmp_path), observe=True)
        again = run_campaign(
            _inverter_spec(3), cache_dir=str(tmp_path), observe=True
        )
        report = load_report(tmp_path)
        assert report["campaign"]["cache_hits"] == 3
        assert report["campaign"]["executed"] == 0
        events = read_trace(tmp_path / "trace.jsonl")
        assert [e["event"] for e in events if e["event"] == "task"] == []
        assert any(e["event"] == "cache-hits" for e in events)
        assert again.summary.cache_hits == 3

    def test_obs_dir_separates_report_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        reports = tmp_path / "reports"
        run_campaign(
            _inverter_spec(2), cache_dir=str(cache), observe=True,
            obs_dir=str(reports),
        )
        assert (reports / REPORT_FILENAME).exists()
        assert not (cache / REPORT_FILENAME).exists()


class TestTrace:
    def test_writer_truncates_per_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("run-start", total=1)
        with TraceWriter(path) as trace:
            trace.emit("run-start", total=2)
        events = read_trace(path)
        assert len(events) == 1 and events[0]["total"] == 2

    def test_reader_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as trace:
            trace.emit("task", key="k")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "task", "key"')
        events = read_trace(path)
        assert len(events) == 1 and events[0]["key"] == "k"


class TestTraceRotation:
    """Satellite: size-based rotation bounds the daemon's trace footprint."""

    def test_rotation_keeps_every_event_across_one_rotation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rotations_seen = []
        with TraceWriter(path, max_bytes=300,
                         on_rotate=rotations_seen.append) as trace:
            emitted = 0
            while trace.rotations == 0:
                trace.emit("e", seq=emitted)
                emitted += 1
            trace.emit("e", seq=emitted)
            emitted += 1
        assert trace.rotated_path.exists()
        assert trace.rotations == 1 and rotations_seen == [1]
        # One rotation loses nothing: .1 + live read back as one stream.
        events = read_trace(path, include_rotated=True)
        assert [e["seq"] for e in events] == list(range(emitted))
        # Without include_rotated only the live generation is visible.
        assert len(read_trace(path)) < emitted

    def test_second_rotation_replaces_the_previous_generation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, max_bytes=120) as trace:
            for seq in range(40):
                trace.emit("e", seq=seq)
        assert trace.rotations >= 2
        seqs = [e["seq"] for e in read_trace(path, include_rotated=True)]
        # Only the newest two generations survive, but what survives is
        # a contiguous tail ending at the last event.
        assert seqs == list(range(seqs[0], 40))
        assert len(seqs) < 40

    def test_no_max_bytes_never_rotates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as trace:
            for seq in range(200):
                trace.emit("e", seq=seq)
        assert trace.rotations == 0
        assert not trace.rotated_path.exists()
        assert len(read_trace(path, include_rotated=True)) == 200


class TestTraceContext:
    def test_new_mints_distinct_roots(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_child_shares_trace_and_parents_to_span(self):
        root = TraceContext.new()
        child = root.child()
        grandchild = child.child()
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_dict_round_trip_omits_null_parent(self):
        root = TraceContext.new()
        assert "parent_id" not in root.to_dict()
        child = root.child()
        assert TraceContext.from_dict(
            json.loads(json.dumps(child.to_dict()))
        ) == child

    def test_span_record_carries_ids_pid_and_extras(self):
        ctx = TraceContext.new().child()
        record = span_record(ctx, "task.toy", 123.456789123, 0.25,
                             status="failed", key="k1")
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        assert record["parent_id"] == ctx.parent_id
        assert record["pid"] == os.getpid()
        assert record["start"] == round(123.456789123, 6)
        assert record["status"] == "failed" and record["key"] == "k1"

    def test_take_spans_pops_before_merge(self):
        rec = Recorder()
        rec.count("n")
        snapshot = rec.snapshot()
        snapshot["trace_spans"] = [{"span_id": "s"}]
        spans = take_spans(snapshot)
        assert spans == [{"span_id": "s"}]
        assert "trace_spans" not in snapshot
        # The popped snapshot merges with metrics untouched.
        fresh = Recorder()
        fresh.merge(snapshot)
        assert fresh.counters == {"n": 1}

    def test_take_spans_tolerates_missing_snapshot(self):
        assert take_spans(None) == []
        assert take_spans({}) == []
        assert take_spans({"counters": {}}) == []


def _job_events(job="j1", tenant="alice"):
    """A synthetic daemon trace: submit -> chunk -> 2 tasks -> done."""
    root = TraceContext.new()
    chunk = root.child()
    fast, slow = chunk.child(), chunk.child()
    return root, [
        {"event": "job-submit", "job": job, "tenant": tenant,
         "trace_id": root.trace_id, "span_id": root.span_id,
         "start": 100.0, "pid": 1},
        {"event": "span", **span_record(slow, "task.t", 100.3, 0.5,
                                        key="k2")},
        {"event": "span", **span_record(fast, "task.t", 100.1, 0.1,
                                        key="k1")},
        {"event": "span", **span_record(chunk, "chunk", 100.05, 0.9)},
        {"event": "job-done", "job": job, "elapsed": 1.0},
    ]


class TestStitch:
    def test_tree_structure_and_child_order(self):
        root_ctx, events = _job_events()
        trees = build_trees(events)
        assert len(trees) == 1
        root = trees[0]
        assert root.name == "job j1 tenant=alice"
        assert root.trace_id == root_ctx.trace_id
        assert root.elapsed == 1.0  # backfilled from job-done via job id
        (chunk,) = root.children
        assert chunk.name == "chunk"
        # Children sort by start even though the trace had them reversed.
        assert [c.key for c in chunk.children] == ["k1", "k2"]

    def test_orphan_spans_reattach_to_root(self):
        root_ctx, events = _job_events()
        lost_parent = TraceContext(root_ctx.trace_id, "dead",
                                   parent_id="gone")
        events.insert(2, {"event": "span",
                          **span_record(lost_parent.child(), "task.t",
                                        100.4, 0.2, key="orphan")})
        (root,) = build_trees(events)
        assert {c.name for c in root.children} == {"chunk", "task.t"}

    def test_rootless_trace_promotes_spans_to_roots(self):
        ctx = TraceContext.new()
        trees = build_trees(
            [{"event": "span", **span_record(ctx, "chunk", 1.0, 0.5)}]
        )
        assert len(trees) == 1 and trees[0].name == "chunk"

    def test_v1_events_without_ids_stitch_nothing(self):
        assert build_trees([
            {"event": "run-start", "campaign": "old", "total": 3},
            {"event": "task", "key": "k"},
            {"event": "run-end", "wall_time": 1.0},
        ]) == []

    def test_interrupted_job_marks_root_status(self):
        _root_ctx, events = _job_events()
        events[-1] = {"event": "job-interrupted", "job": "j1",
                      "elapsed": 0.7}
        (root,) = build_trees(events)
        assert root.status == "interrupted" and root.elapsed == 0.7

    def test_critical_path_follows_last_ending_child(self):
        _root_ctx, events = _job_events()
        (root,) = build_trees(events)
        path = critical_path(root)
        (chunk,) = root.children
        slow = [c for c in chunk.children if c.key == "k2"][0]
        fast = [c for c in chunk.children if c.key == "k1"][0]
        assert path == {root.span_id, chunk.span_id, slow.span_id}
        assert fast.span_id not in path

    def test_render_marks_path_and_statuses(self):
        _root_ctx, events = _job_events()
        events[1]["status"] = "crashed"
        (root,) = build_trees(events)
        text = render_tree(root)
        assert text.startswith(f"trace {root.trace_id}")
        assert "|- " in text and "`- " in text
        assert "[crashed]" in text
        assert "key=k2" in text and "500.00ms" in text
        # Every critical-path label ends with the marker.
        starred = [line for line in text.splitlines()
                   if line.rstrip().endswith("*")]
        assert len(starred) == len(critical_path(root))

    def test_slow_filter_prunes_but_keeps_ancestors(self):
        _root_ctx, events = _job_events()
        (root,) = build_trees(events)
        text = render_tree(root, slow=0.4)
        assert "key=k2" in text          # 0.5s survivor
        assert "key=k1" not in text      # 0.1s pruned
        assert "chunk" in text           # ancestor of the survivor kept
        assert "(1 span(s) faster than 0.4s hidden)" in text


class TestBucketQuantile:
    """Satellite: exact small-count quantiles instead of bucket bounds."""

    @staticmethod
    def _data(values):
        hist = Histogram(TIME_BOUNDS)
        for value in values:
            hist.observe(value)
        return hist.to_dict()

    def test_empty_histogram_is_zero(self):
        from repro.obs.render import _bucket_quantile

        assert _bucket_quantile(self._data([]), 0.99) == 0.0

    def test_single_observation_is_every_quantile(self):
        from repro.obs.render import _bucket_quantile

        data = self._data([0.0137])
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert _bucket_quantile(data, q) == pytest.approx(0.0137)

    def test_two_observations_split_at_min_max(self):
        from repro.obs.render import _bucket_quantile

        data = self._data([0.002, 0.9])
        assert _bucket_quantile(data, 0.5) == pytest.approx(0.002)
        assert _bucket_quantile(data, 0.95) == pytest.approx(0.9)
        assert _bucket_quantile(data, 0.99) == pytest.approx(0.9)

    def test_identical_observations_collapse(self):
        from repro.obs.render import _bucket_quantile

        data = self._data([0.25] * 50)
        assert _bucket_quantile(data, 0.99) == pytest.approx(0.25)

    def test_tail_quantiles_clamp_to_exact_max(self):
        from repro.obs.render import _bucket_quantile

        # p99 of 10 observations targets the 10th: exactly the max, not
        # the (much larger) upper bound of the bucket it landed in.
        data = self._data([0.001 * i for i in range(1, 11)])
        assert _bucket_quantile(data, 0.99) == pytest.approx(0.010)
        assert _bucket_quantile(data, 0.01) == pytest.approx(0.001)

    def test_mid_quantile_reads_bucket_bound(self):
        from repro.obs.render import _bucket_quantile

        data = self._data([0.001 * i for i in range(1, 101)])
        p50 = _bucket_quantile(data, 0.5)
        assert data["min"] < p50 < data["max"]
        assert p50 in data["bounds"]  # a bucket upper bound, clamped

    def test_render_histograms_has_p99_column(self):
        from repro.obs.render import render_histograms

        text = render_histograms(
            {"histograms": {"task.seconds": self._data([0.1, 0.2])}}
        )
        assert "p99" in text.splitlines()[1]
        assert "200.00ms" in text


class TestPromExport:
    """Satellite+tentpole: /metrics text exposition and its parser."""

    def test_plain_counter_gets_repro_prefix_and_total(self):
        from repro.obs.export import parse_metrics, render_metrics

        text = render_metrics({"dc.solves": 7}, {})
        assert "# TYPE repro_dc_solves_total counter" in text
        assert parse_metrics(text)[("repro_dc_solves_total", ())] == 7

    def test_tenant_counters_collapse_into_labels(self):
        from repro.obs.export import parse_metrics, render_metrics

        text = render_metrics(
            {"serve.tenant.alice.jobs.submitted": 2,
             "serve.tenant.bob.jobs.submitted": 5}, {},
        )
        samples = parse_metrics(text)
        assert samples[
            ("serve_jobs_submitted_total", (("tenant", "alice"),))
        ] == 2
        assert samples[
            ("serve_jobs_submitted_total", (("tenant", "bob"),))
        ] == 5
        # One family, one TYPE line.
        assert text.count("# TYPE serve_jobs_submitted_total counter") == 1

    def test_histogram_buckets_are_cumulative_with_inf(self):
        from repro.obs.export import parse_metrics, render_metrics

        hist = Histogram(TIME_BOUNDS)
        for value in (1e-4, 2.5e-3, 2.5e-3, 0.7):
            hist.observe(value)
        text = render_metrics({}, {"task.seconds": hist.to_dict()})
        samples = parse_metrics(text)
        buckets = [
            (dict(labels)["le"], value)
            for (name, labels), value in samples.items()
            if name == "repro_task_seconds_bucket"
        ]
        values = [value for _le, value in buckets]
        assert values == sorted(values)  # cumulative, never decreasing
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 4
        assert samples[("repro_task_seconds_count", ())] == 4
        assert samples[("repro_task_seconds_sum", ())] == pytest.approx(
            0.7051, abs=1e-6
        )

    def test_tenant_histograms_keep_tenant_label_on_buckets(self):
        from repro.obs.export import parse_metrics, render_metrics

        hist = Histogram(TIME_BOUNDS)
        hist.observe(0.01)
        text = render_metrics(
            {}, {"serve.tenant.alice.queue_wait.seconds": hist.to_dict()}
        )
        samples = parse_metrics(text)
        assert samples[
            ("serve_queue_wait_seconds_bucket",
             (("tenant", "alice"), ("le", "+Inf")))
        ] == 1
        assert samples[
            ("serve_queue_wait_seconds_count", (("tenant", "alice"),))
        ] == 1

    def test_gauges_render_verbatim(self):
        from repro.obs.export import parse_metrics, render_metrics

        text = render_metrics({}, {}, gauges=[
            ("serve_uptime_seconds", (), 12.5),
            ("serve_jobs_total", (("state", "running"),), 3.0),
        ])
        samples = parse_metrics(text)
        assert samples[("serve_uptime_seconds", ())] == 12.5
        assert samples[("serve_jobs_total", (("state", "running"),))] == 3

    def test_label_values_are_escaped(self):
        from repro.obs.export import parse_metrics, render_metrics

        text = render_metrics({}, {}, gauges=[
            ("g", (("tenant", 'a"b\\c'),), 1.0),
        ])
        ((name, labels),) = list(parse_metrics(text))
        assert name == "g"

    def test_conflicting_family_kinds_rejected(self):
        from repro.obs.export import render_metrics

        with pytest.raises(ValueError, match="declared both"):
            render_metrics(
                {"x": 1}, {}, gauges=[("repro_x_total", (), 1.0)]
            )

    def test_parser_rejects_untyped_and_malformed_samples(self):
        from repro.obs.export import parse_metrics

        with pytest.raises(ValueError, match="no # TYPE"):
            parse_metrics("mystery_metric 1\n")
        with pytest.raises(ValueError, match="malformed value"):
            parse_metrics("# TYPE bad gauge\nbad oops\n")
        with pytest.raises(ValueError, match="malformed label"):
            parse_metrics('# TYPE bad gauge\nbad{tenant=alice} 1\n')


class TestRenderTop:
    """The ``repro top`` frame is a pure function of two stats payloads."""

    @staticmethod
    def _stats(executed=100, uptime=30.0, draining=False, pump=True):
        return {
            "uptime_s": uptime,
            "draining": draining,
            "workers": {"jobs": 2, "mode": "pool", "pump_alive": pump},
            "jobs": {"running": 1, "done": 4},
            "queued_points": 7,
            "queued_by_tenant": {"alice": 7},
            "tenants": ["alice"],
            "counters": {
                "serve.points.total": 200,
                "serve.points.executed": executed,
                "serve.points.cache_hits": 60,
                "serve.points.deduped": 20,
                "serve.points.failed": 2,
                "serve.tenant.alice.points.executed": executed,
                "serve.tenant.alice.jobs.submitted": 5,
                "serve.tenant.alice.jobs.completed": 4,
                "serve.tenant.alice.points.failed": 2,
            },
        }

    def test_first_frame_renders_totals_without_rates(self):
        from repro.obs.render import render_top

        frame = render_top(self._stats())
        assert "repro top | uptime 30s | workers 2 (pool, pump alive)" in frame
        assert "jobs: 4 done, 1 running" in frame
        assert "200 total, 100 executed, 80 cached/deduped (40% hit)" in frame
        assert "queued 7" in frame
        assert "alice" in frame and "-" in frame  # no rate yet

    def test_rates_come_from_counter_deltas(self):
        from repro.obs.render import render_top

        frame = render_top(self._stats(executed=150),
                           prev=self._stats(executed=100), dt=10.0)
        assert "5.0/s" in frame

    def test_draining_and_dead_pump_are_loud(self):
        from repro.obs.render import render_top

        frame = render_top(self._stats(draining=True, pump=False))
        assert "| DRAINING" in frame
        assert "pump STOPPED" in frame

    def test_no_tenants_yet(self):
        from repro.obs.render import render_top

        frame = render_top({"counters": {}})
        assert "tenants: none yet" in frame


class TestCampaignTraceTrees:
    """Tentpole: one-shot campaign traces stitch into one causal tree."""

    def test_serial_run_stitches_one_tree(self, tmp_path):
        run_campaign(_inverter_spec(4), cache_dir=str(tmp_path),
                     observe=True, chunksize=2)
        events = read_trace(tmp_path / "trace.jsonl")
        trees = build_trees(events)
        assert len(trees) == 1
        root = trees[0]
        assert root.name == "run obs-toy"
        assert root.elapsed is not None  # backfilled from run-end
        chunks = root.children
        assert [c.name for c in chunks] == ["chunk", "chunk"]
        tasks = [t for c in chunks for t in c.children]
        assert len(tasks) == 4
        assert all(t.name == "task.obs-inverter" for t in tasks)
        assert all(t.status == "ok" for t in tasks)
        assert len({n.trace_id for n in root.walk()}) == 1
        assert critical_path(root) <= {n.span_id for n in root.walk()}

    def test_cached_rerun_has_no_task_spans(self, tmp_path):
        run_campaign(_inverter_spec(3), cache_dir=str(tmp_path),
                     observe=True)
        run_campaign(_inverter_spec(3), cache_dir=str(tmp_path),
                     observe=True)
        (root,) = build_trees(read_trace(tmp_path / "trace.jsonl"))
        assert root.children == []  # everything served from cache

    def test_observe_off_writes_no_ids(self, tmp_path):
        run_campaign(_inverter_spec(2), cache_dir=str(tmp_path),
                     observe=False)
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.slow
    def test_pool_spans_stitch_across_three_processes(self, tmp_path):
        """The acceptance bar: one trace_id spanning the parent and at
        least two distinct pool-worker processes."""
        tasks = [TaskPoint.make("obs-sleep", dt=0.05, i=i)
                 for i in range(8)]
        spec = SweepSpec.build("obs-pool", tasks)
        run_campaign(spec, jobs=2, chunksize=1,
                     cache_dir=str(tmp_path), observe=True)
        (root,) = build_trees(read_trace(tmp_path / "trace.jsonl"))
        spans = list(root.walk())
        assert len({n.trace_id for n in spans}) == 1
        task_spans = [n for n in spans if n.name == "task.obs-sleep"]
        assert len(task_spans) == 8
        pids = {n.pid for n in spans if n.pid is not None}
        assert len(pids) >= 3, pids  # parent + both pool workers

    @pytest.mark.slow
    def test_tracing_leaves_metrics_invariant(self):
        """Spans ride outside the recorder snapshot: jobs=2 counters and
        deterministic histograms still equal the serial run's."""
        serial = run_campaign(_inverter_spec(6), observe=True)
        parallel = run_campaign(_inverter_spec(6), jobs=2, observe=True)
        assert serial.recorder.counters == parallel.recorder.counters
        assert "trace_spans" not in serial.recorder.counters
        assert (_deterministic_histograms(serial.recorder)
                == _deterministic_histograms(parallel.recorder))
