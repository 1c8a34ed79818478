"""The repro.verify conformance layer: tolerances, goldens, fuzz, CLI.

The golden workflow is exercised end to end on the ``march`` artifact
(sub-second to build) at the ``tiny`` tier against a temporary goldens
directory - including the negative path: a perturbed golden must fail the
run with the offending table cell named in the diff, through both the
library and the ``repro verify`` subprocess (exit-code contract).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify import fuzz as fuzz_mod
from repro.verify.artifacts import ARTIFACTS, artifact_names, scope_for
from repro.verify.compare import (
    TolerancePolicy,
    compare_payloads,
    render_mismatches,
)
from repro.verify.fuzz import (
    build_circuit,
    generate_spec,
    load_repro,
    run_case,
    run_fuzz,
    shrink_spec,
)
from repro.verify.goldens import (
    GOLDEN_SCHEMA,
    golden_path,
    load_golden,
    write_golden,
)
from repro.verify.runner import (
    REPORT_SCHEMA,
    run_verify,
    write_verify_report,
)
from repro.verify.tolerances import EXACT, Tolerance

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestTolerance:
    def test_exact_scalars(self):
        assert EXACT.check(3, 3)
        assert EXACT.check("fs, 1.0V, 125C", "fs, 1.0V, 125C")
        assert not EXACT.check(0.75, 0.7500001)

    def test_abs(self):
        tol = Tolerance.abs(1e-3)
        assert tol.check(0.5, 0.5009)
        assert not tol.check(0.5, 0.502)

    def test_rel_with_floor(self):
        tol = Tolerance.rel(0.01, floor=1e-6)
        assert tol.check(1000.0, 1009.0)
        assert not tol.check(1000.0, 1011.0)
        # Near zero the floor takes over (a pure rel bound would be 0).
        assert tol.check(0.0, 5e-7)
        assert not tol.check(0.0, 5e-6)

    def test_ulp(self):
        tol = Tolerance.ulp(4)
        assert tol.check(1.0, math.nextafter(1.0, 2.0))
        assert not tol.check(1.0, 1.0 + 100 * math.ulp(1.0))

    def test_non_numeric_compare_equal_under_any_kind(self):
        tol = Tolerance.rel(0.5)
        assert tol.check("VREF74", "VREF74")
        assert not tol.check("VREF74", "VREF70")
        assert not tol.check(True, False)

    def test_none_vs_number_always_fails(self):
        assert not Tolerance.abs(1e9).check(None, 0.0)
        assert not Tolerance.abs(1e9).check(0.0, None)
        assert EXACT.check(None, None)

    def test_nan_matches_only_nan(self):
        tol = Tolerance.abs(1.0)
        assert tol.check(float("nan"), float("nan"))
        assert not tol.check(float("nan"), 0.5)

    def test_describe_and_to_dict(self):
        assert EXACT.describe() == "exact"
        assert "abs<=0.0005" in Tolerance.abs(5e-4).describe()
        assert Tolerance.rel(0.01, 1e-6).to_dict() == {
            "kind": "rel", "value": 0.01, "floor": 1e-6,
        }
        assert EXACT.to_dict() == {"kind": "exact"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown tolerance kind"):
            Tolerance("bogus", 1.0).check(1.0, 2.0)


class TestComparePayloads:
    POLICY = TolerancePolicy([
        ("rows/*/drv", Tolerance.abs(1e-3)),
        ("rows/*/*", Tolerance.rel(0.5)),
    ])

    def test_identical_trees(self):
        payload = {"rows": {"CS1": {"drv": 0.4, "n": 1}}, "label": "x"}
        mismatches, compared = compare_payloads(payload, payload, self.POLICY)
        assert mismatches == []
        assert compared == 3

    def test_drift_within_tolerance_passes(self):
        golden = {"rows": {"CS1": {"drv": 0.4}}}
        actual = {"rows": {"CS1": {"drv": 0.4004}}}
        mismatches, _ = compare_payloads(golden, actual, self.POLICY)
        assert mismatches == []

    def test_drift_beyond_tolerance_names_the_path(self):
        golden = {"rows": {"CS1": {"drv": 0.4}}}
        actual = {"rows": {"CS1": {"drv": 0.402}}}
        mismatches, _ = compare_payloads(golden, actual, self.POLICY)
        assert [m.path for m in mismatches] == ["rows/CS1/drv"]
        assert "rows/CS1/drv" in mismatches[0].render()

    def test_first_matching_rule_wins(self):
        # 'rows/*/drv' (abs 1e-3) shadows the looser 'rows/*/*' rule.
        assert self.POLICY.tolerance_for("rows/CS1/drv").kind == "abs"
        assert self.POLICY.tolerance_for("rows/CS1/other").kind == "rel"

    def test_unclaimed_paths_default_to_exact(self):
        golden = {"meta": {"pvt": "fs, 1.0V, 125C"}}
        actual = {"meta": {"pvt": "sf, 1.0V, 125C"}}
        mismatches, _ = compare_payloads(golden, actual, self.POLICY)
        assert [m.path for m in mismatches] == ["meta/pvt"]
        assert mismatches[0].tolerance.kind == "exact"

    def test_missing_and_unexpected_keys(self):
        golden = {"a": 1, "b": 2}
        actual = {"a": 1, "c": 3}
        mismatches, _ = compare_payloads(golden, actual, TolerancePolicy())
        details = {m.path: m.detail for m in mismatches}
        assert details == {"b": "missing in actual", "c": "unexpected in actual"}

    def test_list_length_and_structure_mismatch(self):
        mismatches, _ = compare_payloads(
            {"xs": [1, 2, 3]}, {"xs": [1, 2]}, TolerancePolicy()
        )
        assert mismatches[0].detail == "length 3 vs 2"
        mismatches, _ = compare_payloads(
            {"xs": [1]}, {"xs": {"0": 1}}, TolerancePolicy()
        )
        assert mismatches[0].detail == "structure differs"

    def test_render_limit(self):
        mismatches, _ = compare_payloads(
            {str(i): i for i in range(30)},
            {str(i): i + 1 for i in range(30)},
            TolerancePolicy(),
        )
        text = render_mismatches("demo", mismatches, limit=5)
        assert "demo: 30 mismatch(es)" in text
        assert "... and 25 more" in text


class TestGoldens:
    def test_round_trip(self, tmp_path):
        scope = scope_for("tiny")
        payload = {"structure": {"March m-LZ": {"length_n32": 164}}}
        path = write_golden(tmp_path, scope, "march", payload)
        assert path == golden_path(tmp_path, "tiny", "march")
        document = load_golden(tmp_path, "tiny", "march")
        assert document["schema"] == GOLDEN_SCHEMA
        assert document["payload"] == payload
        assert document["scope"] == scope.params()
        assert document["tolerances"] == ARTIFACTS["march"].policy.to_dict()

    def test_absent_returns_none(self, tmp_path):
        assert load_golden(tmp_path, "tiny", "march") is None

    def test_corrupt_json_raises(self, tmp_path):
        path = golden_path(tmp_path, "tiny", "march")
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_golden(tmp_path, "tiny", "march")

    def test_wrong_schema_raises(self, tmp_path):
        path = golden_path(tmp_path, "tiny", "march")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "bogus/9"}), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported schema"):
            load_golden(tmp_path, "tiny", "march")

    def test_misfiled_golden_raises(self, tmp_path):
        """A golden copied under another artifact's name must not verify."""
        scope = scope_for("tiny")
        source = write_golden(tmp_path, scope, "march", {"x": 1})
        target = golden_path(tmp_path, "tiny", "table1")
        target.write_text(source.read_text())
        with pytest.raises(ValueError, match="claims artifact"):
            load_golden(tmp_path, "tiny", "table1")


def _spec_with(min_mosfets, min_caps):
    for seed in range(200):
        spec = generate_spec(seed)
        kinds = [el["kind"] for el in spec["elements"]]
        if (
            kinds.count("mosfet") >= min_mosfets
            and kinds.count("capacitor") >= min_caps
        ):
            return spec
    raise AssertionError("no suitable spec in 200 seeds")


class TestFuzz:
    def test_spec_generation_is_deterministic_and_jsonable(self):
        a, b = generate_spec(1234), generate_spec(1234)
        assert a == b
        assert json.loads(json.dumps(a)) == a
        assert a != generate_spec(1235)

    def test_specs_are_topology_valid(self):
        for seed in range(20):
            circuit = build_circuit(generate_spec(seed))
            assert circuit.node_count >= 3
            status, check, detail = run_case(generate_spec(seed))
            assert status in ("ok", "skip"), f"seed {seed}: {check} {detail}"

    def test_fuzz_pits_compiled_against_the_reference_oracle(
        self, monkeypatch
    ):
        """The one fuzzed pair covers the whole registry, and a
        disagreement names both sides."""
        from repro.spice import BACKENDS
        from repro.spice import dc as spice_dc

        assert set(BACKENDS) == {"reference", "compiled"}
        exact = spice_dc._assemble

        def skewed(*args, **kwargs):
            residual, jacobian = exact(*args, **kwargs)
            return residual + 1e-3, jacobian

        monkeypatch.setattr(spice_dc, "_assemble", skewed)
        status, check, detail = run_case(generate_spec(3))
        assert (status, check) == ("fail", "assembly_dc")
        assert "reference" in detail and "compiled" in detail

    def test_run_fuzz_agrees_and_is_deterministic(self):
        first = run_fuzz(15, seed=7)
        second = run_fuzz(15, seed=7)
        assert first.ok and first.cases == 15
        assert first.to_dict() == second.to_dict()
        assert f"{first.passed}/15 agreed" in first.render()

    def test_shrinker_reaches_one_minimal(self, monkeypatch):
        """With a synthetic 'fails iff a MOSFET is present' check, the
        shrinker must strip every cap/isource and all but one MOSFET."""
        def fails_on_mosfet(spec):
            kinds = [el["kind"] for el in spec["elements"]]
            if "mosfet" in kinds:
                return "fail", f"{kinds.count('mosfet')} mosfet(s)"
            return "ok", ""

        monkeypatch.setitem(
            fuzz_mod._CHECK_FUNCS, "synthetic", fails_on_mosfet
        )
        spec = _spec_with(min_mosfets=2, min_caps=1)
        shrunk = shrink_spec(spec, "synthetic")
        kinds = [el["kind"] for el in shrunk["elements"]]
        assert kinds.count("mosfet") == 1
        assert kinds.count("capacitor") == 0
        assert kinds.count("isource") == 0
        assert len(shrunk["elements"]) < len(spec["elements"])
        status, check, _ = run_case(shrunk, checks=("synthetic",))
        assert (status, check) == ("fail", "synthetic")

    def test_failures_are_dumped_and_reloadable(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            fuzz_mod._CHECK_FUNCS, "synthetic",
            lambda spec: ("fail", "always"),
        )
        report = run_fuzz(
            2, seed=3, checks=("synthetic",), repro_dir=tmp_path
        )
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.repro_path is not None
            name = Path(failure.repro_path).name
            assert name == f"fuzz-synthetic-seed{failure.seed}.json"
            reloaded = load_repro(failure.repro_path)
            assert reloaded == failure.shrunk
        assert "disagreement" in report.render()

    def test_load_repro_accepts_bare_spec(self, tmp_path):
        spec = generate_spec(5)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert load_repro(path) == spec

    def test_load_repro_accepts_pair_keyed_dump(self, tmp_path):
        """Dumps that also name an oracle/candidate pair replay their
        shrunk spec; the pair keys are ignored."""
        spec = generate_spec(5)
        path = tmp_path / "fuzz-dc_solution-reference-vs-compiled-seed5.json"
        path.write_text(json.dumps({
            "check": "dc_solution", "oracle": "reference",
            "candidate": "compiled", "spec": spec, "shrunk": spec,
        }), encoding="utf-8")
        assert load_repro(path) == spec


class TestRunVerify:
    """Library-level golden workflow on the march artifact, tiny tier."""

    def test_missing_golden_fails_the_run(self, tmp_path):
        report = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=["march"]
        )
        assert not report.ok
        assert report.results[0].status == "missing"
        assert "MISSING march" in report.render()

    def test_regen_then_verify_passes(self, tmp_path):
        regen = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=["march"],
            regen=True,
        )
        assert regen.ok and regen.results[0].status == "regenerated"
        assert golden_path(tmp_path, "tiny", "march").exists()
        report = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=["march"]
        )
        assert report.ok
        assert report.results[0].status == "pass"
        assert report.results[0].fields_compared > 20
        assert "PASS march" in report.render()

    def test_perturbed_golden_fails_and_names_the_cell(self, tmp_path):
        """Satellite: one flipped value -> non-zero verdict, path named."""
        run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=["march"],
            regen=True,
        )
        path = golden_path(tmp_path, "tiny", "march")
        document = json.loads(path.read_text())
        assert document["payload"]["coverage"]["March m-LZ"]["DRF_DS"] == 1.0
        document["payload"]["coverage"]["March m-LZ"]["DRF_DS"] = 0.5
        path.write_text(json.dumps(document), encoding="utf-8")
        report = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=["march"]
        )
        assert not report.ok
        result = report.results[0]
        assert result.status == "fail"
        assert [m.path for m in result.mismatches] == [
            "coverage/March m-LZ/DRF_DS"
        ]
        rendered = report.render()
        assert "FAIL march" in rendered
        assert "coverage/March m-LZ/DRF_DS" in rendered
        assert "verify: FAILED" in rendered

    def test_unknown_artifact_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact"):
            run_verify(tier="tiny", goldens_dir=tmp_path, artifacts=["nope"])

    def test_table3_skipped_at_tiny(self):
        assert "table3" not in artifact_names(scope_for("tiny"))
        assert "table3" in artifact_names(scope_for("fast"))

    def test_fuzz_stage_folds_into_report(self, tmp_path):
        report = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=[],
            fuzz_cases=3, fuzz_seed=11,
        )
        assert report.fuzz is not None and report.fuzz.cases == 3
        assert report.ok is report.fuzz.ok

    def test_write_verify_report(self, tmp_path):
        report = run_verify(
            tier="tiny", goldens_dir=tmp_path, artifacts=[], fuzz_cases=1
        )
        out = write_verify_report(report, tmp_path / "report.json")
        document = json.loads(out.read_text())
        assert document["schema"] == REPORT_SCHEMA
        assert document["tier"] == "tiny"
        assert document["fuzz"]["cases"] == 1


def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.mark.slow
class TestVerifyCLI:
    """End-to-end exit-code contract of ``repro verify``."""

    def test_regen_verify_perturb_cycle(self, tmp_path):
        goldens = tmp_path / "goldens"
        base = (
            "verify", "--tier", "tiny", "--artifacts", "march",
            "--goldens-dir", str(goldens),
        )
        regen = _run_cli(*base, "--regen")
        assert regen.returncode == 0, regen.stderr
        assert "REGEN march" in regen.stdout

        report_path = tmp_path / "report.json"
        check = _run_cli(*base, "--json", str(report_path))
        assert check.returncode == 0, check.stderr
        assert "verify: OK" in check.stdout
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert "obs" in document  # telemetry counters ride along

        golden_file = goldens / "tiny" / "march.json"
        document = json.loads(golden_file.read_text())
        document["payload"]["structure"]["March m-LZ"]["length_n32"] += 1
        golden_file.write_text(json.dumps(document), encoding="utf-8")
        broken = _run_cli(*base)
        assert broken.returncode == 1
        assert "structure/March m-LZ/length_n32" in broken.stdout
        assert "verify: FAILED" in broken.stdout

    def test_missing_golden_is_nonzero(self, tmp_path):
        result = _run_cli(
            "verify", "--tier", "tiny", "--artifacts", "march",
            "--goldens-dir", str(tmp_path / "empty"),
        )
        assert result.returncode == 1
        assert "MISSING march" in result.stdout

    def test_fuzz_only_run(self, tmp_path):
        result = _run_cli(
            "verify", "--tier", "tiny", "--artifacts", "march",
            "--goldens-dir", str(tmp_path), "--regen", "--fuzz", "5",
        )
        assert result.returncode == 0, result.stderr
        assert "fuzz: 5/5 agreed" in result.stdout

    def test_fuzz_repro_replay(self, tmp_path):
        """A dumped (or bare) spec replays through --fuzz-repro."""
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(generate_spec(42)), encoding="utf-8")
        result = _run_cli("verify", "--fuzz-repro", str(path))
        assert result.returncode == 0, result.stderr
        assert "repro seed 42" in result.stdout
        missing = _run_cli("verify", "--fuzz-repro", str(tmp_path / "no.json"))
        assert missing.returncode != 0
        assert "cannot load repro" in missing.stderr
