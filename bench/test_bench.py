"""Checks of the benchmark itself; run with ``python -m pytest bench/``.

Every workload runs once through ``run.py --trace 1 --seconds 1`` (one
untraced and one traced child each), the tracer's bookkeeping is checked
in-process, and the benchmark must refuse to run without the program.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import trace as layer_trace  # noqa: E402  (bench/trace.py)
import workloads  # noqa: E402

assert Path(layer_trace.__file__).parent == BENCH


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
        capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2  # one untraced, one traced operation
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            line.startswith(f"{workload}: {metric['name']} ")
            and line.endswith(f" {metric['unit']}") for line in printed
        ), metric["name"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload != "serve-probe":  # the service's clients wait on the pool
        assert values["trace.unattributed_pct"] <= 10.0


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_run("--workload", "serve-probe", "--seconds", "1"))
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_sum_to_wall():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), "macro-1m", "--seed",
         "0", "--trace", "--spawned", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = sum(child["ops"])
    self_total = sum(stat[1] for stat in child["stats"].values())
    assert abs(self_total - wall) <= 0.05 * wall
    assert not child["errors"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the tracer, in-process --------------------------------------------------


class _Base:
    def method(self):
        time.sleep(0.01)


class _Child(_Base):
    pass


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("bench_fake_layers")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()
        _Child().method()

    module.inner, module.outer, module.Child = inner, outer, _Child
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_self_times_partition_each_threads_wall(fake_module):
    sites = [
        ("outer", fake_module.__name__, "outer", None),
        ("inner", fake_module.__name__, "inner", ("calls", lambda _: 1)),
        ("method", fake_module.__name__, "Child.method", None),
    ]
    walls = []
    with layer_trace.Tracer(sites) as tracer:
        def work():
            start = time.perf_counter()
            with tracer.span("root"):
                fake_module.outer()
            walls.append(time.perf_counter() - start)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    stats = tracer.stats
    assert {name: stat[0] for name, stat in stats.items()} == {
        "root": 2, "outer": 2, "inner": 2, "method": 2}
    assert tracer.counts == {"inner.calls": 2}
    assert stats["outer"][1] == pytest.approx(
        stats["outer"][2] - stats["inner"][2] - stats["method"][2])
    assert stats["root"][1] == pytest.approx(
        stats["root"][2] - stats["outer"][2])
    self_total = sum(stat[1] for stat in stats.values())
    assert self_total == pytest.approx(sum(walls), rel=0.05)


def test_tracer_restores_every_attribute(fake_module):
    sites = workloads.SITES + (
        ("method", fake_module.__name__, "Child.method", None),
    )
    owners = []
    for _name, module, path, _hook in sites:
        owner = __import__(module, fromlist=["_"])
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        owners.append((owner, attr, getattr(owner, attr), dict(vars(owner))))
    with layer_trace.Tracer(sites):
        for owner, attr, original, _before in owners:
            assert getattr(owner, attr) is not original
    for owner, _attr, _original, before in owners:
        assert dict(vars(owner)) == before
    assert "method" not in vars(_Child)  # inherited: restored by deletion
