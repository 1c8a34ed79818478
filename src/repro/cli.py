"""Command-line interface: regenerate paper artifacts from a shell.

Examples::

    python -m repro table1                   # case-study DRV ladder
    python -m repro table2 --defects 1,16    # Table II slice
    python -m repro table2 --jobs 4 --cache-dir .repro-cache
    python -m repro table3 --defects 1,3,4   # optimised flow
    python -m repro fig4 --fast              # Fig. 4 panels
    python -m repro mc --samples 64 --seed 7 # Monte Carlo DRV statistics
    python -m repro campaign table2 --full-grid --jobs 8 --resume
    python -m repro stats .repro-cache       # read back the run report
    python -m repro power                    # Section IV.B comparison
    python -m repro classify                 # 32-defect taxonomy
    python -m repro run-march "March m-LZ"   # run a test on a clean SRAM
    python -m repro run-march "{ u(w0); u(r0) }" --words 128
    python -m repro verify --fast            # golden conformance gate
    python -m repro verify --fast --fuzz 200 --json report.json
    python -m repro verify --regen --tier tiny   # re-pin goldens
    python -m repro verify --fuzz-repro fuzz-dc_solution-seed123.json
    python -m repro serve --jobs 4               # multi-tenant job daemon
    python -m repro submit fig4 --fast --tenant alice
    python -m repro jobs                         # list the daemon's jobs
    python -m repro trace j0001-abc123           # stitched trace tree
    python -m repro trace .repro-cache --slow 1  # only the slow spans
    python -m repro top --count 1                # one live-stats frame

The ``--fast`` flag swaps the PVT sweep for a minimal grid; without it the
commands use the same reduced defaults as the benchmarks.

The sweep-backed commands (``table2``/``table3``/``fig4``/``mc`` and the
generic ``campaign`` umbrella) run as :mod:`repro.campaign` sweeps:
``--jobs N`` fans the grid over N worker processes (default 1 = the
historical serial loop), ``--cache-dir`` persists per-point results so
reruns and interrupted runs are incremental, ``--resume`` is shorthand for
caching under ``.repro-cache/``, and every run reports a one-line campaign
summary (cache hit rate, tasks/sec) on stderr.  ``campaign`` additionally
accepts ``--full-grid`` for the paper's complete 45-condition sweep - the
run the campaign engine exists to make feasible.

Observability (:mod:`repro.obs`) is on by default for the sweep commands:
solver strategy counters, iteration/latency histograms and per-task spans
are merged across workers, and - whenever the run has a cache/obs
directory - a per-run ``trace.jsonl`` plus a schema-versioned
``report.json`` land next to the result cache (the ``campaign`` umbrella
defaults that directory to ``.repro-cache/``).  ``repro stats <report>``
renders a report as text; ``--no-obs`` turns the instrumentation off.

Resilience flags (all sweep commands): ``--deadline S`` bounds every task
(over-budget points become ``timeout`` records instead of stalling the
sweep), ``--strict`` exits non-zero when anything failed/crashed/timed
out, ``--chaos crash:0.1,hang:0.05`` injects deterministic faults to
exercise the recovery machinery, and ``--compact-cache`` rewrites the
result store down to live records after the run.  A SIGINT/SIGTERM drains
in-flight work, checkpoints it and exits with code 130; rerunning with
``--resume`` continues from the checkpoint.

``verify`` (:mod:`repro.verify`) is the paper-fidelity gate: it recomputes
every golden-pinned artifact (Tables I-III, Fig. 4, March coverage) at the
chosen tier, diffs them against ``goldens/`` through per-metric tolerance
policies, optionally differential-fuzzes the compiled backend against the
reference oracle (``--fuzz N``), and exits 1 with the offending table cell
named on any drift.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

#: Cache location implied by ``--resume`` when ``--cache-dir`` is absent.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default port of the ``repro serve`` daemon (and ``submit``/``jobs``).
DEFAULT_SERVE_PORT = 8351

#: Exit code for a run stopped by SIGINT/SIGTERM after a graceful drain
#: (the shell convention for "killed by SIGINT"); ``--resume`` continues it.
EXIT_INTERRUPTED = 130

#: Exit code under ``--strict`` when any task record is failed, crashed or
#: timed out (distinct from 1/2, which argparse and Python reserve).
EXIT_STRICT = 3

#: Exit code of ``repro verify`` when a golden mismatched, a golden was
#: missing, or the differential fuzzer found a backend disagreement.
EXIT_VERIFY = 1


def _grid(fast: bool, full: bool = False):
    from .devices.pvt import corner_temp_grid

    if full:
        return corner_temp_grid()
    if fast:
        return corner_temp_grid(corners=("fs",), temps=(125.0,))
    return corner_temp_grid(corners=("fs", "sf"), temps=(-30.0, 125.0))


def _pvt_grid(fast: bool, full: bool = False):
    from .devices.pvt import paper_pvt_grid

    if full:
        return paper_pvt_grid()
    if fast:
        return paper_pvt_grid(corners=("fs",), temps=(125.0,))
    return paper_pvt_grid(corners=("fs", "sf"), temps=(125.0,))


def _parse_defects(text: Optional[str], default: Sequence[int]) -> List[int]:
    if not text:
        return list(default)
    try:
        ids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--defects expects comma-separated integers, got {text!r}")
    from .regulator.defects import DEFECTS

    unknown = [i for i in ids if i not in DEFECTS]
    if unknown:
        known = ", ".join(str(i) for i in sorted(DEFECTS))
        raise SystemExit(
            f"--defects: unknown defect id(s) {unknown}; known sites: {known}"
        )
    return ids


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cache_dir(args) -> Optional[str]:
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "resume", False):
        cache_dir = DEFAULT_CACHE_DIR
    return cache_dir


def _chaos_spec(args):
    text = getattr(args, "chaos", None)
    if text is None:
        return None
    from .chaos import ChaosSpec

    try:
        return ChaosSpec.parse(text)
    except ValueError as error:
        raise SystemExit(f"--chaos: {error}")


def _positive_seconds(args, name: str) -> Optional[float]:
    """``args.<name>`` (a seconds flag, or None); exits unless positive."""
    value = getattr(args, name, None)
    if value is not None and value <= 0.0:
        flag = "--" + name.replace("_", "-")
        raise SystemExit(f"{flag} must be positive, got {value:g}")
    return value


def _campaign_kwargs(args) -> dict:
    """Executor keyword arguments from the campaign CLI flags."""
    deadline = _positive_seconds(args, "deadline")
    return {
        "jobs": getattr(args, "jobs", 1),
        "cache_dir": _cache_dir(args),
        "verbose": getattr(args, "verbose", False),
        "observe": not getattr(args, "no_obs", False),
        "obs_dir": getattr(args, "obs_dir", None),
        "deadline_s": deadline,
        "chaos": _chaos_spec(args),
    }


def _report(result) -> None:
    """One-line campaign summary on stderr (stdout carries the artifact)."""
    if result.summary is not None:
        print(result.summary.render(), file=sys.stderr)


def _finish(args, result) -> int:
    """Post-run plumbing shared by the sweep commands.

    Prints the summary, optionally compacts the cache down to the live
    fingerprint, and maps the result onto the exit-code contract:
    ``EXIT_INTERRUPTED`` for a drained SIGINT/SIGTERM run (so wrappers
    can distinguish "checkpointed, resume me" from success or failure)
    and ``EXIT_STRICT`` under ``--strict`` when anything failed, crashed
    or timed out.
    """
    _report(result)
    if getattr(args, "compact_cache", False):
        cache_dir = _cache_dir(args)
        if cache_dir is None:
            raise SystemExit(
                "--compact-cache needs a cache (--cache-dir or --resume)"
            )
        from .campaign import ResultCache

        dropped = ResultCache(cache_dir).compact(
            keep_fingerprint=result.spec.fingerprint()
        )
        print(
            f"cache compacted: dropped {dropped} "
            f"stale/superseded/corrupt line(s)",
            file=sys.stderr,
        )
    if result.interrupted:
        return EXIT_INTERRUPTED
    if getattr(args, "strict", False) and result.failures:
        print(
            f"strict: {len(result.failures)} task(s) did not complete "
            f"cleanly", file=sys.stderr,
        )
        return EXIT_STRICT
    return 0


def cmd_table1(args) -> int:
    from .analysis import render_table1, table1_rows

    print(render_table1(table1_rows(pvt_grid=_grid(args.fast))))
    return 0


def cmd_table2(args) -> int:
    from .analysis import render_table2, run_table2_campaign
    from .regulator.defects import DRF_IDS

    defects = _parse_defects(args.defects, DRF_IDS if not args.fast else (1, 16, 23))
    rows, result = run_table2_campaign(
        defect_ids=defects,
        pvt_grid=_pvt_grid(args.fast, getattr(args, "full_grid", False)),
        **_campaign_kwargs(args),
    )
    print(render_table2(rows))
    return _finish(args, result)


def cmd_table3(args) -> int:
    from .analysis import render_table3, run_table3_campaign
    from .regulator.defects import DRF_IDS

    defects = _parse_defects(args.defects, DRF_IDS if not args.fast else (1, 3, 4))
    flow, result = run_table3_campaign(
        defect_ids=defects, **_campaign_kwargs(args)
    )
    print(render_table3(flow))
    return _finish(args, result)


def cmd_fig4(args) -> int:
    from .analysis import render_figure4, run_figure4_campaign

    sigmas = (-6.0, -3.0, 0.0, 3.0, 6.0) if args.fast else (-6, -4, -2, 0, 2, 4, 6)
    points, result = run_figure4_campaign(
        sigmas=[float(s) for s in sigmas],
        pvt_grid=_grid(args.fast, getattr(args, "full_grid", False)),
        **_campaign_kwargs(args),
    )
    print(render_figure4(points, "ds1"))
    print()
    print(render_figure4(points, "ds0"))
    return _finish(args, result)


def cmd_mc(args) -> int:
    from .analysis import render_montecarlo, run_montecarlo_campaign

    samples = args.samples if args.samples is not None else (16 if args.fast else 100)
    result, campaign = run_montecarlo_campaign(
        n_samples=samples, corner=args.corner, temp_c=args.temp,
        seed=args.seed, shards=args.shards, **_campaign_kwargs(args),
    )
    print(render_montecarlo(result))
    return _finish(args, campaign)


def cmd_macro(args) -> int:
    from .analysis.macro import render_macro, run_macro_campaign
    from .sram.macro import MacroSpec

    words = args.words if args.words is not None else (256 if args.fast else 4096)
    banks = args.banks if args.banks is not None else (2 if args.fast else 8)
    buckets = args.buckets if args.buckets is not None else (4 if args.fast else 16)
    spec = MacroSpec(words=words, bits=args.bits, banks=banks, seed=args.seed)
    summary, result = run_macro_campaign(
        spec, vddcc=args.vddcc, ds_time=args.ds_time,
        mission_time=args.mission_time, corner=args.corner,
        temp_c=args.temp, buckets=buckets, **_campaign_kwargs(args),
    )
    print(render_macro(summary))
    return _finish(args, result)


def cmd_power(args) -> int:
    from .analysis import power_comparison, render_power
    from .devices.pvt import paper_pvt_grid

    corners = ("typical",) if args.fast else ("typical", "fast", "slow", "fs", "sf")
    print(render_power(power_comparison(paper_pvt_grid(corners=corners, vdds=(1.1,)))))
    return 0


def cmd_classify(args) -> int:
    from .core.reporting import render_table
    from .regulator import DEFECTS, classify_defect

    ids = _parse_defects(args.defects, tuple(DEFECTS))
    rows = []
    for n in ids:
        site = DEFECTS[n]
        measured = classify_defect(site)
        rows.append([
            site.name, site.branch, measured.value,
            "ok" if measured is site.category else "MISMATCH",
        ])
    print(render_table(["defect", "branch", "category", "vs paper"], rows))
    return 1 if any(r[3] == "MISMATCH" for r in rows) else 0


def cmd_run_march(args) -> int:
    from .march import parse_library_or_custom, run_march
    from .sram import LowPowerSRAM, SRAMConfig

    test = parse_library_or_custom(args.test)
    memory = LowPowerSRAM(SRAMConfig(n_words=args.words, word_bits=args.bits))
    vddcc = args.vddcc
    result = run_march(
        test, memory,
        vddcc_for_sleep=(lambda _i: vddcc) if vddcc is not None else None,
    )
    print(test)
    print(result)
    for failure in result.failures[:10]:
        print(" ", failure)
    return 0 if result.passed else 1


#: Sweep-backed targets of the generic ``campaign`` umbrella command.
CAMPAIGN_TARGETS = {
    "table2": cmd_table2,
    "table3": cmd_table3,
    "fig4": cmd_fig4,
    "mc": cmd_mc,
}


def cmd_campaign(args) -> int:
    # The umbrella command always leaves a run report behind: without an
    # explicit cache/obs directory it reports into the default cache dir.
    if (
        not getattr(args, "no_obs", False)
        and getattr(args, "obs_dir", None) is None
        and getattr(args, "cache_dir", None) is None
        and not getattr(args, "resume", False)
    ):
        args.obs_dir = DEFAULT_CACHE_DIR
    return CAMPAIGN_TARGETS[args.target](args)


def cmd_verify(args) -> int:
    """Paper-fidelity gate: goldens + differential backend fuzzing."""
    from . import obs
    from .verify import load_repro, run_case, run_verify

    if getattr(args, "fuzz_repro", None):
        # Re-run one dumped minimal netlist repro and nothing else.
        try:
            spec = load_repro(args.fuzz_repro)
        except (OSError, ValueError, KeyError) as error:
            raise SystemExit(f"verify: cannot load repro: {error}")
        status, check, detail = run_case(spec)
        print(f"repro seed {spec.get('seed')}: {status}"
              + (f" ({check}: {detail})" if status != "ok" else ""))
        return 0 if status != "fail" else EXIT_VERIFY

    tier = args.tier
    if getattr(args, "full", False):
        tier = "full"
    artifacts = None
    if args.artifacts:
        artifacts = [a.strip() for a in args.artifacts.split(",") if a.strip()]
    with obs.recording() as recorder:
        try:
            report = run_verify(
                tier=tier,
                goldens_dir=args.goldens_dir,
                artifacts=artifacts,
                regen=args.regen,
                fuzz_cases=args.fuzz,
                fuzz_seed=args.fuzz_seed,
                repro_dir=args.repro_dir,
                jobs=args.jobs,
                cache_dir=_cache_dir(args),
            )
        except ValueError as error:
            raise SystemExit(f"verify: {error}")
    if args.json:
        import json as _json
        from pathlib import Path

        document = report.to_dict()
        document["obs"] = {"counters": dict(sorted(recorder.counters.items()))}
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(document, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"verify: report written to {out}", file=sys.stderr)
    print(report.render())
    return 0 if report.ok else EXIT_VERIFY


def _newest_report(directory) -> Optional[str]:
    """The most recently written report.json anywhere under ``directory``.

    The cache directory can hold several reports - the one-shot campaign's
    at the top level, the daemon's under ``serve/`` - so the no-argument
    ``repro stats`` shows whichever run finished last.
    """
    from pathlib import Path

    from .obs.report import REPORT_FILENAME

    root = Path(directory)
    if not root.is_dir():
        return None
    candidates = sorted(
        root.rglob(REPORT_FILENAME),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    return str(candidates[0]) if candidates else None


def cmd_stats(args) -> int:
    from pathlib import Path

    from .obs.render import render_report
    from .obs.report import REPORT_FILENAME, load_report

    target = args.report
    if Path(target).is_dir():
        newest = _newest_report(target)
        if newest is not None:
            target = newest
    try:
        report = load_report(target)
    except FileNotFoundError:
        raise SystemExit(
            f"stats: no {REPORT_FILENAME} under {args.report!r} "
            f"(run a campaign command with --cache-dir/--resume first)"
        )
    except ValueError as error:
        raise SystemExit(f"stats: {error}")
    if getattr(args, "json", False):
        import json as _json

        print(_json.dumps(report, sort_keys=True, indent=1))
        return 0
    print(render_report(report, top_n=args.top))
    return 0


def _trace_files(directory) -> list:
    """All trace.jsonl files under ``directory``, newest first."""
    from pathlib import Path

    from .obs.trace import TRACE_FILENAME

    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(
        root.rglob(TRACE_FILENAME),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )


def cmd_trace(args) -> int:
    """Render stitched distributed-trace trees from a trace.jsonl."""
    from pathlib import Path

    from .obs.stitch import build_trees, render_tree
    from .obs.trace import read_trace

    target = args.target
    path = Path(target)
    job_id = None
    if path.is_file():
        candidates = [path]
    elif path.is_dir():
        candidates = _trace_files(path)
        if not candidates:
            raise SystemExit(f"trace: no trace.jsonl under {target!r}")
    else:
        # Not a path: treat it as a job (or trace) id and search --dir.
        job_id = target
        candidates = _trace_files(args.dir)
        if not candidates:
            raise SystemExit(
                f"trace: {target!r} is neither a file nor a directory, and "
                f"no trace.jsonl was found under {args.dir!r} to search "
                f"for it as a job id (pass --dir)"
            )
    rendered: List[str] = []
    for trace_path in candidates:
        trees = build_trees(read_trace(trace_path, include_rotated=True))
        if job_id is not None:
            trees = [
                t for t in trees
                if t.trace_id == job_id
                or t.name == f"job {job_id}"
                or t.name.startswith(f"job {job_id} ")
            ]
        if trees:
            rendered = [render_tree(t, slow=args.slow) for t in trees]
            break  # newest trace file with a match wins
    if not rendered:
        raise SystemExit(
            "trace: no stitched trace"
            + (f" for job {job_id!r} under {args.dir!r}" if job_id is not None
               else f" in {target!r} (schema v1 file, or no spans yet?)")
        )
    print("\n\n".join(rendered))
    return 0


def cmd_top(args) -> int:
    """Live daemon view: poll /v1/stats and render summary frames."""
    import time as _time

    from .obs.render import render_top
    from .serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    prev = prev_at = None
    frames = 0
    clear = sys.stdout.isatty() and args.count != 1
    try:
        while True:
            try:
                stats = client.stats()
            except (ServeError, ConnectionError, OSError) as error:
                raise SystemExit(f"top: cannot reach {args.url}: {error}")
            now = _time.monotonic()
            dt = now - prev_at if prev_at is not None else None
            frame = render_top(stats, prev=prev, dt=dt)
            if clear:
                print("\x1b[2J\x1b[H", end="")
            elif frames:
                print()
            print(frame, flush=True)
            frames += 1
            if args.count and frames >= args.count:
                return 0
            prev, prev_at = stats, now
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _parse_rate_limits(entries) -> dict:
    limits = {}
    for entry in entries or ():
        tenant, sep, rate = entry.partition("=")
        try:
            if not sep or not tenant:
                raise ValueError
            limits[tenant] = float(rate)
        except ValueError:
            raise SystemExit(
                f"--rate-limit expects TENANT=CHUNKS_PER_SEC, got {entry!r}"
            )
    return limits


def cmd_serve(args) -> int:
    """Run the multi-tenant sweep daemon until SIGTERM/SIGINT."""
    from pathlib import Path

    from .serve.server import serve_forever
    from .serve.service import SweepService

    deadline = _positive_seconds(args, "deadline")
    cache_dir = _cache_dir(args) or DEFAULT_CACHE_DIR
    service = SweepService(
        jobs=args.jobs,
        cache_dir=cache_dir,
        deadline_s=deadline,
        observe=not args.no_obs,
        obs_dir=args.obs_dir,
        rate_limits=_parse_rate_limits(args.rate_limit),
    )
    port_file = Path(args.port_file) if args.port_file else None
    echo = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    return serve_forever(
        service, host=args.host, port=args.port, port_file=port_file,
        echo=echo,
    )


def cmd_submit(args) -> int:
    """Submit a sweep to a running daemon and (by default) wait for it."""
    import json as _json

    from .serve.client import ServeClient, ServeError

    payload = {"target": args.target, "options": {}}
    options = payload["options"]
    if args.fast:
        options["fast"] = True
    if args.full_grid:
        options["full_grid"] = True
    if args.defects:
        options["defects"] = _parse_defects(args.defects, ())
    if args.target == "mc":
        if args.samples is not None:
            options["samples"] = args.samples
        options.update(corner=args.corner, temp_c=args.temp,
                       seed=args.seed, shards=args.shards)

    client = ServeClient(args.url, tenant=args.tenant,
                         timeout=args.timeout)
    try:
        job = client.submit(payload)
        print(f"submitted {job['id']} ({job['total']} points, "
              f"{job['cache_hits']} cached, {job['deduped']} deduped) "
              f"as tenant {args.tenant!r}", file=sys.stderr)
        if args.no_wait:
            print(_json.dumps(job, sort_keys=True))
            return 0
        for event in client.stream(job["id"]):
            if args.verbose or event["event"] in ("state", "progress"):
                print(_json.dumps(event, sort_keys=True), file=sys.stderr)
        final = client.job(job["id"])
        print(_json.dumps(final, sort_keys=True))
    except ServeError as error:
        raise SystemExit(f"submit: {error}")
    except ConnectionError as error:
        raise SystemExit(f"submit: cannot reach {args.url}: {error}")
    if final["state"] == "interrupted":
        return EXIT_INTERRUPTED
    if getattr(args, "strict", False) and final["failures"]:
        return EXIT_STRICT
    return 0 if final["state"] == "done" else 1


def cmd_jobs(args) -> int:
    """List a daemon's jobs (optionally one tenant's)."""
    from .core.reporting import render_table
    from .serve.client import ServeClient, ServeError

    client = ServeClient(args.url, tenant=args.tenant or "default")
    try:
        jobs = client.jobs(tenant=args.tenant)
    except ServeError as error:
        raise SystemExit(f"jobs: {error}")
    except ConnectionError as error:
        raise SystemExit(f"jobs: cannot reach {args.url}: {error}")
    rows = [
        [
            job["id"], job["tenant"], job["name"], job["state"],
            f"{job['done']}/{job['total']}", str(job["cache_hits"]),
            str(job["deduped"]), str(job["failures"]),
        ]
        for job in jobs
    ]
    print(render_table(
        ["job", "tenant", "sweep", "state", "done", "cached", "deduped",
         "failed"],
        rows,
    ))
    return 0


def _add_run_flags(p: argparse.ArgumentParser, cache_help: str,
                   obs_default: str) -> None:
    """The execution flags ``serve`` shares with every campaign command."""
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes (default 1 = serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help=cache_help)
    p.add_argument("--resume", action="store_true",
                   help=f"shorthand for --cache-dir {DEFAULT_CACHE_DIR}")
    p.add_argument("--no-obs", action="store_true",
                   help="disable solver/campaign instrumentation")
    p.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="where report.json/trace.jsonl go "
                        f"(default: {obs_default})")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-task deadline: tasks over budget are recorded "
                        "as timeouts instead of stalling the sweep")


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p, "persist per-point results for cache-hit skip / resume",
                   "the cache directory")
    p.add_argument("--verbose", action="store_true",
                   help="stream per-chunk campaign progress to stderr")
    p.add_argument("--strict", action="store_true",
                   help=f"exit {EXIT_STRICT} if any task failed, crashed "
                        "or timed out")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="inject deterministic faults, e.g. "
                        "'crash:0.1,hang:0.05,transient:0.1' "
                        "(testing the engine, not the physics)")
    p.add_argument("--compact-cache", action="store_true",
                   help="after the run, rewrite the result cache down to "
                        "live records for the current fingerprint")


def _add_target_flags(p: argparse.ArgumentParser, target_help: str) -> None:
    """The sweep target and grid options ``campaign`` and ``submit`` share."""
    p.add_argument("target", choices=sorted(CAMPAIGN_TARGETS),
                   help=target_help)
    p.add_argument("--fast", action="store_true",
                   help="minimal PVT grid / defect set")
    p.add_argument("--full-grid", action="store_true",
                   help="the paper's complete 45-condition PVT grid")
    p.add_argument("--defects", help="comma-separated defect numbers")


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="sampled cell population (default 100, 16 with --fast)")
    p.add_argument("--corner", default="typical", help="process corner")
    p.add_argument("--temp", type=float, default=25.0, help="temperature (C)")
    p.add_argument("--seed", type=int, default=1,
                   help="RNG seed; shard generators spawn from (seed, shard)")
    p.add_argument("--shards", type=_positive_int, default=4,
                   help="population shards (fixed, independent of --jobs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Test Solution for Data Retention Faults in "
                    "Low-Power SRAMs' (DATE 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, defects=False, campaign=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--fast", action="store_true",
                       help="minimal PVT grid / defect set")
        if defects:
            p.add_argument("--defects", help="comma-separated defect numbers")
        if campaign:
            _add_campaign_flags(p)
        p.set_defaults(func=func)
        return p

    add("table1", cmd_table1, "Table I: case-study DRV ladder")
    add("table2", cmd_table2, "Table II: minimal DRF-causing resistances",
        defects=True, campaign=True)
    add("table3", cmd_table3, "Table III: optimised test flow",
        defects=True, campaign=True)
    add("fig4", cmd_fig4, "Fig. 4: DRV vs per-transistor Vth variation",
        campaign=True)
    mc = add("mc", cmd_mc, "Monte Carlo DRV distribution (sharded campaign)",
             campaign=True)
    _add_mc_flags(mc)
    macro = add(
        "macro", cmd_macro,
        "array-scale macro: vectorized March m-LZ escape map, one task "
        "per bank",
        campaign=True,
    )
    # Literal defaults mirror analysis.macro's MACRO_* constants (the
    # parser stays import-free; tests/test_cli.py pins the equivalence).
    macro.add_argument("--words", type=_positive_int, default=None,
                       help="macro word count (default 4096, 256 with --fast)")
    macro.add_argument("--bits", type=_positive_int, default=64,
                       help="bits per word (default 64)")
    macro.add_argument("--banks", type=_positive_int, default=None,
                       help="equal banks = campaign tasks "
                            "(default 8, 2 with --fast)")
    macro.add_argument("--seed", type=int, default=1,
                       help="mismatch-map seed (feeds the campaign "
                            "fingerprint)")
    macro.add_argument("--buckets", type=_positive_int, default=None,
                       help="DRV quantile buckets per bank "
                            "(default 16, 4 with --fast)")
    macro.add_argument("--vddcc", type=float, default=0.05,
                       help="deep-sleep array supply during DSM (V)")
    macro.add_argument("--ds-time", type=float, default=1e-3,
                       help="test DS time per sleep (s)")
    macro.add_argument("--mission-time", type=float, default=1.0,
                       help="field sleep duration for escape classification "
                            "(s)")
    macro.add_argument("--corner", default="typical",
                       help="process corner (default: the cold-leakage "
                            "typical corner)")
    macro.add_argument("--temp", type=float, default=-40.0,
                       help="temperature (C; cold maximises flip times)")
    add("power", cmd_power, "Section IV.B static-power comparison")
    add("classify", cmd_classify, "Defect taxonomy from Vreg signatures",
        defects=True)

    camp = sub.add_parser(
        "campaign",
        help="run any sweep target through the campaign engine",
    )
    _add_target_flags(camp, "which artifact sweep to run")
    _add_campaign_flags(camp)
    _add_mc_flags(camp)
    camp.set_defaults(func=cmd_campaign)

    verify = sub.add_parser(
        "verify",
        help="paper-fidelity gate: golden artifacts + differential "
             "backend fuzzing",
    )
    verify.add_argument(
        "--tier", choices=("tiny", "fast", "full"), default="fast",
        help="artifact scope (default: fast; tiny is the test-suite scope)",
    )
    verify.add_argument("--fast", action="store_true",
                        help="alias for --tier fast (the default)")
    verify.add_argument("--full", action="store_true",
                        help="alias for --tier full (the paper's scopes)")
    verify.add_argument("--regen", action="store_true",
                        help="rewrite the tier's goldens instead of "
                             "comparing (review the diff!)")
    verify.add_argument("--artifacts", default=None, metavar="A,B",
                        help="restrict to a comma-separated artifact subset "
                             "(table1,table2,table3,fig4,march)")
    verify.add_argument("--goldens-dir", default=None, metavar="DIR",
                        help="golden store (default: <repo>/goldens)")
    verify.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="run N differential backend fuzz cases "
                             "after the golden checks")
    verify.add_argument("--fuzz-seed", type=int, default=0, metavar="S",
                        help="base seed of the fuzz campaign (default 0)")
    verify.add_argument("--fuzz-repro", default=None, metavar="FILE",
                        help="re-run one dumped fuzz repro file and exit")
    verify.add_argument("--repro-dir", default=None, metavar="DIR",
                        help="where shrunk failing netlists are dumped")
    verify.add_argument("--json", default=None, metavar="PATH",
                        help="also write the verify report as JSON")
    verify.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the artifact sweeps")
    verify.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="campaign result cache for the artifact sweeps")
    verify.set_defaults(func=cmd_verify)

    stats = sub.add_parser(
        "stats",
        help="render a campaign run report (report.json) as text",
    )
    stats.add_argument(
        "report", nargs="?", default=DEFAULT_CACHE_DIR,
        help="report.json path, or a directory containing one "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    stats.add_argument("--top", type=_positive_int, default=10, metavar="N",
                       help="how many slowest task points to show")
    stats.add_argument("--json", action="store_true",
                       help="print the raw report.json instead of rendering")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="render stitched distributed-trace trees "
             "(critical path marked with *)",
    )
    trace.add_argument(
        "target", nargs="?", default=DEFAULT_CACHE_DIR,
        help="trace.jsonl path, a directory containing one, or a job id "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    trace.add_argument("--dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help="where to search for trace files when the "
                            f"target is a job id (default: "
                            f"{DEFAULT_CACHE_DIR})")
    trace.add_argument("--slow", type=float, default=None, metavar="SECONDS",
                       help="hide spans faster than this threshold "
                            "(ancestors of slow spans are kept)")
    trace.set_defaults(func=cmd_trace)

    top = sub.add_parser(
        "top",
        help="live daemon view: queue depths, tenant rates, pump health",
    )
    top.add_argument("--url",
                     default=f"http://127.0.0.1:{DEFAULT_SERVE_PORT}",
                     help="daemon base URL")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="seconds between polls (default 2)")
    top.add_argument("--count", type=int, default=0, metavar="N",
                     help="render N frames then exit (0 = until Ctrl-C)")
    top.set_defaults(func=cmd_top)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant sweep service (HTTP/JSON job daemon)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                       help=f"TCP port (default {DEFAULT_SERVE_PORT}; "
                            f"0 = pick a free one)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(for scripts using --port 0)")
    _add_run_flags(serve,
                   f"shared result cache (default: {DEFAULT_CACHE_DIR})",
                   "<cache-dir>/serve")
    serve.add_argument("--rate-limit", action="append", default=None,
                       metavar="TENANT=N",
                       help="cap a tenant at N chunk dispatches/sec "
                            "(repeatable)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running daemon and stream its progress",
    )
    _add_target_flags(submit, "which artifact sweep to request")
    submit.add_argument("--url",
                        default=f"http://127.0.0.1:{DEFAULT_SERVE_PORT}",
                        help="daemon base URL")
    submit.add_argument("--tenant", default="default",
                        help="tenant name for fair share and accounting")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately")
    submit.add_argument("--verbose", action="store_true",
                        help="stream every event, not just state/progress")
    submit.add_argument("--strict", action="store_true",
                        help=f"exit {EXIT_STRICT} if any point failed")
    submit.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="per-request HTTP timeout (default 30); "
                             "transport errors retry with backoff")
    _add_mc_flags(submit)
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser("jobs", help="list a running daemon's jobs")
    jobs.add_argument("--url",
                      default=f"http://127.0.0.1:{DEFAULT_SERVE_PORT}",
                      help="daemon base URL")
    jobs.add_argument("--tenant", default=None,
                      help="restrict to one tenant's jobs")
    jobs.set_defaults(func=cmd_jobs)

    run = sub.add_parser("run-march", help="run a March test on a behavioral SRAM")
    run.add_argument("test", help="library name (e.g. 'March m-LZ') or notation")
    run.add_argument("--words", type=int, default=64)
    run.add_argument("--bits", type=int, default=8)
    run.add_argument("--vddcc", type=float, default=None,
                     help="array supply during DSM operations (V)")
    run.set_defaults(func=cmd_run_march)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
