"""Command-line interface: ``python -m repro <command>``.

Gives instructors and students the whole toolkit without writing Python:

* ``list`` — enumerate the patternlet catalog;
* ``run <paradigm> <name>`` — run one patternlet and show its trace;
* ``analyze <name>`` — run a patternlet under the happens-before race
  detector (openmp) or the MPI correctness checker (mpi) and report
  diagnostics (``--json`` for machine-readable output);
* ``lint <path|patternlet> ...`` — pdclint, the static analyzer: AST rules
  over learner Python plus ``#pragma omp`` checks on the C listings,
  without running anything (``--select``/``--ignore`` filter rules);
* ``notebook [colab|chameleon]`` — execute a notebook, optionally exporting
  the executed ``.ipynb``;
* ``handout`` — render the Raspberry Pi virtual handout (text or HTML);
* ``bench`` — run real wall-clock benchmarks (warmup/repeat control,
  schema-versioned JSON results, regression gate vs a committed baseline);
* ``serve`` — boot the multi-tenant course platform over HTTP (class-code
  join, cached module reads, graded submissions, instructor gradebooks,
  ``/healthz``/``/readyz``/``/metricz``);
* ``serve-load`` — drive thousands of simulated learners through the
  in-process server, closed loop, and report throughput + p50/p99 latency;
* ``trace <name>`` — run a patternlet or exemplar under the ``repro.obs``
  event bus and report lanes, wait attribution, and message traffic
  (``--chrome out.json`` exports a Perfetto-loadable timeline);
* ``explore <name>`` — systematically explore thread schedules (openmp)
  or injected fault plans (mpi) for a patternlet, cross-validated against
  the analysis engines; ``--replay TOKEN`` reproduces one schedule or
  fault plan deterministically, ``--repro-dir`` writes minimized repros;
* ``study <exemplar> <platform>`` — print a platform scaling study;
* ``report`` — regenerate the paper's evaluation artifacts (Tables I-II,
  Figures 3-4, workshop findings);
* ``mpirun -np N <script.py>`` — run a Python script SPMD on the
  in-process runtime.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hands-on PDC teaching materials (EduPar 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the patternlet catalog")
    p_list.add_argument("paradigm", nargs="?", choices=("openmp", "mpi"))

    p_run = sub.add_parser("run", help="run one patternlet")
    p_run.add_argument("paradigm", choices=("openmp", "mpi"))
    p_run.add_argument("name")
    p_run.add_argument("--np", type=int, default=4, dest="nprocs",
                       help="processes (mpi) / threads (openmp)")
    p_run.add_argument("--source", action="store_true",
                       help="print the patternlet's code listing instead")

    p_analyze = sub.add_parser(
        "analyze",
        help="run a patternlet under the race detector / MPI checker",
    )
    p_analyze.add_argument("name", help="patternlet to analyze")
    p_analyze.add_argument("--paradigm", choices=("openmp", "mpi"),
                           help="disambiguate when both runtimes have the name")
    p_analyze.add_argument("--np", type=int, default=None, dest="nprocs",
                           help="processes (mpi) / threads (openmp)")
    p_analyze.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the report as JSON instead of text")

    p_lint = sub.add_parser(
        "lint",
        help="static-analyze learner code with pdclint (no execution)",
    )
    p_lint.add_argument(
        "targets", nargs="+", metavar="path|patternlet",
        help="files/directories to lint, a patternlet name, or the special "
             "target 'clistings' (C-listing consistency check)",
    )
    p_lint.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON instead of text")
    p_lint.add_argument("--format", choices=("text", "json", "github"),
                        default=None,
                        help="output format (github: ::error/::warning "
                             "workflow annotations for CI)")
    p_lint.add_argument("--select", metavar="IDS",
                        help="comma-separated rule ids to run (default: all)")
    p_lint.add_argument("--ignore", metavar="IDS",
                        help="comma-separated rule ids to skip")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="ratchet mode: findings fingerprinted in FILE "
                             "are reported as suppressed, only new ones fail")
    p_lint.add_argument("--update-baseline", metavar="FILE",
                        dest="update_baseline",
                        help="write the current findings to FILE as the "
                             "accepted baseline and exit 0")
    p_lint.add_argument("--seed-explore", action="store_true",
                        dest="seed_explore",
                        help="also emit racy/deadlock exploration hints "
                             "(JSON key 'explore_hints')")
    p_lint.add_argument("--cost", action="store_true",
                        help="enable the scalability rules PDC120-PDC122 "
                             "(static cost analysis of every SPMD body)")
    p_lint.add_argument("--cost-report", metavar="FILE", dest="cost_report",
                        help="write the per-file cost models (message/byte "
                             "polynomials, work profiles) as JSON to FILE")
    p_lint.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint files with N worker processes "
                             "(output is byte-identical to serial)")
    p_lint.add_argument("--cache", action="store_true",
                        help="reuse per-file results keyed by content hash "
                             "(see --cache-dir)")
    p_lint.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                        default=".pdclint_cache",
                        help="cache location for --cache "
                             "(default: .pdclint_cache)")

    p_nb = sub.add_parser("notebook", help="execute a teaching notebook")
    p_nb.add_argument("which", nargs="?", default="colab",
                      choices=("colab", "chameleon"))
    p_nb.add_argument("--np", type=int, default=4, dest="nprocs")
    p_nb.add_argument("--export", metavar="PATH",
                      help="write the executed notebook as .ipynb")

    p_handout = sub.add_parser("handout", help="render the Pi virtual handout")
    p_handout.add_argument("--html", metavar="PATH",
                           help="write HTML to PATH instead of printing text")
    p_handout.add_argument("--section", metavar="N.M",
                           help="render just one section (e.g. 2.3)")

    p_bench = sub.add_parser(
        "bench",
        help="run wall-clock benchmarks with a baseline regression gate",
    )
    p_bench.add_argument(
        "names", nargs="*", metavar="bench",
        help="benchmarks to run (default: all; see --list)",
    )
    p_bench.add_argument("--list", action="store_true", dest="list_benches",
                         help="list registered benchmarks and exit")
    p_bench.add_argument("--quick", action="store_true",
                         help="small problem sizes (CI smoke runs)")
    p_bench.add_argument("--warmup", type=int, default=1,
                         help="warmup runs per benchmark (default 1)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="timed runs per benchmark; best is kept (default 3)")
    p_bench.add_argument("--backend", default="threads",
                         choices=("threads", "processes"),
                         help="execution backend for the parallel kernels")
    p_bench.add_argument("--out", metavar="PATH",
                         help="result JSON path (default benchmarks/results/)")
    p_bench.add_argument("--baseline", metavar="PATH",
                         help="baseline JSON (default benchmarks/baseline.json)")
    p_bench.add_argument("--threshold", type=float, default=0.30,
                         help="regression gate as a fraction (default 0.30)")
    p_bench.add_argument("--update-baseline", action="store_true",
                         dest="update_baseline",
                         help="write this run as the new baseline (no gate)")
    p_bench.add_argument("--allow-quick-baseline", action="store_true",
                         dest="allow_quick_baseline",
                         help="let --update-baseline accept a --quick run "
                              "(refused by default: smoke sizes are noisy)")
    p_bench.add_argument("--serialization-report", metavar="PATH",
                         dest="serialization_report",
                         help="also write the per-benchmark pickled-bytes "
                              "report (the zero-copy audit CI uploads)")
    p_bench.add_argument("--trace", action="store_true",
                         help="also record each benchmark on the repro.obs "
                              "event bus and write Chrome traces")

    p_trace = sub.add_parser(
        "trace",
        help="profile a patternlet or exemplar on the repro.obs event bus",
    )
    p_trace.add_argument("name", help="patternlet or exemplar to trace")
    p_trace.add_argument("--paradigm", choices=("openmp", "mpi"),
                         help="disambiguate when both runtimes have the name")
    p_trace.add_argument("--np", type=int, default=None, dest="nprocs",
                         help="processes (mpi) / threads (openmp)")
    p_trace.add_argument("--backend", choices=("threads", "processes"),
                         help="execution backend for both runtimes")
    p_trace.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the profile report as JSON")
    p_trace.add_argument("--chrome", metavar="PATH",
                         help="write a Chrome trace-event JSON (Perfetto)")
    p_trace.add_argument("--timeline", action="store_true",
                         help="append the ASCII timeline to the report")

    p_explore = sub.add_parser(
        "explore",
        help="explore schedules (openmp) / fault plans (mpi) for a patternlet",
    )
    p_explore.add_argument("name", help="patternlet to explore")
    p_explore.add_argument("--paradigm", choices=("openmp", "mpi"),
                           help="disambiguate when both runtimes have the name")
    p_explore.add_argument("--seed", type=int, default=0,
                           help="seed for random strategies and fault plans")
    p_explore.add_argument("--schedules", type=int, default=24,
                           help="schedule / fault-plan budget (default 24)")
    p_explore.add_argument("--strategy", default="dfs",
                           choices=("dfs", "random", "rr"),
                           help="schedule search strategy (openmp targets)")
    p_explore.add_argument("--preemption-bound", type=int, default=2,
                           dest="preemption_bound",
                           help="max preemptions per schedule in dfs (default 2)")
    p_explore.add_argument("--faults", metavar="PLAN",
                           help="fault plan for mpi targets: 'random' or e.g. "
                                "'drop:src=0,dst=1,nth=1;crash:rank=1,at=1'")
    p_explore.add_argument("--replay", metavar="TOKEN",
                           help="replay one o1./f1. token twice and verify "
                                "the outcome is identical")
    p_explore.add_argument("--np", type=int, default=None, dest="nprocs",
                           help="processes (mpi) / threads (openmp)")
    p_explore.add_argument("--seed-from-lint", action="store_true",
                           dest="seed_from_lint",
                           help="lint the target first and use the static "
                                "racy/deadlock hints to prioritize schedules")
    p_explore.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the result as JSON instead of text")
    p_explore.add_argument("--repro-dir", metavar="DIR", dest="repro_dir",
                           help="write minimized repro bundle + timeline here")

    p_serve = sub.add_parser(
        "serve",
        help="serve the course platform over HTTP (join/read/submit/gradebook)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--persist", choices=("memory", "jsonl"),
                         default="memory",
                         help="progress persistence backend (default memory)")
    p_serve.add_argument("--data-dir", metavar="DIR", dest="data_dir",
                         default="serve-data",
                         help="JSONL log directory for --persist jsonl")
    p_serve.add_argument("--cache-capacity", type=int, default=64,
                         dest="cache_capacity",
                         help="rendered-module LRU entries (default 64)")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         dest="max_inflight",
                         help="concurrent requests before queuing (default 8)")
    p_serve.add_argument("--max-queue", type=int, default=32,
                         dest="max_queue",
                         help="queued requests before 503 shedding (default 32)")
    p_serve.add_argument("--deadline", type=float, default=2.0,
                         help="per-request deadline in seconds (default 2.0)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each request to stderr")

    p_load = sub.add_parser(
        "serve-load",
        help="drive simulated learners through the in-process course server",
    )
    p_load.add_argument("--learners", type=int, default=1000,
                        help="simulated learners (default 1000)")
    p_load.add_argument("--workers", type=int, default=8,
                        help="closed-loop client threads (default 8)")
    p_load.add_argument("--reads", type=int, default=2,
                        help="module reads per learner (default 2)")
    p_load.add_argument("--submit-questions", type=int, default=3,
                        dest="submit_questions",
                        help="questions each learner answers (default 3)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--max-inflight", type=int, default=8,
                        dest="max_inflight",
                        help="server concurrency limit under test (default 8)")
    p_load.add_argument("--max-queue", type=int, default=32, dest="max_queue",
                        help="server queue bound under test (default 32)")
    p_load.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON instead of text")
    p_load.add_argument("--out", metavar="PATH",
                        help="also write the JSON latency report to PATH "
                             "(the artifact CI uploads)")

    p_study = sub.add_parser("study", help="platform scaling study")
    p_study.add_argument(
        "exemplar",
        choices=("integration", "forestfire", "drugdesign", "heat", "sorting"),
    )
    p_study.add_argument("platform")

    sub.add_parser("report", help="regenerate the paper's evaluation artifacts")

    p_validate = sub.add_parser(
        "validate", help="lint a teaching module's content"
    )
    p_validate.add_argument(
        "module", nargs="?", default="all",
        choices=("raspberry-pi", "distributed", "all"),
    )

    p_mpirun = sub.add_parser("mpirun", help="run a script SPMD in-process")
    p_mpirun.add_argument("-np", "--np", type=int, default=4, dest="nprocs")
    p_mpirun.add_argument("script")
    p_mpirun.add_argument("args", nargs="*")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from .patternlets import all_patternlets

    for p in all_patternlets(args.paradigm):
        print(f"{p.paradigm:6s} {p.order:02d}  {p.name:22s} {p.pattern}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .patternlets import get_patternlet

    patternlet = get_patternlet(args.paradigm, args.name)
    if args.source:
        print(patternlet.source)
        return 0
    kwargs = {"np": args.nprocs} if args.paradigm == "mpi" else {
        "num_threads": args.nprocs
    }
    if args.name == "allreduceArrays":
        kwargs = {"np_procs": args.nprocs}
    try:
        result = patternlet.run(**kwargs)
    except TypeError:
        result = patternlet.run()
    print(result.text or "(no trace)")
    print()
    for key, value in result.values.items():
        print(f"  {key} = {value}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze, emit_report

    try:
        report = analyze(args.name, paradigm=args.paradigm, nprocs=args.nprocs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return emit_report(report, args.as_json)


def _write_cost_report(targets: list[str], out_path: str) -> None:
    """Dump per-file cost models for every Python file in ``targets``."""
    import json
    from pathlib import Path

    from .analysis.lint.engine import _collect_files
    from .analysis.scale.cost import cost_report

    files: list[Path] = []
    for raw in targets:
        path = Path(raw)
        if path.is_dir():
            files.extend(p for p in _collect_files(path)
                         if p.suffix == ".py")
        elif path.is_file() and path.suffix == ".py":
            files.append(path)
    reports = []
    for file in files:
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        rep = cost_report(text, str(file))
        if rep.models or rep.notes:
            reports.append(rep.to_dict())
    Path(out_path).write_text(json.dumps(
        {"engine": "pdclint-cost", "files": reports}, indent=2))
    print(f"cost report written to {out_path} "
          f"({len(reports)} file(s) with SPMD bodies)")


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis import emit_report, lint_targets
    from .analysis.lint.baseline import (
        apply_baseline,
        explore_hints,
        load_baseline,
        render_github,
        write_baseline,
    )

    from pathlib import Path

    enable = ["PDC120", "PDC121", "PDC122"] if args.cost else None
    use_driver = (args.jobs > 1 or args.cache) and all(
        Path(t).exists() for t in args.targets)
    try:
        if use_driver:
            from .analysis.scale.driver import lint_corpus

            corpus = lint_corpus(
                args.targets, jobs=args.jobs,
                cache_dir=args.cache_dir if args.cache else None,
                select=args.select, ignore=args.ignore, enable=enable)
            report = corpus.report
            stats = corpus.stats
            print(f"pdclint: {stats['files']} file(s), "
                  f"{stats['cache_hits']} cached, "
                  f"{stats['cache_misses']} linted, jobs={stats['jobs']}",
                  file=sys.stderr)
        else:
            report = lint_targets(args.targets, select=args.select,
                                  ignore=args.ignore, enable=enable)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.cost_report:
        _write_cost_report(args.targets, args.cost_report)
    if args.update_baseline:
        delta = write_baseline(report, args.update_baseline)
        print(f"pdclint baseline written to {delta.path} ({delta.summary()})")
        return 0
    if args.baseline:
        try:
            apply_baseline(report, load_baseline(args.baseline))
        except (OSError, ValueError) as exc:
            print(f"bad baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    fmt = args.format or ("json" if args.as_json else "text")
    if fmt == "github":
        print(render_github(report))
        return 1 if report.errors else 0
    if fmt == "json":
        payload = report.to_dict()
        if args.seed_explore:
            payload["explore_hints"] = explore_hints(report)
        print(json.dumps(payload, indent=2))
        return 1 if report.errors else 0
    code = emit_report(report, False)
    if args.seed_explore:
        hints = explore_hints(report)
        print(f"explore hints: {len(hints['racy'])} racy, "
              f"{len(hints['deadlock'])} deadlock "
              "(feed to `repro explore <target> --seed-from-lint`)")
    return code


def _cmd_notebook(args: argparse.Namespace) -> int:
    from .runestone import build_chameleon_notebook, build_mpi_colab_notebook

    builder = (
        build_mpi_colab_notebook if args.which == "colab" else build_chameleon_notebook
    )
    notebook = builder(np=args.nprocs)
    results = notebook.run_all()
    failures = 0
    for result in results:
        cell = notebook.cells[result.cell_index]
        if result.kind == "markdown":
            print(f"\n--- {cell.source.splitlines()[0]} ---")
        elif result.ok:
            if result.stdout:
                print(result.stdout)
        else:
            failures += 1
            print(f"[cell {result.cell_index}] ERROR: {result.error}",
                  file=sys.stderr)
    if args.export:
        path = notebook.save_ipynb(args.export, results)
        print(f"\nexecuted notebook written to {path}")
    return 1 if failures else 0


def _cmd_handout(args: argparse.Namespace) -> int:
    from .runestone import (
        build_raspberry_pi_module,
        render_html,
        render_section_text,
        render_text,
    )

    module = build_raspberry_pi_module()
    if args.html:
        Path(args.html).write_text(render_html(module))
        print(f"handout written to {args.html}")
        return 0
    if args.section:
        print(render_section_text(module.find_section(args.section)))
        return 0
    print(render_text(module))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import main as bench_main

    return bench_main(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import CourseApp, demo_registry, serve_forever

    registry = demo_registry(
        backend=args.persist,
        data_dir=args.data_dir,
    )
    app = CourseApp(
        registry,
        cache_capacity=args.cache_capacity,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        deadline_s=args.deadline,
    )
    if app.replayed_records:
        print(f"replayed {app.replayed_records} progress record(s) "
              f"from {args.data_dir}")
    try:
        serve_forever(app, args.host, args.port, verbose=args.verbose)
    finally:
        app.close()
    return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    import json

    from .serve import CourseApp, run_load

    app = CourseApp(
        metrics_name=None,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )
    report = run_load(
        app,
        learners=args.learners,
        workers=args.workers,
        reads=args.reads,
        submit_questions=args.submit_questions,
        seed=args.seed,
    )
    app.close()
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"latency report written to {out}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .core import run_exemplar_study

    run = run_exemplar_study(args.exemplar, args.platform)
    print(run.study.format_table())
    print(f"\n{run.learner_takeaway()}")
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    from .assessment import figure3, figure4, table2
    from .core import simulate_workshop
    from .kits import render_table1

    print(render_table1())
    print()
    print(table2().render())
    print()
    print(figure3().render())
    print()
    print(figure4().render())
    print()
    report = simulate_workshop()
    for finding in report.headline_findings():
        print(f"- {finding}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .runestone import (
        build_distributed_module,
        build_raspberry_pi_module,
        validate_module,
    )

    builders = {
        "raspberry-pi": [build_raspberry_pi_module],
        "distributed": [build_distributed_module],
        "all": [build_raspberry_pi_module, build_distributed_module],
    }[args.module]
    worst = 0
    for builder in builders:
        module = builder()
        findings = validate_module(module, run_activities=True)
        if findings:
            print(f"{module.slug}: {len(findings)} finding(s)")
            for finding in findings:
                print(f"  {finding}")
            if any(f.level == "error" for f in findings):
                worst = 1
        else:
            print(f"{module.slug}: clean")
    return worst


def _cmd_mpirun(args: argparse.Namespace) -> int:
    from .mpi import run_script

    source = Path(args.script).read_text()
    result = run_script(
        source, args.nprocs, script_name=args.script, argv=args.args
    )
    print(result.stdout)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        profile_report,
        render_text,
        render_timeline,
        trace_target,
        write_chrome_trace,
    )

    try:
        profile, _result = trace_target(
            args.name,
            paradigm=args.paradigm,
            nprocs=args.nprocs,
            backend=args.backend,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(profile_report(profile), indent=2))
    else:
        print(render_text(profile))
        if args.timeline:
            print(render_timeline(profile))
    if args.chrome:
        out = write_chrome_trace(args.chrome, profile)
        print(f"chrome trace written to {out}", file=sys.stderr)
    if not profile.lanes:
        print("no events were recorded", file=sys.stderr)
        return 1
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import json

    from .testkit import explore_target, replay_faults, replay_schedule

    if args.replay:
        try:
            replay = replay_schedule if args.replay.startswith("o1.") else replay_faults
            first = replay(args.name, args.replay, paradigm=args.paradigm,
                           nprocs=args.nprocs)
            second = replay(args.name, args.replay, paradigm=args.paradigm,
                            nprocs=args.nprocs)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        identical = first.to_dict() == second.to_dict()
        payload = {
            "replay": args.replay,
            "deterministic": identical,
            "outcome": first.to_dict(),
        }
        if args.as_json:
            print(json.dumps(payload, indent=2))
        else:
            verdict = "deterministic" if identical else "NONDETERMINISTIC"
            print(f"replay {args.replay}: {verdict}")
            for key, value in first.to_dict().items():
                print(f"  {key} = {value}")
        if not identical:
            return 1
        return 1 if first.flagged else 0

    seed_hints = None
    if args.seed_from_lint:
        from .analysis.lint.baseline import explore_hints
        from .analysis.lint.engine import lint_patternlet

        try:
            seed_hints = explore_hints(
                lint_patternlet(args.name, args.paradigm))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(f"seeded from lint: {len(seed_hints['racy'])} racy, "
              f"{len(seed_hints['deadlock'])} deadlock hint(s)",
              file=sys.stderr)

    try:
        result = explore_target(
            args.name,
            paradigm=args.paradigm,
            seed=args.seed,
            max_schedules=args.schedules,
            strategy=args.strategy,
            preemption_bound=args.preemption_bound,
            faults=args.faults,
            nprocs=args.nprocs,
            with_timeline=args.repro_dir is not None,
            seed_hints=seed_hints,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps(result.to_dict(), indent=2) if args.as_json
          else result.render())
    if args.repro_dir and result.minimized:
        out = Path(args.repro_dir)
        out.mkdir(parents=True, exist_ok=True)
        bundle = out / f"{args.name}-repro.json"
        bundle.write_text(json.dumps({
            "target": result.target,
            "token": result.minimized,
            "replay": f"repro explore {args.name} --replay {result.minimized}",
            "seed": result.seed,
            "strategy": result.strategy,
        }, indent=2) + "\n")
        print(f"minimized repro written to {bundle}", file=sys.stderr)
        if result.timeline:
            tl = out / f"{args.name}-timeline.txt"
            tl.write_text(result.timeline + "\n")
            print(f"timeline written to {tl}", file=sys.stderr)
    if not result.agreement:
        print("warning: explorer and analyzer verdicts disagree",
              file=sys.stderr)
    return 1 if result.flagged else 0


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "notebook": _cmd_notebook,
    "handout": _cmd_handout,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "serve-load": _cmd_serve_load,
    "trace": _cmd_trace,
    "explore": _cmd_explore,
    "study": _cmd_study,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "mpirun": _cmd_mpirun,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:  # output piped into head/less that closed early
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
