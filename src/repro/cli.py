"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list                   # what can I run?
    python -m repro fig3                   # regenerate Figure 3
    python -m repro fig7 --full            # publication-sized run
    python -m repro validation             # the §4.2 table
    python -m repro cutoff --cloud-rtt 24  # quick analytic cutoff query
    python -m repro sensitivity            # cutoff sensitivity sweeps
    python -m repro dump --out results     # one result envelope per figure
    python -m repro campaign camp.yaml     # declarative scenario campaign
    python -m repro serve --port 8000      # HTTP/SSE campaign service

Every experiment command (and ``report`` / ``dump``) accepts
``--telemetry PATH``: a :mod:`repro.obs` factory is installed for the
run, so each simulation the experiment builds streams windowed records
and a run summary to ``PATH`` as JSON lines (validated by
``python -m repro.obs.schema PATH``).

They also accept ``--workers N`` (default ``$REPRO_WORKERS`` or 1):
independent simulation runs inside the experiment fan out across N
processes via :mod:`repro.parallel`, with results bit-identical to the
sequential run.  ``--telemetry`` and ``--workers > 1`` are mutually
exclusive — see ``docs/performance.md``.

``--checkpoint PATH`` journals the sweep-shaped experiments to a
crash-safe run store (:mod:`repro.experiments.store`): a run killed at
any point — worker crash, Ctrl-C, OOM — rerun with the same flags
replays completed tasks from disk and finishes bit-identically to an
uninterrupted run.  ``--resume`` additionally requires the journal to
already exist (a guard against typos).  See ``docs/robustness.md``.

``--check-invariants`` (or ``REPRO_CHECK=1`` in the environment) turns
on the runtime invariant checker (:mod:`repro.analysis.invariants`):
virtual-time monotonicity, request conservation and non-negative
occupancy are asserted during the run.  Checks are for debugging and
CI — results are unchanged, only failures become loud.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import count
from pathlib import Path

from repro.experiments.config import FAST, FULL, ExperimentConfig
from repro.experiments.result import available, get_spec, run_experiment
from repro.parallel import resolve_workers

__all__ = ["main"]


def _cmd_list() -> int:
    print("available experiments:")
    specs = available()
    width = max(len(s.name) for s in specs)
    for spec in specs:
        print(f"  {spec.name:<{width}}  {spec.description}")
    print("\nother commands: cutoff (analytic query), sensitivity, dump, list")
    return 0


def _cmd_sensitivity() -> int:
    from repro.core.scenarios import TYPICAL_CLOUD
    from repro.experiments.sensitivity import (
        cutoff_vs_cores,
        cutoff_vs_delta_n,
        cutoff_vs_service_cv2,
        cutoff_vs_sites,
    )

    sweeps = {
        "cores": cutoff_vs_cores(TYPICAL_CLOUD),
        "service cv^2": cutoff_vs_service_cv2(TYPICAL_CLOUD),
        "sites (k)": cutoff_vs_sites(TYPICAL_CLOUD),
        "cloud RTT (ms)": cutoff_vs_delta_n(TYPICAL_CLOUD),
    }
    print("analytic inversion-cutoff sensitivity (typical-cloud scenario)")
    for label, rows in sweeps.items():
        print(f"\n{label}:")
        print(f"  {'value':>8} {'mean cutoff':>12} {'p95 cutoff':>11}")
        for r in rows:
            print(f"  {r.value:>8g} {r.mean_cutoff:>12.2f} {r.tail_cutoff:>11.2f}")
    return 0


def _cmd_dump(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """``repro dump``: save each figure's ``experiment-result`` envelope."""
    figures = [s.name for s in available() if s.name.startswith("fig")]
    names = args.figures.split(",") if args.figures else figures
    unknown = [n for n in names if n not in figures]
    if unknown:
        raise ValueError(f"unknown figures: {unknown}; known: {figures}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = run_experiment(name, cfg).save(out / f"{name}.json")
        print(f"wrote {name} -> {path}")
    return 0


def _cmd_cutoff(args: argparse.Namespace) -> int:
    from repro.core.comparator import EdgeCloudComparator
    from repro.core.scenarios import Scenario
    from repro.core.tail import cutoff_utilization_tail

    scenario = Scenario(
        name=f"cli ({args.cloud_rtt} ms cloud)",
        cloud_rtt_ms=args.cloud_rtt,
        edge_rtt_ms=args.edge_rtt,
        sites=args.sites,
        machines_per_site=args.machines,
    )
    cmp_ = EdgeCloudComparator(scenario)
    mean_cut = cmp_.predict_cutoff_utilization()
    tail_cut = cutoff_utilization_tail(
        scenario.delta_n,
        scenario.service.core_service_rate,
        scenario.edge_servers_per_site,
        scenario.cloud_servers,
        q=0.95,
    )
    print(f"scenario: {scenario.name}, k={scenario.cloud_machines} machines")
    print(f"analytic mean-latency cutoff utilization: {mean_cut:.2f}")
    print(f"analytic p95-latency  cutoff utilization: {tail_cut:.2f}")
    print(
        f"-> keep per-site utilization below {min(mean_cut, tail_cut):.0%} "
        "to avoid any inversion"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """``repro validate FILE...``: fail-fast campaign validation.

    Exit codes: 0 valid, 3 parse error, 4 schema error, 5 semantic
    error (2 stays argparse's usage-error code).  With several files the
    first failing file's code wins; every file is still checked.
    """
    from repro.campaign import CampaignValidationError, load_campaign

    rc = 0
    for path in args.files:
        try:
            spec = load_campaign(path).require_valid()
        except CampaignValidationError as exc:
            print(exc, file=sys.stderr)
            if rc == 0:
                rc = exc.exit_code
        else:
            print(
                f"{path}: OK — campaign {spec.name!r}, "
                f"{len(spec.scenarios)} scenario(s), seed {spec.seed}"
            )
    return rc


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign FILE``: run a campaign under its budgets."""
    from repro.campaign import (
        CampaignValidationError,
        diff_golden,
        load_campaign,
        load_golden,
        run_campaign,
        write_golden,
    )
    from repro.experiments import schema as wire

    try:
        spec = load_campaign(args.file)
        if args.strict:
            spec.require_valid()
    except CampaignValidationError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code

    result = run_campaign(
        spec,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(result.to_experiment_result().text)

    if args.salvage_report:
        report = wire.dump(result.salvage_report(), args.salvage_report)
        print(f"wrote salvage report to {report}")

    if args.update_golden:
        write_golden(result, args.update_golden)
        print(f"pinned golden summary to {args.update_golden}")
        return 0
    if args.golden:
        try:
            expected = load_golden(args.golden)
        except (OSError, ValueError) as exc:
            print(f"cannot load golden summary: {exc}", file=sys.stderr)
            return 1
        drifts = diff_golden(result, expected, spec.tolerance)
        if drifts:
            print(
                f"golden drift vs {args.golden}: {len(drifts)} divergence(s)",
                file=sys.stderr,
            )
            for d in drifts:
                print(f"  {d.render()}", file=sys.stderr)
            return 1
        print(f"golden: matches {args.golden} ({len(result.runs)} scenario(s))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP/SSE campaign service (repro.service)."""
    from repro.service.http import serve

    state_dir = args.state_dir
    if args.checkpoint is not None:
        print(
            "note: for serve, --checkpoint is an alias for --state-dir DIR",
            file=sys.stderr,
        )
        if state_dir is None:
            state_dir = args.checkpoint
    # SSE telemetry rides the in-process (serial) path only; fanned-out
    # scenario workers run in other processes, whose telemetry windows
    # could never reach this process's event bus.
    window = None
    if resolve_workers(args.workers) == 1:
        window = args.telemetry_window
    return serve(
        args.host,
        args.port,
        state_dir=state_dir,
        pool=args.pool,
        workers=args.workers,
        telemetry_window=window,
        telemetry_path=args.telemetry,
        verbose=not args.quiet,
    )


class _TelemetrySession:
    """Scoped ``--telemetry`` enablement around one CLI command.

    Installs a :mod:`repro.obs` factory sharing one JSON-lines exporter;
    each simulation the command builds gets a fresh telemetry instance
    labelled ``<command>/<n>`` so the records of a multi-run experiment
    stay distinguishable in the shared file.
    """

    def __init__(self, path: str, window: float, label: str):
        from repro import obs

        self._obs = obs
        self.path = path
        self.exporter = obs.JsonLinesExporter(path)
        seq = count(1)
        obs.install(
            lambda: obs.Telemetry(
                window=window, exporters=[self.exporter], label=f"{label}/{next(seq)}"
            )
        )

    def finish(self) -> None:
        self._obs.uninstall()
        self.exporter.close()
        print(
            f"telemetry: wrote {self.exporter.records} records to {self.path}",
            file=sys.stderr,
        )


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="stream windowed telemetry to PATH as JSON lines",
    )
    parser.add_argument(
        "--telemetry-window",
        type=float,
        default=5.0,
        help="telemetry window in virtual seconds (default 5)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="processes for independent simulation runs "
        "(default $REPRO_WORKERS or 1; results are bit-identical "
        "for any N, and incompatible with --telemetry for N > 1)",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="enable runtime invariant checks (virtual-time monotonicity, "
        "request conservation, non-negative occupancy); equivalent to "
        "setting REPRO_CHECK=1",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal sweep-shaped experiments to PATH "
        "(repro.experiments.store): completed tasks replay from disk, "
        "fresh results are durably appended — a killed run rerun with "
        "the same flags resumes bit-identically",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="require --checkpoint to already exist (fail fast on a "
        "mistyped path instead of silently recomputing from scratch)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="run under cProfile: print the top 25 functions by "
        "cumulative time to stderr after the run, and dump raw pstats "
        "data to PATH when given (load with pstats.Stats(PATH) or "
        "snakeviz)",
    )


def _sized_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment config implied by --full/--seed/--workers/--checkpoint."""
    cfg = FULL if getattr(args, "full", False) else FAST
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "workers", None) is not None:
        cfg = replace(cfg, workers=args.workers)
    if getattr(args, "checkpoint", None) is not None:
        cfg = replace(
            cfg, checkpoint=args.checkpoint, resume=getattr(args, "resume", False)
        )
    return cfg


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "sensitivity":
        return _cmd_sensitivity()
    if args.command == "cutoff":
        return _cmd_cutoff(args)
    if args.command == "dump":
        return _cmd_dump(args, _sized_config(args))
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "report":
        from repro.experiments.paper_report import generate_report

        only = args.only.split(",") if args.only else None
        text = generate_report(_sized_config(args), only=only)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote report to {args.out}")
        else:
            print(text)
        return 0

    spec = get_spec(args.command)
    print(run_experiment(spec.name, _sized_config(args)).text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'The Hidden Cost of the Edge' (SC 2021).",
    )
    sub = parser.add_subparsers(dest="command")
    for spec in available():
        p = sub.add_parser(spec.name, help=spec.description)
        p.add_argument("--full", action="store_true", help="publication-sized run")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        _add_common_args(p)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("sensitivity", help="analytic cutoff sensitivity sweeps")
    rep = sub.add_parser("report", help="full evaluation as one markdown report")
    rep.add_argument("--out", default=None, help="write to a file instead of stdout")
    rep.add_argument("--only", default=None, help="comma-separated section filters")
    rep.add_argument("--full", action="store_true", help="publication-sized run")
    _add_common_args(rep)
    dump = sub.add_parser("dump", help="save each figure's result envelope as JSON")
    dump.add_argument("--out", default="results", metavar="DIR",
                      help="output directory (default: results)")
    dump.add_argument("--figures", default=None, help="comma-separated subset")
    dump.add_argument("--full", action="store_true", help="publication-sized run")
    _add_common_args(dump)
    val = sub.add_parser(
        "validate",
        help="validate campaign files (exit 3=parse, 4=schema, 5=semantic)",
    )
    val.add_argument("files", nargs="+", metavar="FILE",
                     help="campaign file(s), YAML or JSON")
    camp = sub.add_parser(
        "campaign",
        help="run a declarative scenario campaign (repro.campaign)",
    )
    camp.add_argument("file", metavar="FILE", help="campaign file, YAML or JSON")
    camp.add_argument(
        "--strict",
        action="store_true",
        help="refuse to run if any scenario has semantic issues "
        "(default: quarantine them and run the rest)",
    )
    camp.add_argument(
        "--golden",
        metavar="EXPECTED",
        default=None,
        help="diff the run against a pinned golden summary; exit 1 on "
        "drift, naming the scenario, metric and delta",
    )
    camp.add_argument(
        "--update-golden",
        metavar="EXPECTED",
        default=None,
        help="pin this run's summary as the new golden file",
    )
    camp.add_argument(
        "--salvage-report",
        metavar="PATH",
        default=None,
        help="write the quarantine/salvage report as JSON to PATH",
    )
    _add_common_args(camp)
    srv = sub.add_parser(
        "serve",
        help="run the campaign service: HTTP/SSE front-end (repro.service)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8000,
                     help="bind port (0 = ephemeral)")
    srv.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="spool directory for durable jobs: per-job campaign.json, "
        "scenario journal and result.json; a restarted server resumes "
        "unfinished jobs from here (default: in-memory only)",
    )
    srv.add_argument(
        "--pool",
        type=int,
        default=1,
        metavar="N",
        help="campaigns run concurrently (default 1)",
    )
    srv.add_argument("--quiet", action="store_true",
                     help="suppress startup/shutdown log lines")
    _add_common_args(srv)
    cut = sub.add_parser("cutoff", help="analytic inversion-cutoff query")
    cut.add_argument("--cloud-rtt", type=float, required=True, help="cloud RTT in ms")
    cut.add_argument("--edge-rtt", type=float, default=1.0, help="edge RTT in ms")
    cut.add_argument("--sites", type=int, default=5, help="number of edge sites")
    cut.add_argument("--machines", type=int, default=1, help="machines per site")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "resume", False):
        if not getattr(args, "checkpoint", None):
            parser.error("--resume requires --checkpoint PATH")
        if not os.path.exists(args.checkpoint):
            parser.error(
                f"--resume: checkpoint {args.checkpoint!r} does not exist; "
                "run once with --checkpoint (without --resume) to create it"
            )
    if getattr(args, "golden", None) and getattr(args, "update_golden", None):
        parser.error(
            "--golden and --update-golden are mutually exclusive: diff "
            "this run against a pinned summary or pin a new one, not both"
        )
    if getattr(args, "check_invariants", False):
        # Simulations read the flag at construction time, and worker
        # processes inherit the environment — one env var covers both the
        # in-process and fanned-out paths.
        os.environ["REPRO_CHECK"] = "1"
    session = None
    if getattr(args, "telemetry", None):
        # Telemetry is process-local (spans recorded in pool workers could
        # never reach this process's exporter), so fan-out and telemetry
        # are mutually exclusive — fail loudly instead of dropping spans.
        if resolve_workers(getattr(args, "workers", None)) > 1:
            parser.error(
                "--telemetry and --workers are mutually exclusive: worker "
                "processes do not stream spans back to this process's "
                "exporter, so the telemetry file would silently miss most "
                "of the run.  Use --workers 1 (and unset $REPRO_WORKERS), "
                "or drop --telemetry."
            )
        if args.command != "serve":
            # serve owns its telemetry lifecycle (per-job exporters on the
            # SSE bus, plus the optional shared JSON-lines file).
            session = _TelemetrySession(
                args.telemetry, args.telemetry_window, args.command
            )
    profile = getattr(args, "profile", None)
    try:
        if profile is None:
            return _dispatch(args)
        import cProfile
        import pstats

        prof = cProfile.Profile()
        try:
            return prof.runcall(_dispatch, args)
        finally:
            # Stats go to stderr so `repro ... --profile > out.txt` still
            # captures clean experiment output on stdout.
            stats = pstats.Stats(prof, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(25)
            if profile:
                prof.dump_stats(profile)
                print(f"wrote pstats data to {profile}", file=sys.stderr)
    finally:
        if session is not None:
            session.finish()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
