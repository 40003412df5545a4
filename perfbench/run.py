#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7 [--seed 2021] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload campaign-service --trace 1 --profile 25
    python3 perfbench/run.py --compare BASE_RESULTS NEW_RESULTS

``--trace 0`` measures the workload for ``--seconds`` seconds with
tracing off and reports every end-to-end metric of ``BENCHMARK.json``;
its times are scaled to the host's speed, sampled while they run
(``speed.py``).
``--trace 1`` runs the workload's fixed traced unit four times,
alternating untraced passes with passes that wrap every entry point of
``spans.TARGETS``; it reports every per-layer metric and fails if the
exact counts differ between the two traced passes.  Both modes run every correctness check and exit 1 if one
fails.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Result files (stamped with the machine and commit), span dumps and
profiles go to ``.perfbench/`` at the repository root.  ``--compare``
reads two such result sets (files or directories).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Traced passes per traced run; their exact counts must agree.
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="fig7, fig7-des or campaign-service")
    p.add_argument("--seed", type=int, default=2021, help="workload seed (default 2021)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time of an untraced run (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="also profile one unit of work; save the top N functions by self time")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two result sets instead of running")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- environment -----------------------------------------------------------------

def import_program() -> None:
    """Put this checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    # Program defaults only: one process, no invariant checker.
    for var in ("REPRO_WORKERS", "REPRO_CHECK", "REPRO_CALENDAR"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = str(SRC)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def fingerprint(seed: int) -> dict:
    """Machine and commit the numbers come from."""
    import numpy

    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30, check=True)
            dirty = bool(status.stdout.strip())
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its workload being ready.

    Returns the seconds with the probe's speed pieces taken out, and the
    probe's scale (see ``speed.py``).
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed - float(words[1]), float(words[2])


# -- runs -------------------------------------------------------------------------

def _tally(iterations, extra_checks=()) -> tuple[int, int, list]:
    checks = [c for it in iterations for c in it.checks] + list(extra_checks)
    attempted = sum(it.attempted for it in iterations) + len(checks)
    failed = sum(it.failed for it in iterations) + sum(not c.ok for c in checks)
    return attempted, failed, checks


def _first_result_targets(workload) -> list:
    target = workload.first_result_target
    return [] if target is None else [target]


def run_untraced(args, workdir: Path) -> dict:
    from spans import Patcher, Tracer
    from speed import Sampler
    from workloads import make_workload

    setup = [time_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
    workload = make_workload(args.workload, ROOT, args.seed, workdir)
    probe = Tracer()
    with workload.session():
        workload.warm_up()
        with Patcher(probe, _first_result_targets(workload)), Sampler() as sampler:
            iterations, t0 = [], perf_counter()
            while not iterations or perf_counter() - t0 < args.seconds:
                start = perf_counter()
                it = workload.iteration(len(iterations), probe)
                end = perf_counter()
                # Take the pieces' time out, then scale to the host's speed.
                it.extra["unscaled"] = {"wall_s": it.wall_s, "first_result_s": it.first_result_s}
                first_end = start + it.first_result_s
                it.scale = sampler.scale(start, end)
                it.wall_s = (it.wall_s - sampler.lost(start, end)) * it.scale
                it.first_result_s = ((it.first_result_s - sampler.lost(start, first_end))
                                     * sampler.scale(start, first_end, default=it.scale))
                iterations.append(it)
            body = perf_counter() - t0
    peak = peak_rss_mb()
    for it in iterations:
        workload.check(it)
    attempted, failed, checks = _tally(iterations)
    walls = [it.wall_s for it in iterations]
    metrics = {
        "setup_s": statistics.median(s * k for s, k in setup),
        "wall_s": statistics.fmean(walls),
        "sim_req_per_s": statistics.median(it.requests / it.wall_s for it in iterations),
        "job_p50_s": statistics.median(walls),
        "first_result_p50_s": statistics.median(it.first_result_s for it in iterations),
        "peak_rss_mb": peak,
        "success_rate": (attempted - failed) / attempted,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "raw": {"setup": [{"s": s, "scale": k} for s, k in setup], "body_s": body,
                "pieces": len(sampler.times),
                "iterations": [_iteration_doc(it) for it in iterations]},
        "workload_obj": workload,
    }


def run_traced(args, workdir: Path) -> dict:
    from layers import EXACT_COUNTS, dispatch_ns_per_event, layer_metrics
    from spans import TARGETS, Patcher, Tracer, distribution_targets
    from workloads import Check, make_workload

    workload = make_workload(args.workload, ROOT, args.seed, workdir)
    targets = [*TARGETS, *distribution_targets()]
    probe = Tracer()
    extra_checks = []

    def one_pass(tracer, warm_up=False):
        with workload.session():
            if warm_up:
                workload.warm_up()
            with Patcher(probe, _first_result_targets(workload)):
                patcher = Patcher(tracer, targets) if tracer is not None else None
                with patcher or contextlib.nullcontext():
                    t0 = perf_counter()
                    its = [workload.iteration(k, probe) for k in range(workload.trace_iterations)]
                    t1 = perf_counter()
            if patcher is not None:
                left = patcher.leftovers()
                extra_checks.append(Check("every wrapper removed after the traced pass",
                                          not left, ", ".join(left)))
        return its, t0, t1

    # Untraced and traced passes alternate, so that a drift in CPU speed
    # does not masquerade as tracing overhead.
    refs, passes = [], []
    for i in range(TRACED_PASSES):
        refs.append(one_pass(None, warm_up=i == 0))
        tracer = Tracer()
        passes.append((tracer, *one_pass(tracer)))
    direct = Tracer()
    service = hasattr(workload, "run_direct")
    if service:
        with Patcher(direct, targets) as patcher:
            for seed in sorted({it.extra["seed"] for it in refs[0][0]}):
                workload.run_direct(seed)
        left = patcher.leftovers()
        extra_checks.append(Check("every wrapper removed after the direct runs",
                                  not left, ", ".join(left)))
    all_its = [it for its, _, _ in [*refs, *(p[1:] for p in passes)] for it in its]
    for it in all_its:
        workload.check(it)
    dispatch_ns = dispatch_ns_per_event()
    per_pass = [
        layer_metrics(tracer.spans, start=t0, end=t1, dispatch_ns=dispatch_ns,
                      jobs=its if service else None, direct_spans=direct.spans)
        for tracer, its, t0, t1 in passes
    ]
    for name in EXACT_COUNTS:
        values = [m[name] for m in per_pass]
        extra_checks.append(Check(f"{name} identical across traced passes",
                                  len(set(values)) == 1, repr(values)))
    metrics = dict(per_pass[0])
    ref_walls = [t1 - t0 for _, t0, t1 in refs]
    traced_walls = [t1 - t0 for _, _, t0, t1 in passes]
    metrics["bench.trace_overhead_frac"] = sum(traced_walls) / sum(ref_walls) - 1.0
    attempted, failed, checks = _tally(all_its, extra_checks)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "raw": {"ref_wall_s": ref_walls,
                "traced_wall_s": traced_walls,
                "per_pass": per_pass,
                "iterations": [_iteration_doc(it) for it in all_its]},
        "spans": (passes[0][0].spans, passes[0][2]),
        "workload_obj": workload,
    }


def _iteration_doc(it) -> dict:
    extra = {k: v for k, v in it.extra.items() if k != "result"}
    return {"wall_s": it.wall_s, "first_result_s": it.first_result_s, "scale": it.scale,
            "requests": it.requests, "attempted": it.attempted, "failed": it.failed,
            "extra": extra}


def profile_one(workload, top: int, path: Path, header: dict) -> None:
    """Profile one unit of work; write the top functions by self time."""
    from spans import Tracer

    prof = cProfile.Profile()
    with workload.session():
        prof.enable()
        try:
            workload.iteration(0, Tracer())
        finally:
            prof.disable()
    buf = io.StringIO()
    buf.write(f"# {json.dumps(header)}\n")
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(top)
    path.write_text(buf.getvalue(), encoding="utf-8")


# -- output -----------------------------------------------------------------------

def shape_metrics(values: dict, specs: list[dict]) -> dict:
    """Order and unit the metrics as ``BENCHMARK.json`` lists them."""
    names = [s["name"] for s in specs]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"unlisted {sorted(set(values) - set(names))}"
        )
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_benchmark()
    if args.compare is not None:
        return run_compare(args.compare, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_program()
    sys.path.insert(0, str(HERE))

    out_dir = ROOT / ".perfbench"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    header = {"workload": args.workload, "trace": args.trace,
              "fingerprint": fingerprint(args.seed)}
    try:
        run = (run_traced if args.trace else run_untraced)(args, workdir)
        specs = bench["per_layer"] if args.trace else bench["end_to_end"]
        metrics = shape_metrics(run["metrics"], specs)
        if args.profile:
            profile_one(run["workload_obj"], args.profile,
                        out_dir / "traces" / f"{stem}.profile.txt", header)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run["failed"] == 0
    doc = {
        "kind": "perfbench-result",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": header["fingerprint"],
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in run["checks"]],
        "raw": run["raw"],
    }
    (out_dir / "results" / f"{stem}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8"
    )
    if "spans" in run:
        from spans import write_spans

        spans, origin = run["spans"]
        write_spans(spans, out_dir / "traces" / f"{stem}.spans.jsonl", origin, header)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({doc['fingerprint']['cpu_count']} x {doc['fingerprint']['cpu_model']})")
    for c in run["checks"]:
        if not c.ok:
            print(f"  FAILED CHECK {c.name}: {c.detail}")
    print(f"  checks: {sum(c.ok for c in run['checks'])}/{len(run['checks'])} passed; "
          f"operations: {run['failed']} failed of {run['attempted']} "
          f"(error_rate {run['failed'] / run['attempted']:.6g})")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_compare(paths, bench: dict) -> int:
    from compare import compare, load_results, render

    base, new = (load_results(p) for p in paths)
    rows = compare(base, new, bench)
    counts = {
        w["name"]: (sum(d["workload"] == w["name"] for d in base),
                    sum(d["workload"] == w["name"] for d in new))
        for w in bench["workloads"]
    }
    print(render(rows, counts))
    return 1 if any(r.verdict == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
