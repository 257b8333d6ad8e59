"""kgdial benchmark: one workload, one seed, one run.

Run from the root of a kgdial checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics and the
tracing overhead instead. ``--smoke`` shrinks the inputs so a run takes a
few seconds (used by ``perfbench/test_perfbench.py``). Timings are the
process's CPU time scaled to a fixed machine speed (see ``calibration``);
the raw CPU and wall times are printed beside them. The last line of
standard output is the JSON result; the environment, every metric with its
sample count or base, and the result are also written to
``.perfbench_out/``, and the traced run's spans to
``.perfbench_out/trace-<workload>.jsonl``.

The program is imported from ``src/`` of the current directory; without it
the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not fan out. Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = ".perfbench_out"
# Metric names, units and directions: BENCHMARK.json beside this directory.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Allowed gap between the traced section's wall time and the summed self
# time of all its spans (the benchmark's loop bookkeeping outside any span).
COVERAGE_TOLERANCE = 0.02


def import_kgdial(root: Path):
    """Import kgdial from ``root/src``; exit with status 1 if it is not there."""
    src = root / "src"
    if not (src / "kgdial" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kgdial sources under {src}")
    sys.path.insert(0, str(src))
    import kgdial

    if not Path(kgdial.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported kgdial from {kgdial.__file__}, not from {src}")
    return kgdial


def environment(root: Path, args, workload) -> dict:
    """Machine, versions, source identity, seeds and sizes of this run."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kgdial").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload.name,
        "seed": args.seed,
        "eval_seed": args.seed + 1,
        "serve_seed": args.seed + 2,
        "sizes": {
            "candidates": workload.candidates,
            "vocab_size": workload.vocab_size,
            "fit_dialogs": workload.n_fit,
            "attn_fit_dialogs": workload.n_attn_fit,
            "eval_dialogs": workload.n_eval,
            "serve_dialogs": workload.n_serve,
        },
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_timed(session, workloads, workload, seconds: float, end_to_end: list[dict]) -> dict:
    """Whole rounds for as long as the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    round_no, round_s = 0, 0.0
    while round_no < workloads.MIN_ROUNDS or time.perf_counter() - start + round_s < seconds:
        round_start = time.perf_counter()
        if round_no == 0:
            setup_reps = workloads.SETUP_REPS
        else:
            setup_reps = int(round_no % workload.setup_every == 0)
        session.round(round_no, setup_reps)
        round_s = time.perf_counter() - round_start
        round_no += 1
    session.cli_check()
    raw = {
        name: {clock: statistics.median(samples[name]) for clock, samples in
               (("cpu", session.cpu_samples), ("wall", session.wall_samples)) if name in samples}
        for name in session.cpu_samples
    }
    pooled = session.latency_percentiles()
    metrics = {}
    for metric in end_to_end:
        name, unit = metric["name"], metric["unit"]
        if name == "peak_rss_mb":
            metrics[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, unit, 1)
        elif name in pooled:
            value, raw_value, requests = pooled[name]
            metrics[name] = (value, unit, requests)
            raw[name] = {"cpu": raw_value}
        else:
            values = session.samples[name]
            metrics[name] = (statistics.median(values) if values else float("nan"), unit, len(values))
    return {
        "rounds": round_no,
        "requests": session.requests,
        "metrics": metrics,
        "raw": raw,
        "sample_values": dict(session.samples),
    }


def run_traced(session, tracer_module, trace_path: Path, per_layer: list[dict]) -> dict:
    """One untraced round as the reference, then the same round traced."""
    session.min_sample_s = 0.0  # one call per timed operation, so both rounds do the same work
    start = time.perf_counter()
    session.round(0, 1)
    untraced_s = time.perf_counter() - start

    tracer = tracer_module.Tracer()
    tracer.questions = frozenset(
        d.current_turn.text for c in session.corpora.values() for d in c.dialogs
    )
    session.tracer = tracer
    tracer.install()
    origin = time.perf_counter_ns()
    try:
        session.round(1, 1)
    finally:
        traced_ns = time.perf_counter_ns() - origin
        tracer.restore()
        session.tracer = None
    session.cli_check()
    tracer.write(trace_path, origin)

    values = tracer_module.layer_metrics(tracer, [m["name"] for m in per_layer], untraced_s, traced_ns / 1e9)
    metrics = {m["name"]: (values[m["name"]], m["unit"], 1) for m in per_layer}
    bases = {
        ratio: [values[num], values[den]]
        for ratio, (num, den) in tracer_module.RATIO_BASES.items()
        if ratio in values
    }
    return {
        "metrics": metrics,
        "ratio_bases": bases,
        "untraced_s": untraced_s,
        "traced_s": traced_ns / 1e9,
        "coverage": tracer.root_ns / traced_ns,
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "trace_file": str(trace_path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_kgdial(root)
    benchmark = json.loads(BENCHMARK.read_text())
    import tracer as tracer_module
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    env = environment(root, args, workload)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        scratch = Path(scratch)
        files = workloads.write_inputs(workload, args.seed, scratch / "inputs")
        (scratch / "models").mkdir()
        session = workloads.Session(files, scratch / "models")
        # Load before the first round so that every round trains with the
        # same live heap: the cyclic collector's cost grows with it.
        session.load_corpora()
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}.jsonl"
            report = run_traced(session, tracer_module, trace_path, benchmark["per_layer"])
        else:
            report = run_timed(session, workloads, workload, args.seconds, benchmark["end_to_end"])

    metrics = report.pop("metrics")
    finite = all(value == value for value, _, _ in metrics.values())
    result = {
        "correct": session.failed == 0 and finite,
        "attempted": session.attempted,
        "failed": session.failed,
        # A metric without samples (every attempt failed) is null, keeping the line valid JSON.
        "metrics": {
            name: {"value": value if value == value else None, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    for error in session.errors:
        print(error, file=sys.stderr)
    print("perfbench env " + json.dumps(env, sort_keys=True))
    raw = report.get("raw", {})
    for name, (value, unit, samples) in metrics.items():
        note = "".join(f", {clock} {v:.6g}" for clock, v in raw.get(name, {}).items())
        print(f"perfbench {name} = {value:.6g} {unit} (samples {samples}{note})")
    for name, value in report.items():
        if name not in ("sample_values", "raw"):
            print(f"perfbench {name} = {json.dumps(value)}")
    summary = {"env": env, "samples": {n: s for n, (_, _, s) in metrics.items()}, **report, **result}
    suffix = "-smoke" if args.smoke else ""
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
