"""Workloads and the timed session that every workload runs.

A session trains the three models on fit corpora, loads its inputs
(set-up), evaluates the models on a held-out eval corpus and serves every
dialog of a held-out serve corpus through ``run_pipeline``. The workloads
differ only in input shape, which decides the phase that dominates. Every
phase runs on every workload because every run reports every end-to-end
metric; the metric a workload exists for is named in its ``why``.

The program sees only the corpus and model files this module writes.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call; output checks use the originals bound at
import.
"""

from __future__ import annotations

import gc
import io
import math
import re
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import calibration
from kgdial import cli, corpus, detection, embedding, evaluation, pipeline, selector

_format_generation_input = pipeline.format_generation_input

# Models train on balanced corpora; test traffic is 25 % knowledge-seeking so
# that request p50 sits in the detection-only latency mode and p99 in the
# selection mode, each far from the boundary between them.
FIT_MARKER_RATE = 0.5
TEST_MARKER_RATE = 0.75

# The attention + line-search trainer gets the same corpus shape on every
# workload: 12 dialogs of 8 candidates. At 64 candidates the number of
# line-search halvings depends on the corpus (loss evaluations per instance
# spread 18-52 %, quartile range over median, across ten seeds); at 8
# candidates they barely move with the seed, so the time measures the
# program, not the seed. Per dialog it is about twice as slow as the plain
# trainer.
ATTN_DIALOGS = 12
ATTN_CANDIDATES = 8
ATTN_VOCAB_SIZE = 64

# Provider of the CLI defaults (``--embed-seed 7 --embed-dim 32``).
EMBED_SEED = 7
EMBED_DIM = 32

# Set-ups in the first round; later rounds do one every ``setup_every``
# rounds, so that set-up samples span the run like every other metric's.
SETUP_REPS = 3
MIN_ROUNDS = 2
# A timed call shorter than this is repeated until this much time has
# passed, each call one sample, so that short operations are not timed once
# per round on a machine whose speed varies from second to second.
MIN_SAMPLE_S = 0.25
# Requests per serve pass, the unit of one throughput sample.
SERVE_PASS = 1000
# Requests between two calibration bursts (``calibration``): about 0.4 s on
# serve and 0.06 s on train.
SERVE_SLICE = 200
# Latency percentiles (nearest rank) over every request of a run, each
# request's latency scaled by its pass's factor: at 1000 requests a round,
# p99 has 80-180 requests beyond it.
LATENCY_PERCENTILES = {"request_p50_ms": 0.50, "request_p99_ms": 0.99}
# Quality floor of a correct run on these synthetic corpora (measured ~1.0).
QUALITY_FLOOR = 0.9

_TIES_RE = re.compile(r"(\d+) candidate scores tied")

# Every timing is the process's CPU time, scaled to a fixed machine speed
# by ``calibration``. The benchmark runs one thread, so on an idle core CPU
# time equals wall time; on a shared VM it leaves out the time the
# hypervisor ran other tenants on this vCPU (steal time, which the guest
# kernel subtracts from its task clocks). Raw CPU and wall times are kept
# beside the scaled ones.
cpu_clock = time.process_time
cpu_clock_ns = time.process_time_ns


@dataclass(frozen=True)
class Workload:
    name: str
    candidates: int
    vocab_size: int
    n_fit: int
    n_eval: int
    n_serve: int
    setup_every: int = 1
    n_attn_fit: int = ATTN_DIALOGS


# Input shapes. BENCHMARK.json records why each workload exists. The batch
# workload ("train") also evaluates 1000 held-out dialogs, so TF-IDF and the
# JSON loaders run there. Every timed operation is kept under a second, so
# that a 55 s run holds 7-9 rounds on serve and 17-22 on train and every
# metric gets that many samples spread over the whole run: the machine's speed swings by tens of
# percent from one few-second stretch to the next, and a median over many
# samples taken across the run is what keeps runs comparable. Outside the
# phases a workload exists for, its inputs are small; serve still fits 60
# dialogs, the fewest on which the detector reaches F1 0.95 on every seed
# 1-40. Its 64-candidate corpora make set-up take about a second, so it sets
# up every fourth round.
WORKLOADS = {
    w.name: w
    for w in (
        # 200-epoch selector training dominates; then a 1000-dialog evaluation.
        Workload("train", candidates=8, vocab_size=64, n_fit=100, n_eval=1000, n_serve=SERVE_PASS),
        # 2000 requests against 64-candidate entities; small models and eval.
        Workload("serve", candidates=64, vocab_size=288, n_fit=60, n_eval=200, n_serve=2000, setup_every=4),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk to run in about a second."""
    return replace(workload, n_fit=24, n_eval=40, n_serve=40, n_attn_fit=8)


class CheckFailed(Exception):
    """An output of the program is not what the benchmark expects."""


def _corpus_files(directory: Path) -> tuple[Path, Path, Path]:
    return directory / "knowledge.json", directory / "logs.json", directory / "labels.json"


def write_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, tuple[Path, Path, Path]]:
    """Generate the fit, attention-fit, eval and serve corpora from ``seed`` and write them."""
    shape = (workload.candidates, workload.vocab_size)
    plan = {
        "fit": (seed, workload.n_fit, shape, FIT_MARKER_RATE),
        "attn_fit": (seed, workload.n_attn_fit, (ATTN_CANDIDATES, ATTN_VOCAB_SIZE), FIT_MARKER_RATE),
        "eval": (seed + 1, workload.n_eval, shape, TEST_MARKER_RATE),
        "serve": (seed + 2, workload.n_serve, shape, TEST_MARKER_RATE),
    }
    files = {}
    for name, (corpus_seed, n_dialogs, (candidates, vocab_size), marker_rate) in plan.items():
        params = corpus.SynthParams(
            n_dialogs=n_dialogs,
            n_candidates=candidates,
            vocab_size=vocab_size,
            detect_marker_rate=marker_rate,
        )
        directory = workdir / name
        directory.mkdir(parents=True)
        files[name] = _corpus_files(directory)
        corpus.write_corpus(corpus.synth_corpus(corpus_seed, params), *files[name])
    return files


class Session:
    """One run's phases, samples, failure counts and output checks."""

    def __init__(self, files, models_dir: Path):
        self.files = files
        self.models = models_dir
        self.tracer = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cpu_samples: dict[str, list[float]] = defaultdict(list)
        self.wall_samples: dict[str, list[float]] = defaultdict(list)
        self.latencies_ms: list[float] = []  # every request's, scaled
        self.cpu_latencies_ms: list[float] = []
        self.requests = 0
        self.min_sample_s = MIN_SAMPLE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rendered = None
        self.corpora: dict[str, corpus.Corpus] = {}
        self.detector = self.selector = self.provider = None

    # -- bookkeeping -------------------------------------------------------

    def op(self, fn, *args):
        """Run one operation; an exception or a failed check counts it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            return None

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        self.tracer.request = name
        return self.tracer.span(name)

    def count(self, name: str, n: int) -> None:
        if self.tracer is not None:
            self.tracer.counters[name] += n

    @staticmethod
    def _call(scale, fn, *args):
        """Run one call; return its result and its (CPU, wall, scaled) seconds."""
        wall, start = time.perf_counter(), cpu_clock()
        result = fn(*args)
        cpu, wall = cpu_clock() - start, time.perf_counter() - wall
        return result, (cpu, wall, cpu * scale.next())

    def _record(self, metric: str, times) -> None:
        cpu, wall, scaled = times
        self.samples[metric].append(scaled)
        self.cpu_samples[metric].append(cpu)
        self.wall_samples[metric].append(wall)

    def _timed(self, metric: str, fn, *args):
        """Call ``fn`` until ``min_sample_s`` of CPU time has passed, each call one sample."""
        scale = calibration.Scale()
        spent = 0.0
        while True:
            result, times = self._call(scale, fn, *args)
            self._record(metric, times)
            spent += times[0]
            if spent >= self.min_sample_s:
                return result

    # -- phases ----------------------------------------------------------------

    def load_corpora(self) -> None:
        self.corpora = {name: corpus.load_corpus(*paths) for name, paths in self.files.items()}

    def train_phase(self) -> None:
        """Train the detector, the selector, and the attention + line-search selector."""
        with self.span("bench.train"):
            self.op(self._train_detector)
            self.op(
                self._train_selector, "train_select_s", self.corpora["fit"], selector.SelectorHyper(), "selector.json"
            )
            self.op(
                self._train_selector,
                "train_select_attn_ls_s",
                self.corpora["attn_fit"],
                selector.SelectorHyper(attention_flag=True, line_search=True),
                "selector_attn_ls.json",
            )

    def _train_detector(self) -> None:
        model, _ = self._timed("train_detect_s", detection.train_detector, self.corpora["fit"])
        self._save_and_compare(lambda path: detection.save_detector(model, path), "detector.json")

    def _train_selector(self, metric, fit, hyper, filename) -> None:
        provider = embedding.HashedGaussianVectors(EMBED_SEED, EMBED_DIM)
        model, _ = self._timed(metric, selector.train_selector, fit, provider, hyper)
        self.count("embedding.questions", sum(d.target for d in fit.dialogs))
        self.count("selector.epochs", hyper.epochs)
        self._save_and_compare(lambda path: selector.save_selector(model, provider, path), filename)

    def _save_and_compare(self, save, filename: str) -> None:
        """Save a model; a retrained one must be byte-identical to the first save."""
        path = self.models / filename
        if not path.exists():
            save(path)
            return
        again = self.models / ("again-" + filename)
        save(again)
        if again.read_bytes() != path.read_bytes():
            raise CheckFailed(f"{filename}: retraining on the same corpus saved different bytes")

    def setup(self) -> None:
        """Load every input the timed phases read: corpora and saved models."""
        with self.span("bench.setup"):
            self.op(self._timed, "setup_s", self._load_all)

    def _load_all(self) -> None:
        self.load_corpora()
        self.detector = detection.load_detector(self.models / "detector.json")
        self.selector, self.provider = selector.load_selector(self.models / "selector.json")

    def eval_phase(self) -> None:
        with self.span("bench.eval"):
            self.op(self._evaluate)

    def _evaluate(self) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sel, det, rendered = self._evaluate_all()
        self.count("evaluation.score_ties", sum(int(n) for w in caught for n in _TIES_RE.findall(str(w.message))))
        self.count("embedding.questions", sel.n_instances)
        self.samples["select_acc_at_1"].append(sel.acc_at_1)
        self.samples["detect_f1"].append(det.f1)
        self.rendered = rendered
        if sel.acc_at_1 < QUALITY_FLOOR or det.f1 < QUALITY_FLOOR:
            raise CheckFailed(f"quality below {QUALITY_FLOOR}: acc@1 {sel.acc_at_1}, f1 {det.f1}")

    def _evaluate_all(self):
        """One sample of ``eval_s``: the sum of four calls, each scaled on its own."""
        held_out = self.corpora["eval"]
        scale = calibration.Scale()
        sel, t_sel = self._call(scale, evaluation.evaluate_selector, self.selector, self.provider, held_out)
        det, t_det = self._call(scale, evaluation.evaluate_detector, self.detector, held_out)
        tfidf, t_tfidf = self._call(scale, evaluation.evaluate_tfidf, held_out)
        entries = [evaluation.ReportEntry("gks", det, sel), evaluation.ReportEntry("tfidf", selection=tfidf)]
        rendered, t_report = self._call(scale, evaluation.report, entries)
        self._record("eval_s", [sum(t) for t in zip(t_sel, t_det, t_tfidf, t_report)])
        return sel, det, rendered

    def serve_phase(self, round_no: int) -> None:
        """Closed-loop passes: each serve dialog is one request against its own entity."""
        test = self.corpora["serve"]
        # Synthetic dialog i owns the i-th entity in knowledge order.
        requests = list(zip(test.dialogs, test.snippets))
        for first in range(0, len(requests), SERVE_PASS):
            self._serve_pass(round_no, test, requests[first : first + SERVE_PASS])

    def _serve_pass(self, round_no: int, test, requests) -> None:
        results = []
        latencies_ns = []
        cpu_s = scaled_s = wall_s = 0.0
        with self.span("bench.serve"):
            scale = calibration.Scale()
            for first in range(0, len(requests), SERVE_SLICE):
                wall, start_slice = time.perf_counter(), cpu_clock()
                for dialog, entity in requests[first : first + SERVE_SLICE]:
                    if self.tracer is not None:
                        self.tracer.request = f"r{round_no}/{dialog.id}"
                    start = cpu_clock_ns()
                    try:
                        result = pipeline.run_pipeline(
                            self.detector, self.selector, self.provider, test, dialog, entity
                        )
                    except Exception as exc:  # counted as a failed request below
                        result = exc
                    latencies_ns.append(cpu_clock_ns() - start)
                    results.append(result)
                slice_s, wall = cpu_clock() - start_slice, time.perf_counter() - wall
                factor = scale.next()
                cpu_s, scaled_s, wall_s = cpu_s + slice_s, scaled_s + slice_s * factor, wall_s + wall
        # Throughput is taken per pass and its median over the run reported:
        # a stretch of a few seconds in which the machine runs at half speed
        # then moves one pass, not the run.
        self.samples["requests_per_s"].append(len(results) / scaled_s)
        self.cpu_samples["requests_per_s"].append(len(results) / cpu_s)
        self.wall_samples["requests_per_s"].append(len(results) / wall_s)
        # Latencies are scaled by the pass's mean factor: a slice's own factor
        # carries the noise of its two bursts, which the few slowest requests,
        # those that set p99, would pick up.
        self.latencies_ms += [ns * scaled_s / cpu_s / 1e6 for ns in latencies_ns]
        self.cpu_latencies_ms += [ns / 1e6 for ns in latencies_ns]
        self.requests += len(results)
        with self.span("bench.check"):
            for (dialog, entity), result in zip(requests, results):
                self.op(self._check_request, dialog, test.snippets[entity], result)

    def _check_request(self, dialog, candidates, result) -> None:
        if isinstance(result, Exception):
            raise result
        if result.triggered != (result.detection_probability >= self.detector.threshold):
            raise CheckFailed(f"{dialog.id}: triggered disagrees with the detection probability")
        if not result.triggered:
            if result.selection is not None or result.generation_input is not None:
                raise CheckFailed(f"{dialog.id}: untriggered request carries a selection")
            return
        self.count("embedding.questions", 1)
        probabilities = result.selection.probabilities
        if not (all(p > 0 for p in probabilities) and math.isclose(math.fsum(probabilities), 1.0, abs_tol=1e-9)):
            raise CheckFailed(f"{dialog.id}: probabilities do not sum to 1")
        top = min(range(len(probabilities)), key=lambda i: (-probabilities[i], i))
        if result.top_snippet != candidates[top].ref:
            raise CheckFailed(f"{dialog.id}: top snippet is not the most probable candidate")
        if result.generation_input != _format_generation_input(candidates[top], dialog.turns):
            raise CheckFailed(f"{dialog.id}: generation input differs from format_generation_input")

    def latency_percentiles(self) -> dict[str, tuple[float, float, int]]:
        """Each of ``LATENCY_PERCENTILES`` over every request: (scaled, raw CPU, requests)."""
        scaled, raw = sorted(self.latencies_ms), sorted(self.cpu_latencies_ms)
        return {
            name: (percentile(scaled, q), percentile(raw, q), len(scaled))
            for name, q in LATENCY_PERCENTILES.items()
        }

    def cli_check(self) -> None:
        """The CLI's eval report must equal the one the library phase rendered."""
        self.op(self._cli_eval)

    def _cli_eval(self) -> None:
        knowledge, logs, labels = (str(p) for p in self.files["eval"])
        argv = ["eval", "--knowledge", knowledge, "--logs", logs, "--labels", labels,
                "--model", str(self.models / "selector.json"),
                "--detector", str(self.models / "detector.json"), "--tfidf"]
        out = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out):
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        if code != 0 or out.getvalue() != self.rendered:
            raise CheckFailed(f"kgdial eval exited {code} or printed another report")

    def round(self, round_no: int, setup_reps: int) -> None:
        """Train, set up ``setup_reps`` times (the first round must set up), then evaluate and serve.

        One full collection starts the round, so that every round begins
        with the same heap; a collection before each timed call would cost
        about 0.1 s on serve's heap, a tenth of the run.
        """
        with self.span("bench.collect"):
            gc.collect()
        self.train_phase()
        for _ in range(setup_reps):
            self.setup()
        self.eval_phase()
        self.serve_phase(round_no)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]

