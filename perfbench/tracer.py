"""Outside-in span tracing of the kgdial layers.

The tracer replaces each public function named in ``TRACED`` with a timing
wrapper, in every loaded ``kgdial`` module namespace that binds that exact
function object, so calls made through re-exports and from inside the
library are timed alike. Nothing under ``src/`` changes; ``restore`` puts
the original objects back.

Each span records name, start, end, parent span and request id. Spans are
kept in memory (up to ``MAX_SPANS``) and written as JSON lines by ``write``;
per-name call counts, inclusive time and self time are aggregated for every
span, kept or not. Self time is a span's duration minus the durations of its
direct children, which never overlap because the benchmark runs in one
thread.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# Layer module -> public functions wrapped in the traced run.
TRACED = {
    "corpus": ["load_corpus", "load_knowledge", "candidate_set"],
    "embedding": ["tokenize", "embed_pair", "build_vocabulary", "tfidf_rank"],
    "selector": [
        "node_features",
        "translation_matrix",
        "kernel_features",
        "cross_node_attention",
        "readout",
        "loss_gradient",
        "selection_instances",
        "selection_distribution",
        "train_selector",
        "save_selector",
        "load_selector",
    ],
    "detection": [
        "featurize",
        "ngram_hash",
        "detect",
        "train_detector",
        "save_detector",
        "load_detector",
    ],
    "pipeline": ["run_pipeline", "format_generation_input"],
    "evaluation": ["evaluate_selector", "evaluate_detector", "evaluate_tfidf", "report"],
}

TRACED_NAMES = frozenset(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)

# Spans kept for the JSON-lines file; aggregates cover every span.
MAX_SPANS = 200_000

# Spans inside which a tokenized question counts as a question embedding.
SELECTION_SPANS = frozenset(["embedding.embed_pair"] + [f"selector.{n}" for n in TRACED["selector"]])


class Tracer:
    """In-memory span recorder with per-name aggregates and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.root_ns = 0  # summed duration of top-level spans
        self.request = ""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # Time of selection_instances calls made inside train_selector.
        self.training_instances_ns = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.questions: frozenset[str] = frozenset()
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._embedded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        parent_id, parent_name = 0, ""
        if not self._stack:
            self.root_ns += duration
        else:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id, parent_name = parent[0], parent[1]
            if parent_name == "selector.train_selector" and name == "selector.selection_instances":
                self.training_instances_ns += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, parent_id, self.request, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (phases, set-up)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def parent_name(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever a kgdial module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kgdial" or n.startswith("kgdial.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"kgdial.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        embedding = sys.modules["kgdial.embedding"]
        for cls in (embedding.HashedGaussianVectors, embedding.FileVectors):
            original = cls.embed
            self._patched.append((cls, "embed", original))
            cls.embed = self._count_embed(original)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.split(".")[1], None)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            parent = self.parent_name()
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count_embed(self, fn):
        counters, embedded = self.counters, self._embedded

        def embed(provider, token):
            counters["embedding.embed_calls"] += 1
            seen = embedded.setdefault(provider, set())
            if token not in seen:
                seen.add(token)
                counters["embedding.embed_cache_misses"] += 1
            return fn(provider, token)

        return embed

    # -- observers: counts taken where the work happens ------------------------

    def _observe_tokenize(self, parent, args, tokens) -> None:
        if parent not in SELECTION_SPANS:
            return
        embedding = sys.modules["kgdial.embedding"]
        if args[0] in self.questions:
            self.counters["embedding.question_embeds"] += 1
            limit = embedding.MAX_QUESTION_TOKENS
        else:
            limit = embedding.MAX_KNOWLEDGE_TOKENS
        self.counters["embedding.truncated_tokens"] += max(0, len(tokens) - limit)

    def _observe_node_features(self, parent, args, features) -> None:
        self.counters["selector.pairs"] += len(args[1])

    def _observe_detect(self, parent, args, result) -> None:
        self.counters["detection.triggered"] += int(bool(result.triggered))

    # -- output ----------------------------------------------------------------

    def write(self, path, origin_ns: int) -> None:
        """Write kept spans as JSON lines, times in ns relative to ``origin_ns``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent_id, request, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "parent": parent_id,
                            "request": request,
                            "start_ns": start - origin_ns,
                            "end_ns": end - origin_ns,
                        }
                    )
                    + "\n"
                )


# Metrics read straight from ``Tracer.counters``.
COUNTERS = frozenset(
    [
        "embedding.question_embeds",
        "embedding.questions",
        "embedding.embed_cache_misses",
        "embedding.embed_calls",
        "embedding.truncated_tokens",
        "selector.pairs",
        "detection.triggered",
        "evaluation.score_ties",
    ]
)

# Ratio -> (numerator, denominator), printed with every ratio.
RATIO_BASES = {
    "embedding.question_embeds_per_question": ("embedding.question_embeds", "embedding.questions"),
    "embedding.embed_cache_miss_ratio": ("embedding.embed_cache_misses", "embedding.embed_calls"),
    "detection.triggered_ratio": ("detection.triggered", "detection.detect_calls"),
}


def layer_metrics(tracer: Tracer, names, untraced_s: float, traced_s: float) -> dict[str, float]:
    """The value of each per-layer metric in ``names`` from a finished traced section.

    Times are inclusive seconds summed over the section, counts totals over
    it. A name this module cannot compute raises ``KeyError``.
    """
    epochs = tracer.counters.get("selector.epochs", 0)
    training_ns = tracer.total_ns.get("selector.train_selector", 0) - tracer.training_instances_ns
    special = {
        "pipeline.self_s": tracer.self_ns.get("pipeline.run_pipeline", 0) / 1e9,
        "selector.attention_calls": tracer.calls.get("selector.cross_node_attention", 0),
        "selector.epoch_ms": training_ns / 1e6 / epochs if epochs else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.spans": sum(tracer.calls.values()),
    }

    def value(metric: str) -> float:
        if metric in special:
            return special[metric]
        if metric in COUNTERS:
            return tracer.counters.get(metric, 0)
        if metric in RATIO_BASES:
            numerator, denominator = (value(m) for m in RATIO_BASES[metric])
            return numerator / denominator if denominator else 0.0
        if metric.endswith("_calls") and metric.removesuffix("_calls") in TRACED_NAMES:
            return tracer.calls.get(metric.removesuffix("_calls"), 0)
        if metric.endswith("_s") and metric.removesuffix("_s") in TRACED_NAMES:
            return tracer.total_ns.get(metric.removesuffix("_s"), 0) / 1e9
        raise KeyError(f"no per-layer metric {metric!r}")

    return {metric: value(metric) for metric in names}
