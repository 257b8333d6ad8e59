"""Detection and selection metrics plus comparison reports.

Metric arithmetic deliberately uses plain Python sums and divisions (not
vectorized numerics) so results are bit-for-bit reproducible by a
straight-line reference computation. Reports render as JSON or as markdown
tables with detection columns Recall/Precision/F1 and selection columns
Acc@5/Acc@1/MRR@5, numbers at 4 decimals.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus, labeled_candidates, rank_order
from .detection import DetectorModel, _detect_batch
from .embedding import build_vocabulary, tfidf_rank
from .selector import SelectionInstance, SelectorModel, _batch, selection_instances

RANK_CUTOFF = 5


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    f1: float
    counts: dict


@dataclass(frozen=True)
class SelectionMetrics:
    acc_at_1: float
    acc_at_5: float
    mrr_at_5: float
    n_instances: int


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def detection_metrics(predictions: list[bool], gold: list[bool]) -> DetectionMetrics:
    """Precision, recall, and F1 from aligned prediction/gold boolean lists.

    Zero denominators yield 0 for the affected metric.
    """
    if len(predictions) != len(gold):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(gold)} gold")
    if not predictions:
        raise ValueError("need at least one prediction")
    tp = fp = fn = tn = 0
    for predicted, actual in zip(predictions, gold):
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
        elif actual:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return DetectionMetrics(
        precision, recall, f1_score(precision, recall), {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
    )


def selection_metrics(ranked_golden_positions: list[int]) -> SelectionMetrics:
    """Acc@1, Acc@5, and MRR@5 from 1-based golden ranks, one per instance.

    Reciprocal ranks beyond position 5 count as 0.
    """
    if not ranked_golden_positions:
        raise ValueError("need at least one ranked position")
    hits_at_1 = 0
    hits_at_5 = 0
    reciprocal_total = 0.0
    for position in ranked_golden_positions:
        if not isinstance(position, int) or position < 1:
            raise ValueError(f"positions must be integers >= 1, got {position!r}")
        if position == 1:
            hits_at_1 += 1
        if position <= RANK_CUTOFF:
            hits_at_5 += 1
            reciprocal_total += 1.0 / position
    n = len(ranked_golden_positions)
    return SelectionMetrics(hits_at_1 / n, hits_at_5 / n, reciprocal_total / n, n)


def _golden_metrics(scores: np.ndarray, golden: np.ndarray, label: str) -> SelectionMetrics:
    """Golden-rank metrics of an n x L score matrix padded with -inf, one golden column per row.

    Ranks follow :func:`~kgdial.corpus.rank_order`; candidates that tie
    with a golden score are counted in a warning.
    """
    positions = np.argmax(rank_order(scores) == golden[:, None], axis=1) + 1
    ties = int((scores == scores[np.arange(golden.size), golden][:, None]).sum()) - golden.size
    if ties:
        warnings.warn(
            f"{label}: {ties} candidate scores tied with a golden score; "
            "ranks fall back to candidate order"
        )
    return selection_metrics(positions.tolist())


def evaluate_selector(model: SelectorModel, provider, corpus: Corpus) -> SelectionMetrics:
    """Rank every labeled knowledge-seeking dialog and aggregate golden ranks.

    Candidates are ranked on readout scores, not on probabilities, which a
    confident model rounds into ties (down to exact 0 on underflow).
    """
    return _rank_instances(model, selection_instances(corpus, provider, model.kernels))


def _rank_instances(model: SelectorModel, instances: list[SelectionInstance]) -> SelectionMetrics:
    """Golden-rank metrics of :func:`evaluate_selector` on instances featurized already."""
    if not instances:
        raise ValueError("corpus has no labeled knowledge-seeking dialogs to evaluate")
    features, mask = _batch([i.features for i in instances], model.attention_enabled)
    scores = np.where(mask, features @ model.readout_weights, -np.inf)
    return _golden_metrics(scores, np.array([i.golden_index for i in instances]), "selector evaluation")


def evaluate_tfidf(corpus: Corpus) -> SelectionMetrics:
    """Golden-rank metrics for the TF-IDF baseline over the same dialogs, all scored in one call.

    The vocabulary is the corpus's own (:func:`~kgdial.embedding.build_vocabulary`):
    built on the first call and read back on each later one while the
    knowledge base is unchanged. Each labeled entity keeps its TF-IDF rows
    under that vocabulary (:func:`~kgdial.embedding.tfidf_rank`), so a
    repeat tokenizes only the labeled questions.
    """
    labeled = list(labeled_candidates(corpus))
    if not labeled:
        raise ValueError("corpus has no labeled knowledge-seeking dialogs to evaluate")
    vocab = build_vocabulary(corpus)
    scores = tfidf_rank(vocab, [d.current_turn.text for d, _, _ in labeled], [c for _, c, _ in labeled])
    return _golden_metrics(scores, np.array([g for _, _, g in labeled]), "tfidf evaluation")


def evaluate_detector(model: DetectorModel, corpus: Corpus) -> DetectionMetrics:
    """Detection metrics of the model's triggered decisions against target labels, all dialogs scored in one batch."""
    if not corpus.dialogs:
        raise ValueError("corpus has no dialogs")
    predictions = (_detect_batch(model, corpus.dialogs) >= model.threshold).tolist()
    gold = [dialog.target for dialog in corpus.dialogs]
    return detection_metrics(predictions, gold)


@dataclass(frozen=True)
class ReportEntry:
    """Metrics for one model label; either metrics block may be absent."""

    model: str
    detection: DetectionMetrics | None = None
    selection: SelectionMetrics | None = None


def report(entries: list[ReportEntry], fmt: str = "json", stamp: str | None = None) -> str:
    """Render entries as a JSON document or a pair of markdown tables.

    Output is deterministic; a stamp line appears only when ``stamp`` is
    given.
    """
    if fmt == "json":
        payload: object = [asdict(e) for e in entries]
        if stamp is not None:
            payload = {"stamp": stamp, "results": payload}
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "md":
        raise ValueError(f"format must be 'json' or 'md', got {fmt!r}")

    lines = []
    if stamp is not None:
        lines.append(f"<!-- {stamp} -->")
        lines.append("")
    lines.append("## Detection")
    lines.append("| Model | Recall | Precision | F1 |")
    lines.append("| --- | --- | --- | --- |")
    for entry in entries:
        if entry.detection is not None:
            d = entry.detection
            lines.append(f"| {entry.model} | {d.recall:.4f} | {d.precision:.4f} | {d.f1:.4f} |")
    lines.append("")
    lines.append("## Selection")
    lines.append("| Model | Acc@5 | Acc@1 | MRR@5 |")
    lines.append("| --- | --- | --- | --- |")
    for entry in entries:
        if entry.selection is not None:
            s = entry.selection
            lines.append(
                f"| {entry.model} | {s.acc_at_5:.4f} | {s.acc_at_1:.4f} | {s.mrr_at_5:.4f} |"
            )
    return "\n".join(lines) + "\n"
