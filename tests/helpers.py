"""Independent straight-line oracles, tiny providers and file edits used across tests.

Everything here is deliberately unvectorized and written separately from the
package so it can serve as a reference implementation.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import zlib

import numpy as np

from kgdial.embedding import (
    MAX_KNOWLEDGE_TOKENS,
    MAX_QUESTION_TOKENS,
    tokenize,
)


def count_calls(monkeypatch, home, name) -> list:
    """Record the positional arguments of each call of ``home.name`` through every kgdial module that binds it."""
    original = getattr(home, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kgdial") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class FixedProvider:
    """Maps listed tokens to given vectors; everything else to zeros."""

    kind = "fixed"

    def __init__(self, vectors: dict[str, list[float]]):
        self._vectors = {t: np.array(v, dtype=float) for t, v in vectors.items()}
        self.dim = next(iter(self._vectors.values())).size

    def embed(self, token):
        return self._vectors.get(token, np.zeros(self.dim))

    def embed_tokens(self, tokens):
        return np.array([self.embed(t) for t in tokens])


class ScaledProvider:
    """Wraps a provider and multiplies every vector by a constant."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor
        self.dim = base.dim

    def embed(self, token):
        return self.factor * self.base.embed(token)

    def embed_tokens(self, tokens):
        return np.array([self.embed(t) for t in tokens])


class EmbedTokensOnly:
    """Wraps a provider behind its ``embed_tokens`` alone, so its rows take the path of providers without a unit table."""

    def __init__(self, base):
        self.base = base

    def embed_tokens(self, tokens):
        return self.base.embed_tokens(tokens)


class RawVectors:
    """The raw oracle: a provider's vectors as drawn or read, before the provider normalizes them.

    Built from the provider's ``describe()``. A hashed-Gaussian token's vector
    is ``default_rng`` seeded by the blake2b digest of (seed, token), drawn with
    ``standard_normal(dim)``; a vectors file's is a ``float()`` parse of the
    token's line, and the zero vector out of vocabulary.
    """

    def __init__(self, provider):
        description = provider.describe()
        self.dim = description["dim"]
        self.seed = description.get("seed")
        self.lines = {}
        if "path" in description:
            with open(description["path"], encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        token, *entries = line.split()
                        self.lines[token] = np.array([float(x) for x in entries])

    def embed(self, token):
        if self.seed is None:
            return self.lines.get(token, np.zeros(self.dim))
        key = hashlib.blake2b(self.seed.to_bytes(8, "big", signed=True) + token.encode("utf-8"), digest_size=16)
        return np.random.default_rng(int.from_bytes(key.digest(), "big")).standard_normal(self.dim)

    def embed_tokens(self, tokens):
        return np.array([self.embed(t) for t in tokens]).reshape(len(tokens), self.dim)


def naive_cosine(a, b) -> float:
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a, b):
        dot += float(x) * float(y)
        na += float(x) * float(x)
        nb += float(y) * float(y)
    na = math.sqrt(na)
    nb = math.sqrt(nb)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return dot / (na * nb)


def naive_node_features(question, candidates, provider, bank) -> np.ndarray:
    """Triple-loop re-implementation of the per-candidate kernel features."""
    features = []
    q_tokens = tokenize(question)[:MAX_QUESTION_TOKENS]
    for candidate in candidates:
        k_tokens = tokenize(candidate.title + " " + candidate.body)[:MAX_KNOWLEDGE_TOKENS]
        q_vectors = [provider.embed(t) for t in q_tokens]
        k_vectors = [provider.embed(t) for t in k_tokens]
        similarity = [[naive_cosine(q, k) for k in k_vectors] for q in q_vectors]
        row = []
        for mu, sigma in zip(bank.mus, bank.sigmas):
            total = 0.0
            for i in range(len(q_vectors)):
                inner = 0.0
                for j in range(len(k_vectors)):
                    delta = similarity[i][j] - float(mu)
                    inner += math.exp(-(delta * delta) / (2.0 * float(sigma) * float(sigma)))
                total += math.log(max(inner, 1e-10))
            row.append(total / len(q_vectors))
        features.append(row)
    return np.array(features)


def oracle_tfidf_scores(doc_freq: dict, n_documents: int, question: str, candidates) -> list[float]:
    """Dict-based TF-IDF cosine of the question against each candidate, in candidate order.

    Weight = raw count * (ln((1 + N) / (1 + df)) + 1); tokens outside ``doc_freq`` are dropped, and a
    question or candidate with no weight scores 0. Sums run in each text's token order.
    """

    def weights(text):
        result = {}
        for token in tokenize(text):
            if token in doc_freq:
                result[token] = result.get(token, 0) + 1
        return {t: c * (math.log((1 + n_documents) / (1 + doc_freq[t])) + 1.0) for t, c in result.items()}

    q_weights = weights(question)
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))
    scores = []
    for candidate in candidates:
        c_weights = weights(candidate.title + " " + candidate.body)
        c_norm = math.sqrt(sum(w * w for w in c_weights.values()))
        if q_norm < 1e-12 or c_norm < 1e-12:
            scores.append(0.0)
        else:
            dot = sum(w * c_weights[t] for t, w in q_weights.items() if t in c_weights)
            scores.append(min(max(dot / (q_norm * c_norm), 0.0), 1.0))
    return scores


def oracle_ngram_index(ngram: str, hash_dim: int) -> int:
    return zlib.crc32(ngram.encode("utf-8")) % hash_dim


def oracle_detector_features(serialized: str, turn_count: int, hash_dim: int, turn_buckets: int) -> np.ndarray:
    """Dense hashed unigram+bigram counts of a serialized dialog, then its one-hot turn bucket."""
    tokens = tokenize(serialized)
    values = np.zeros(hash_dim + turn_buckets)
    for gram in tokens + [first + " " + second for first, second in zip(tokens, tokens[1:])]:
        values[oracle_ngram_index(gram, hash_dim)] += 1.0
    values[hash_dim + min(turn_count, turn_buckets) - 1] = 1.0
    return values


def straight_line_detect_score(weights: np.ndarray, columns) -> float:
    """The detector's probability as it was before ``detect_score`` dropped its numpy scalar round trips.

    A fancy-indexed ``sum``, then the two-exp logistic function that the batch path still runs.
    """
    z = weights[columns].sum()
    return float(np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-abs(z))))


def first_probability_rule(probabilities) -> bool:
    """Whether ``SelectionDistribution`` accepted the vector as first written.

    Every entry finite and >= 0, then the sum within 1e-9 of 1. The sum's
    overflow warning is silenced: an overflowing sum is inf and rejected.
    """
    p = np.asarray(probabilities, dtype=float)
    if not np.all(np.isfinite(p) & (p >= 0)):
        return False
    with np.errstate(over="ignore"):
        return not abs(p.sum() - 1.0) > 1e-9


def straight_line_softmax(scores: np.ndarray) -> np.ndarray:
    """exp(s - max s) divided by its sum, through numpy's ``max`` and ``sum`` methods, as readout first wrote it."""
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def first_unit_rows(vectors: np.ndarray) -> np.ndarray:
    """The rows at unit norm as first written: a norm below 1e-12 becomes inf, so its row scales by 1/inf = 0.

    A row whose squared norm overflows is divided by its largest magnitude, in a copy, first.
    """
    with np.errstate(over="ignore"):
        squares = np.add.reduce(vectors * vectors, axis=1)
    overflow = np.isinf(squares)
    if overflow.any():
        vectors = vectors.copy()
        vectors[overflow] /= np.abs(vectors[overflow]).max(axis=1, keepdims=True)
        squares[overflow] = np.add.reduce(vectors[overflow] ** 2, axis=1)
    norms = np.sqrt(squares)
    norms[norms < 1e-12] = np.inf
    return vectors * (1.0 / norms)[:, None]


def first_kernel_features(matrix: np.ndarray, mus, sigmas, starts) -> np.ndarray:
    """l x K kernel features with the center and -2 sigma^2 columns built from ``mus`` and ``sigmas`` on the call."""
    mus, sigmas = np.asarray(mus, dtype=float), np.asarray(sigmas, dtype=float)
    responses = np.subtract(matrix, mus[:, None, None])
    np.square(responses, out=responses)
    responses /= (-2.0 * np.square(sigmas))[:, None, None]
    pooled = np.add.reduceat(np.exp(responses, out=responses), starts, axis=2)
    np.log(np.maximum(pooled, 1e-10, out=pooled), out=pooled)
    rows = np.ascontiguousarray(pooled.transpose(1, 0, 2))
    return np.ascontiguousarray((np.add.reduce(rows, axis=0) / rows.shape[0]).T)


SPEAKER_TAGS = {"U": ("[User]", "<sp1>"), "S": ("[Sys]", "<sp2>")}


def oracle_serialize_dialog(turns) -> str:
    """The current user turn, then every turn in order, each behind its detector tag."""
    *history, current = turns
    return "".join(SPEAKER_TAGS[turn.speaker.value][0] + turn.text for turn in [current, *history])


def oracle_generation_input(snippet, history, response=None) -> str:
    """<BOS>, the snippet's title and body, each turn behind its generation tag, then <sp2>, the response and <EOS>."""
    tagged = "".join(SPEAKER_TAGS[turn.speaker.value][1] + turn.text for turn in history)
    return f"<BOS>{snippet.title} {snippet.body}{tagged}<sp2>{response or ''}<EOS>"


def full_width_detector_descent(dialog_columns, labels, dim: int, lr: float, epochs: int, line_search: bool):
    """The detector trainer as it was before it narrowed to the used columns, kept as a reference.

    Takes each dialog's ``featurize`` columns. Every epoch scores the weights
    for the gradient, a ``bincount`` over all ``dim`` columns, and scores each
    trial again for its loss. Line search halves the step up to 60 times.
    Returns the weights, the loss trajectory and the number of rejected trials.
    """
    columns = np.array([c for row in dialog_columns for c in row], dtype=np.int64)
    rows = np.repeat(np.arange(len(dialog_columns)), [len(row) for row in dialog_columns])
    labels = np.asarray(labels, dtype=float)
    n = len(labels)

    def scores(weights):
        return np.bincount(rows, weights=weights[columns], minlength=n)

    def loss(weights):
        return float(np.logaddexp(0.0, (1.0 - 2.0 * labels) * scores(weights)).mean())

    weights = np.zeros(dim)
    losses = [loss(weights)]
    rejected = 0
    for _ in range(epochs):
        z = scores(weights)
        residual = np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-abs(z))) - labels
        direction = np.bincount(columns, weights=residual[rows], minlength=dim) / n
        step, current = lr, losses[-1]
        for _ in range(60 if line_search else 1):
            trial = weights - step * direction
            trial_loss = loss(trial)
            if trial_loss <= current or not line_search:
                weights, current = trial, trial_loss
                break
            rejected += 1
            step /= 2
        losses.append(current)
    return weights, losses, rejected


def naive_descend(loss, gradient, w0, lr: float, epochs: int, line_search: bool):
    """The shared descent loop as it was before it stopped at a fixed point, kept as a reference.

    Runs every one of ``epochs`` steps. Line search halves the step up to 60
    times and keeps the weights if no try lowers or keeps the loss. Returns the
    weights and the loss trajectory (epochs + 1 entries).
    """
    weights = w0
    losses = [loss(weights)]
    for _ in range(epochs):
        direction = gradient(weights)
        step, current = lr, losses[-1]
        for _ in range(60 if line_search else 1):
            trial = weights - step * direction
            trial_loss = loss(trial)
            if trial_loss <= current or not line_search:
                weights, current = trial, trial_loss
                break
            step /= 2
        losses.append(current)
    return weights, losses


def oracle_golden_position(scores, golden_index: int) -> tuple[int, int]:
    """1-based rank of the golden candidate under (score desc, index asc), plus its tie count."""
    golden_score = scores[golden_index]
    position = 1
    ties = 0
    for index, score in enumerate(scores):
        if score > golden_score or (score == golden_score and index < golden_index):
            position += 1
        if score == golden_score and index != golden_index:
            ties += 1
    return position, ties


def oracle_detection_metrics(predictions, gold) -> dict:
    tp = sum(1 for p, g in zip(predictions, gold) if p and g)
    fp = sum(1 for p, g in zip(predictions, gold) if p and not g)
    fn = sum(1 for p, g in zip(predictions, gold) if not p and g)
    tn = sum(1 for p, g in zip(predictions, gold) if not p and not g)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "counts": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    }


def oracle_selection_metrics(positions) -> dict:
    n = len(positions)
    acc1 = sum(1 for p in positions if p == 1) / n
    acc5 = sum(1 for p in positions if p <= 5) / n
    reciprocal = 0.0
    for p in positions:
        reciprocal += (1.0 / p) if p <= 5 else 0.0
    return {"acc_at_1": acc1, "acc_at_5": acc5, "mrr_at_5": reciprocal / n, "n_instances": n}


def finite_difference_gradient(loss_of_weights, weights: np.ndarray, h: float = 1e-5) -> np.ndarray:
    gradient = np.zeros_like(weights)
    for k in range(weights.size):
        upper = weights.copy()
        lower = weights.copy()
        upper[k] += h
        lower[k] -= h
        gradient[k] = (loss_of_weights(upper) - loss_of_weights(lower)) / (2.0 * h)
    return gradient


def with_field(key, value):
    """Edit of a JSON object's text that sets ``key`` to ``value``."""
    return lambda text: json.dumps({**json.loads(text), key: value})


def with_kernels(size: int):
    """Edit of a selector file's text that gives it ``size`` kernels: soft ones at 0, then the exact-match one."""
    return lambda text: json.dumps({**json.loads(text), "mus": [0.0] * (size - 1) + [1.0],
                                    "sigmas": [0.1] * (size - 1) + [1e-3]})


def with_literal(key, index, literal: str):
    """Edit of a JSON object's text that writes ``literal`` verbatim as item ``index`` of array ``key``.

    JSON reads a literal such as ``1e400`` as infinity, which ``json.dumps`` would write as ``Infinity``.
    """

    def edit(text):
        payload = json.loads(text)
        payload[key][index] = "<literal>"
        return json.dumps(payload).replace('"<literal>"', literal)

    return edit


def without_field(key):
    """Edit of a JSON object's text that removes ``key``."""
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def as_array(text: str) -> str:
    """Wrap a JSON document in a one-element array."""
    return json.dumps([json.loads(text)])


def truncated(text: str) -> str:
    """The first half of a file, as a write cut short leaves it."""
    return text[: len(text) // 2]
