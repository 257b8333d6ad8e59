"""Kernel-based knowledge selection over question-knowledge similarity matrices.

Each candidate snippet becomes one node: the question and snippet token
embeddings form an m x p cosine translation matrix, a bank of Gaussian
kernels turns that matrix into a K-dimensional soft match-count feature, and
a shared linear readout followed by a softmax over candidates yields the
selection distribution. Embeddings and kernels stay frozen; only the readout
weights train, so the objective is convex and training deterministic.

Feature convention: per query token, kernel responses are summed over
knowledge tokens, clamped at 1e-10, logged, then averaged over query tokens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, KnowledgeSnippet, SnippetRef, _number_array, _read_json, labeled_candidates, rank_order
from .descent import _descend, check_schedule
from .embedding import PairEmbedding, embed_pair, provider_from_description

# Floor applied to summed kernel responses before the log.
KERNEL_EPS = 1e-10

# The exact-match kernel counts near-identical tokens (cosine ~ 1).
EXACT_MU = 1.0
EXACT_SIGMA = 1e-3

SOFT_SIGMA = 0.1


@dataclass(frozen=True)
class KernelBank:
    """Gaussian kernel centers and widths; the exact-match kernel sits last."""

    mus: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        mus = np.asarray(self.mus, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "sigmas", sigmas)
        if mus.ndim != 1 or mus.shape != sigmas.shape:
            raise ValueError("mus and sigmas must be equal-length vectors")
        if mus.size < 2:
            raise ValueError(f"need at least 2 kernels, got {mus.size}")
        if not np.all(sigmas > 0):
            raise ValueError("sigmas must be positive")
        if not np.all(np.abs(mus) <= 1):
            raise ValueError("mus must lie in [-1, 1]")
        exact = (mus == EXACT_MU) & (sigmas == EXACT_SIGMA)
        if not exact[-1] or np.any(exact[:-1]):
            raise ValueError(
                f"exactly one exact-match kernel (mu={EXACT_MU}, sigma={EXACT_SIGMA}) "
                "must sit at the last index"
            )

    @property
    def size(self) -> int:
        return self.mus.size


def default_kernel_bank(n_kernels: int) -> KernelBank:
    """n_kernels - 1 evenly spaced soft kernels (sigma 0.1) plus the exact-match kernel.

    Soft centers are the midpoints of an even partition of [-1, 1]; for the
    11 kernels they are -0.9, -0.7, ..., 0.9.
    """
    if n_kernels < 2:
        raise ValueError(f"n_kernels must be >= 2, got {n_kernels}")
    n_soft = n_kernels - 1
    mus = [-1.0 + (2 * i + 1) / n_soft for i in range(n_soft)] + [EXACT_MU]
    sigmas = [SOFT_SIGMA] * n_soft + [EXACT_SIGMA]
    return KernelBank(np.array(mus), np.array(sigmas))


def translation_matrix(pair: PairEmbedding) -> np.ndarray:
    """m x p cosine similarities between question and (stacked) knowledge token vectors.

    Both sides' rows are normalized together in one pass. Rows or columns
    backed by a vector of norm < 1e-12 produce entries of 0. A row whose
    squared norm overflows is first divided by its largest magnitude, so its
    cosines are those of the same direction at a representable scale.
    """
    vectors = np.concatenate((pair.question_vectors, pair.knowledge_vectors))
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        squares = np.add.reduce(vectors * vectors, axis=1)  # pairwise, as np.linalg.norm; einsum moves ulps
    overflow = np.isinf(squares)
    if overflow.any():
        vectors[overflow] /= np.abs(vectors[overflow]).max(axis=1, keepdims=True)
        squares[overflow] = np.add.reduce(vectors[overflow] ** 2, axis=1)
    norms = np.sqrt(squares, out=squares)
    norms[norms < 1e-12] = np.inf
    unit = vectors * (1.0 / norms)[:, None]
    return unit[: pair.m] @ unit[pair.m :].T


def kernel_features(matrix: np.ndarray, bank: KernelBank, starts=None) -> np.ndarray:
    """Soft match counts of a translation matrix: length K, or l x K given l candidates' first columns.

    Per kernel k: (1/m) * sum_i log(max(sum_j exp(-(M_ij - mu_k)^2 /
    (2 sigma_k^2)), 1e-10)), where j runs over one candidate's columns
    (all columns when ``starts`` is None). The responses are built in place
    in one K x m x p array, so each candidate's sum over j runs along the
    contiguous last axis.
    """
    responses = np.subtract(matrix, bank.mus[:, None, None])
    np.square(responses, out=responses)
    responses /= (-2.0 * np.square(bank.sigmas))[:, None, None]  # as the formula; a reciprocal moves ulps
    pooled = np.add.reduceat(np.exp(responses, out=responses), (0,) if starts is None else starts, axis=2)
    np.log(np.maximum(pooled, KERNEL_EPS, out=pooled), out=pooled)
    features = np.ascontiguousarray(pooled.mean(axis=1).T)  # BLAS rounds a transposed view differently
    return features[0] if starts is None else features


def node_features(
    question: str, candidates: list[KnowledgeSnippet], provider, bank: KernelBank
) -> np.ndarray:
    """l x K matrix of per-candidate kernel features, rows in candidate order, from one matrix."""
    pair = embed_pair(provider, question, candidates)
    return kernel_features(translation_matrix(pair), bank, pair.knowledge_starts)


def cross_node_attention(features: np.ndarray) -> np.ndarray:
    """Parameter-free mixing of node features by scaled dot-product weights.

    Row n of the output is sum_j alpha_nj * S_j with alpha_n = softmax over j
    of S_n . S_j / sqrt(K). A single node passes through unchanged.
    """
    k = features.shape[1]
    logits = features @ features.T / np.sqrt(k)
    logits -= logits.max(axis=1, keepdims=True)
    alpha = np.exp(logits)
    alpha /= alpha.sum(axis=1, keepdims=True)
    return alpha @ features


@dataclass(frozen=True)
class SelectorModel:
    """Frozen kernel bank plus the trainable linear readout.

    The readout has no bias: adding a constant to every candidate score
    leaves the softmax unchanged, so a bias is unidentifiable.
    """

    kernels: KernelBank
    readout_weights: np.ndarray
    attention_enabled: bool = False

    def __post_init__(self):
        weights = np.asarray(self.readout_weights, dtype=float)
        object.__setattr__(self, "readout_weights", weights)
        if weights.shape != (self.kernels.size,):
            raise ValueError(
                f"readout_weights must have length {self.kernels.size}, got shape {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("readout_weights must be finite")


@dataclass(frozen=True)
class SelectionDistribution:
    """Per-candidate selection probabilities with their pre-softmax scores."""

    probabilities: np.ndarray
    scores: np.ndarray
    candidate_refs: tuple[SnippetRef, ...] | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        if p.ndim != 1 or p.size < 1 or p.shape != self.scores.shape:
            raise ValueError("probabilities and scores must be equal-length vectors")
        if self.candidate_refs is not None and len(self.candidate_refs) != p.size:
            raise ValueError("candidate_refs length must match probabilities")
        if not np.all(np.isfinite(p) & (p >= 0)) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be finite, zero or positive, and sum to 1")

    @property
    def size(self) -> int:
        return self.probabilities.size


def readout(
    features: np.ndarray,
    model: SelectorModel,
    candidate_refs: tuple[SnippetRef, ...] | None = None,
) -> SelectionDistribution:
    """Softmax over per-node readout scores, with max-subtraction for stability.

    Applies cross-node attention to the features first when the model's flag
    is set.
    """
    if model.attention_enabled:
        features = cross_node_attention(features)
    scores = features @ model.readout_weights
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return SelectionDistribution(exp / exp.sum(), scores, candidate_refs)


def selection_loss(dist: SelectionDistribution, golden_index: int) -> float:
    """Cross-entropy -log P(golden), evaluated in log-space from the scores."""
    if not 0 <= golden_index < dist.size:
        raise IndexError(f"golden_index {golden_index} out of range for {dist.size} candidates")
    shifted = dist.scores - dist.scores.max()
    log_z = dist.scores.max() + np.log(np.exp(shifted).sum())
    return float(log_z - dist.scores[golden_index])


def _batch(feature_list: list[np.ndarray], attention: bool) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded n x L x K node features and the n x L mask of real candidates.

    Attention has no parameters, so it is applied here, once per instance and
    before padding (padded rows must not join the attention softmax).
    """
    widths = [f.shape[0] for f in feature_list]
    features = np.zeros((len(feature_list), max(widths), feature_list[0].shape[1]))
    for row, f in enumerate(feature_list):
        features[row, : widths[row]] = cross_node_attention(f) if attention else f
    return features, np.arange(features.shape[1]) < np.array(widths)[:, None]


def _shifted_scores(features: np.ndarray, mask: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """n x L readout scores minus each instance's maximum, and n x 1 log-sum-exps of them.

    Padded entries score -inf, so their probability is exactly 0.
    """
    scores = np.where(mask, features @ weights, -np.inf)
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted, np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _mean_loss(features: np.ndarray, mask: np.ndarray, golden: np.ndarray, weights) -> float:
    """Mean cross-entropy log Z - s_golden over a padded batch."""
    shifted, log_z = _shifted_scores(features, mask, weights)
    return float((log_z[:, 0] - shifted[np.arange(golden.size), golden]).mean())


def loss_gradient(features: np.ndarray, model: SelectorModel, golden_index, mask=None) -> np.ndarray:
    """Gradient of the mean cross-entropy loss with respect to the readout weights.

    Takes one instance (l x K node features and an int ``golden_index``) or
    a zero-padded batch (n x L x K features, n golden indices and the n x L
    ``mask`` of real candidates). Equals the mean over instances of
    sum_l (P_l - 1[l = golden]) * S_l, where S_l is the attention output
    when the model's flag is set. The attention has no parameters, so a
    batch carries features that were attended when it was built (see
    ``train_selector``) and the flag is read for a single instance only.
    """
    if mask is None:
        if not 0 <= golden_index < len(features):
            raise IndexError(f"golden_index {golden_index} out of range for {len(features)} candidates")
        features, mask = _batch([features], model.attention_enabled)
        golden_index = np.array([golden_index])
    shifted, log_z = _shifted_scores(features, mask, model.readout_weights)
    residual = np.exp(shifted - log_z)
    residual[np.arange(golden_index.size), golden_index] -= 1.0
    return np.einsum("nl,nlk->k", residual, features) / golden_index.size


@dataclass(frozen=True)
class SelectionInstance:
    """One trainable dialog: candidate features plus the golden row index."""

    features: np.ndarray
    golden_index: int


def selection_instances(corpus: Corpus, provider, bank: KernelBank) -> list[SelectionInstance]:
    """Features for every labeled knowledge-seeking dialog, in corpus order.

    Candidates come from the golden reference's entity; the golden index is
    its position in the entity's stored snippet order.
    """
    return [
        SelectionInstance(node_features(dialog.current_turn.text, candidates, provider, bank), golden_index)
        for dialog, candidates, golden_index in labeled_candidates(corpus)
    ]


@dataclass(frozen=True)
class SelectorHyper:
    lr: float = 0.5
    epochs: int = 200
    attention_flag: bool = False
    n_kernels: int = 11
    line_search: bool = False

    def __post_init__(self):
        check_schedule(self.lr, self.epochs)


def train_selector(
    corpus: Corpus, provider, hyper: SelectorHyper = SelectorHyper()
) -> tuple[SelectorModel, list[float]]:
    """Full-batch gradient descent on the readout weights from zero init.

    Returns the trained model and the mean training loss trajectory
    (epochs + 1 entries, the first at initialization). With ``line_search``
    the step is halved until the mean loss does not increase, so the
    trajectory is non-increasing; without it the fixed ``lr`` is applied.
    Deterministic for fixed inputs and hyperparameters.
    """
    bank = default_kernel_bank(hyper.n_kernels)
    return _fit(selection_instances(corpus, provider, bank), bank, hyper)


def _fit(
    instances: list[SelectionInstance], bank: KernelBank, hyper: SelectorHyper
) -> tuple[SelectorModel, list[float]]:
    """The descent of :func:`train_selector` on instances featurized with ``bank``."""
    if not instances:
        raise ValueError("corpus has no labeled knowledge-seeking dialogs to train on")

    features, mask = _batch([i.features for i in instances], hyper.attention_flag)
    golden = np.array([i.golden_index for i in instances])
    weights, losses = _descend(
        lambda w: _mean_loss(features, mask, golden, w),
        lambda w: loss_gradient(features, SelectorModel(bank, w), golden, mask),
        np.zeros(bank.size), hyper.lr, hyper.epochs, hyper.line_search,
    )
    return SelectorModel(bank, weights, hyper.attention_flag), losses


def selection_distribution(
    model: SelectorModel, provider, question: str, candidates: list[KnowledgeSnippet]
) -> SelectionDistribution:
    """End-to-end distribution over the given candidates for one question."""
    features = node_features(question, candidates, provider, model.kernels)
    return readout(features, model, tuple(c.ref for c in candidates))


def rank(
    model: SelectorModel, provider, question: str, candidates: list[KnowledgeSnippet]
) -> list[tuple[SnippetRef, float]]:
    """Candidates with their probabilities, in :func:`~kgdial.corpus.rank_order` of readout score.

    Probabilities would not do: a confident model rounds them into ties, down to 0 on underflow.
    """
    dist = selection_distribution(model, provider, question, candidates)
    return [(dist.candidate_refs[i], float(dist.probabilities[i])) for i in rank_order(dist.scores).tolist()]


def save_selector(model: SelectorModel, provider, path) -> None:
    """Write the model and its provider description as JSON with exact float round-trip."""
    payload = {
        "mus": model.kernels.mus.tolist(),
        "sigmas": model.kernels.sigmas.tolist(),
        "readout_weights": model.readout_weights.tolist(),
        "attention_flag": model.attention_enabled,
        "provider": provider.describe(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_selector(path) -> tuple[SelectorModel, object]:
    """Read a model file written by :func:`save_selector`; returns (model, provider).

    A malformed file raises ValueError with a message that starts with ``path``.
    """
    payload = _read_json(path)
    try:
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        if not isinstance(payload["attention_flag"], bool):
            raise ValueError(f"'attention_flag' must be true or false, got {payload['attention_flag']!r}")
        if not isinstance(payload["provider"], dict):
            raise ValueError(f"'provider' must be an object, got {payload['provider']!r}")
        bank = KernelBank(_number_array(payload, "mus"), _number_array(payload, "sigmas"))
        model = SelectorModel(bank, _number_array(payload, "readout_weights"), payload["attention_flag"])
        provider = provider_from_description(payload["provider"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, provider
