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

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, EntitySnippets, KnowledgeSnippet, SnippetRef, _load, _number_array, _write_json, labeled_candidates, rank_order
from .descent import _descend, _scored_once, check_schedule
from .embedding import PairEmbedding, embed_pair, provider_from_description

# Floor applied to summed kernel responses before the log.
KERNEL_EPS = 1e-10

# The exact-match kernel counts near-identical tokens (cosine ~ 1).
EXACT_MU = 1.0
EXACT_SIGMA = 1e-3

SOFT_SIGMA = 0.1

# Largest kernel bank (``--kernels``, a selector file's ``mus``). Kernel pooling
# holds K responses per similarity entry, so K multiplies featurizing's largest
# array (about 6 times the default 11's at the cap); and 63 soft kernels of
# width SOFT_SIGMA already sit 0.032 apart, three to a width.
MAX_KERNELS = 64

# Every node feature lies in [ln KERNEL_EPS, ln MAX_KNOWLEDGE_TOKENS] ~ [-23.03, 4.85] (a kernel
# response is at most 1 and a snippet keeps at most MAX_KNOWLEDGE_TOKENS tokens), and attention only
# averages features. So a score is at most -ln KERNEL_EPS * sum_k |w_k| in magnitude, and two
# candidates' scores differ by at most SCORE_SPREAD * sum_k |w_k|.
SCORE_SPREAD = -2.0 * math.log(KERNEL_EPS)


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
        if mus.size > MAX_KERNELS:
            raise ValueError(f"need at most {MAX_KERNELS} kernels, got {mus.size}")
        if not np.all((sigmas > 0) & np.isfinite(sigmas)):
            raise ValueError("sigmas must be positive and finite")
        if not np.all(np.abs(mus) <= 1):
            raise ValueError("mus must lie in [-1, 1]")
        exact = (mus == EXACT_MU) & (sigmas == EXACT_SIGMA)
        if not exact[-1] or np.any(exact[:-1]):
            raise ValueError(
                f"exactly one exact-match kernel (mu={EXACT_MU}, sigma={EXACT_SIGMA}) "
                "must sit at the last index"
            )
        # K x 1 x 1 columns that kernel_features broadcasts against a matrix, built once per bank
        # from the mus and sigmas it checked.
        object.__setattr__(self, "_centers", mus[:, None, None].copy())
        object.__setattr__(self, "_scales", (-2.0 * np.square(sigmas))[:, None, None])

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
    if n_kernels > MAX_KERNELS:
        raise ValueError(f"n_kernels must be <= {MAX_KERNELS}, got {n_kernels}")
    n_soft = n_kernels - 1
    mus = [-1.0 + (2 * i + 1) / n_soft for i in range(n_soft)] + [EXACT_MU]
    sigmas = [SOFT_SIGMA] * n_soft + [EXACT_SIGMA]
    return KernelBank(np.array(mus), np.array(sigmas))


def translation_matrix(pair: PairEmbedding) -> np.ndarray:
    """m x p cosine similarities between the pair's question rows and its (stacked) knowledge rows.

    The one place a cosine product is taken: every pair of :func:`node_features`
    comes through here. The pair's rows are at unit norm
    (:func:`~kgdial.embedding._unit_rows`): a row of norm < 1e-12 gives
    entries of 0, and a row whose squared norm overflows keeps its cosines.
    """
    unit = pair.vectors
    return unit[: pair.m] @ unit[pair.m :].T


def kernel_features(matrix: np.ndarray, bank: KernelBank, starts=None) -> np.ndarray:
    """Soft match counts of a translation matrix: length K, or l x K given l candidates' first columns.

    Per kernel k: (1/m) * sum_i log(max(sum_j exp(-(M_ij - mu_k)^2 /
    (2 sigma_k^2)), 1e-10)), where j runs over one candidate's columns
    (all columns when ``starts`` is None). The responses are built in place
    in one K x m x p array, so each candidate's sum over j runs along the
    contiguous last axis, and the sum over i adds the rows in order, so a
    candidate's features do not depend on the other columns of the call.
    Raises ValueError unless ``starts`` begin at 0, strictly increase and
    stay below the column count.
    """
    if starts is not None and not (
        len(starts) > 0 and starts[0] == 0 and starts[-1] < matrix.shape[1]
        and all(map(operator.lt, starts, starts[1:]))
    ):
        raise ValueError(
            f"starts must begin at 0, strictly increase and stay below {matrix.shape[1]} columns, "
            f"got {[int(s) for s in starts]}"
        )
    responses = np.subtract(matrix, bank._centers)
    np.square(responses, out=responses)
    responses /= bank._scales  # -2 sigma^2, as the formula; a reciprocal moves ulps
    pooled = np.add.reduceat(np.exp(responses, out=responses), (0,) if starts is None else starts, axis=2)
    np.log(np.maximum(pooled, KERNEL_EPS, out=pooled), out=pooled)
    # Summed along the outer axis of an m x K x l copy, the m rows add in order; along the
    # middle axis, a lone candidate's m x 1 column would be summed pairwise instead.
    rows = np.ascontiguousarray(pooled.transpose(1, 0, 2))
    means = np.add.reduce(rows, axis=0) / rows.shape[0]
    features = np.ascontiguousarray(means.T)  # BLAS rounds a transposed view differently
    return features[0] if starts is None else features


def node_features(
    question: str, candidates: Sequence[KnowledgeSnippet], provider, bank: KernelBank
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
        if not np.isfinite(weights).all():
            raise ValueError("readout_weights must be finite")


def check_scorable(weights: np.ndarray) -> None:
    """Reject readout weights under which two candidates' scores could differ by more than a float holds.

    Such a model's softmax is nan: it cannot score its own candidates.
    """
    magnitudes = list(map(abs, weights.tolist()))
    if not math.isfinite(SCORE_SPREAD * sum(magnitudes)):
        raise ValueError(
            f"readout_weights too large to score candidates: {SCORE_SPREAD:.2f} * sum |w| overflows "
            f"(largest |w| {max(magnitudes):.3g}); retrain with a lower learning rate (--lr)"
        )


@dataclass(frozen=True)
class SelectionDistribution:
    """Per-candidate selection probabilities with their pre-softmax scores, and the candidates scored."""

    probabilities: np.ndarray
    scores: np.ndarray
    candidates: Sequence[KnowledgeSnippet] | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        if p.ndim != 1 or p.size < 1 or p.shape != self.scores.shape:
            raise ValueError("probabilities and scores must be equal-length vectors")
        if self.candidates is not None and len(self.candidates) != p.size:
            raise ValueError("candidates length must match probabilities")
        # A nan or -inf fails the minimum's test, a +inf the maximum's. A float sum of entries >= 0
        # is at least the largest of them, so the maximum's test rejects no vector whose sum lies
        # within 1e-9 of 1, and it keeps the sum from overflowing.
        if not (
            np.minimum.reduce(p) >= 0 and np.maximum.reduce(p) <= 2.0 and abs(np.add.reduce(p) - 1.0) <= 1e-9
        ):
            raise ValueError("probabilities must be finite, zero or positive, and sum to 1")

    @property
    def size(self) -> int:
        return self.probabilities.size


def readout(
    features: np.ndarray,
    model: SelectorModel,
    candidates: Sequence[KnowledgeSnippet] | None = None,
) -> SelectionDistribution:
    """Softmax over per-node readout scores, with max-subtraction for stability.

    Applies cross-node attention to the features first when the model's flag
    is set.
    """
    if model.attention_enabled:
        features = cross_node_attention(features)
    scores = features @ model.readout_weights
    exp = np.exp(scores - np.maximum.reduce(scores))
    return SelectionDistribution(np.divide(exp, np.add.reduce(exp), out=exp), scores, candidates)


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


def _cross_entropy(shifted: np.ndarray, log_z: np.ndarray, golden: np.ndarray) -> float:
    """Mean of log Z - s_golden given :func:`_shifted_scores`' results.

    Written as log Z minus the shifted golden score, not as -log P: the
    default fit's exact 0.0 loss would otherwise read -0.0. The sum over
    ``np.add.reduce`` divided by n is ``mean``'s arithmetic without its
    Python-level wrapper.
    """
    return float(np.add.reduce(log_z[:, 0] - shifted[np.arange(golden.size), golden]) / golden.size)


def loss_gradient(
    features: np.ndarray, model: SelectorModel, golden_index, mask=None, log_probabilities=None
) -> np.ndarray:
    """Gradient of the mean cross-entropy loss with respect to the readout weights.

    Takes one instance (l x K node features and an int ``golden_index``) or
    a zero-padded batch (n x L x K features, n golden indices and the n x L
    ``mask`` of real candidates). Equals the mean over instances of
    sum_l (P_l - 1[l = golden]) * S_l, where S_l is the attention output
    when the model's flag is set. The attention has no parameters, so a
    batch carries features that were attended when it was built (see
    ``train_selector``) and the flag is read for a single instance only.

    ``log_probabilities``, when given, are log P at the model's weights as
    ``shifted - log_z`` of :func:`_shifted_scores` (n x L for a batch, length
    l for one instance); they replace the forward pass, with the same result
    bit for bit.
    """
    if mask is None:
        if not 0 <= golden_index < len(features):
            raise IndexError(f"golden_index {golden_index} out of range for {len(features)} candidates")
        features, mask = _batch([features], model.attention_enabled)
        golden_index = np.array([golden_index])
        if log_probabilities is not None:
            log_probabilities = log_probabilities[None]
    if log_probabilities is None:
        shifted, log_z = _shifted_scores(features, mask, model.readout_weights)
        log_probabilities = shifted - log_z
    elif log_probabilities.shape != mask.shape:
        raise ValueError(f"log_probabilities must have shape {mask.shape}, got {log_probabilities.shape}")
    residual = np.exp(log_probabilities)
    residual[np.arange(golden_index.size), golden_index] -= 1.0
    return np.einsum("nl,nlk->k", residual, features) / golden_index.size


@dataclass(frozen=True)
class SelectionInstance:
    """One trainable dialog: candidate features plus the golden row index."""

    features: np.ndarray
    golden_index: int


def selection_instances(corpus: Corpus, provider, bank: KernelBank) -> list[SelectionInstance]:
    """Features for every labeled knowledge-seeking dialog, in corpus order: :func:`node_features` of each.

    Candidates come from the golden reference's entity; the golden index is
    its position in the entity's stored snippet order. Each dialog takes the
    request path, so a pass fills each entity's knowledge index (see
    :func:`~kgdial.embedding.embed_pair`) and a later pass, or a request, on
    the same corpus and provider reads it.
    """
    return [SelectionInstance(node_features(dialog.current_turn.text, candidates, provider, bank), golden_index)
            for dialog, candidates, golden_index in labeled_candidates(corpus)]


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
    An epoch that leaves the weights unchanged ends the descent, and the
    trajectory is padded with its loss: on the synthetic corpora the
    default fit stops at its second epoch, whose step rounds away.
    Deterministic for fixed inputs and hyperparameters.
    """
    bank = default_kernel_bank(hyper.n_kernels)
    return _fit(selection_instances(corpus, provider, bank), bank, hyper)


def _fit(
    instances: list[SelectionInstance], bank: KernelBank, hyper: SelectorHyper
) -> tuple[SelectorModel, list[float]]:
    """The descent of :func:`train_selector` on instances featurized with ``bank``.

    Each weight vector is scored once: a kept trial's forward pass, taken for
    its loss, also serves the next epoch's gradient.
    """
    if not instances:
        raise ValueError("corpus has no labeled knowledge-seeking dialogs to train on")

    features, mask = _batch([i.features for i in instances], hyper.attention_flag)
    golden = np.array([i.golden_index for i in instances])

    forward = _scored_once(lambda w: _shifted_scores(features, mask, w))

    def gradient(w):
        shifted, log_z = forward(w)
        return loss_gradient(features, SelectorModel(bank, w), golden, mask, shifted - log_z)

    weights, losses = _descend(
        lambda w: _cross_entropy(*forward(w), golden), gradient,
        np.zeros(bank.size), hyper.lr, hyper.epochs, hyper.line_search,
    )
    check_scorable(weights)
    return SelectorModel(bank, weights, hyper.attention_flag), losses


def selection_distribution(
    model: SelectorModel, provider, question: str, candidates: Sequence[KnowledgeSnippet]
) -> SelectionDistribution:
    """End-to-end distribution over the given candidates for one question.

    The result carries the candidates: a given :class:`~kgdial.corpus.EntitySnippets`
    as it is, any other sequence as a tuple.
    """
    features = node_features(question, candidates, provider, model.kernels)
    return readout(features, model, candidates if type(candidates) is EntitySnippets else tuple(candidates))


def rank(
    model: SelectorModel, provider, question: str, candidates: Sequence[KnowledgeSnippet]
) -> list[tuple[SnippetRef, float]]:
    """Candidates with their probabilities, in :func:`~kgdial.corpus.rank_order` of readout score.

    Probabilities would not do: a confident model rounds them into ties, down to 0 on underflow.
    """
    dist = selection_distribution(model, provider, question, candidates)
    return [(candidates[i].ref, float(dist.probabilities[i])) for i in rank_order(dist.scores).tolist()]


def save_selector(model: SelectorModel, provider, path) -> None:
    """Write the model and its provider description as JSON with exact float round-trip."""
    payload = {
        "mus": model.kernels.mus.tolist(),
        "sigmas": model.kernels.sigmas.tolist(),
        "readout_weights": model.readout_weights.tolist(),
        "attention_flag": model.attention_enabled,
        "provider": provider.describe(),
    }
    _write_json(payload, path)


def _parse_selector(payload) -> tuple[SelectorModel, object]:
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    if not isinstance(payload["attention_flag"], bool):
        raise ValueError(f"'attention_flag' must be true or false, got {payload['attention_flag']!r}")
    if not isinstance(payload["provider"], dict):
        raise ValueError(f"'provider' must be an object, got {payload['provider']!r}")
    bank = KernelBank(_number_array(payload, "mus"), _number_array(payload, "sigmas"))
    model = SelectorModel(bank, _number_array(payload, "readout_weights"), payload["attention_flag"])
    check_scorable(model.readout_weights)
    return model, provider_from_description(payload["provider"])


def load_selector(path) -> tuple[SelectorModel, object]:
    """Read a model file written by :func:`save_selector`; returns (model, provider).

    A malformed file raises CorpusError (a ValueError) with a message that starts with ``path``.
    """
    return _load(path, _parse_selector)
