"""Tokenization, deterministic token-embedding providers, and a TF-IDF ranker.

Providers stand in for a large contextual encoder: they map each token to a
fixed vector, so question and knowledge sides can be embedded independently
and compared by cosine. Two providers are available:

* :class:`HashedGaussianVectors` draws each token's vector from a generator
  keyed by (seed, token); no vocabulary file needed, stable across runs.
* :class:`FileVectors` reads pretrained vectors from a text file
  (``token v_1 ... v_d`` per line); unknown tokens embed to the zero vector.

Question/knowledge token sequences are truncated to 64 and 128 tokens.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, KnowledgeSnippet, rank_order

# Sentinel emitted for text with no alphanumeric content, so every text
# embeds to at least one row.
EMPTY_TOKEN = "⟨empty⟩"

MAX_QUESTION_TOKENS = 64
MAX_KNOWLEDGE_TOKENS = 128

# Unicode alphanumeric runs, underscore excluded.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs, dropping empty pieces.

    Returns ``[EMPTY_TOKEN]`` when the text has no alphanumeric character.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return tokens if tokens else [EMPTY_TOKEN]


class _TokenVectors:
    """Base of the providers: stacks per-token :meth:`embed` vectors row-wise."""

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        """len(tokens) x dim matrix of the tokens' vectors, one :meth:`embed` call per token (0 x dim for none)."""
        return np.concatenate([self.embed(t) for t in tokens] or [np.empty(0)]).reshape(len(tokens), self.dim)


class HashedGaussianVectors(_TokenVectors):
    """Standard-normal token vectors keyed by (seed, token) via a stable hash.

    The full d-dimensional draw makes vector-level collisions of distinct
    tokens a probability-zero event. Deterministic across processes. The
    seed is hashed as 8 signed bytes, so it must lie in [-2**63, 2**63).
    """

    kind = "hashed-gaussian"

    def __init__(self, seed: int, dim: int):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.seed = int(seed)
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must lie in [-2**63, 2**63), got {self.seed}")
        self.dim = int(dim)
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, token: str) -> np.ndarray:
        vector = self._cache.get(token)
        if vector is None:
            key = hashlib.blake2b(
                self.seed.to_bytes(8, "big", signed=True) + token.encode("utf-8"),
                digest_size=16,
            ).digest()
            rng = np.random.default_rng(int.from_bytes(key, "big"))
            vector = rng.standard_normal(self.dim)
            vector.flags.writeable = False
            self._cache[token] = vector
        return vector

    def describe(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "dim": self.dim}


class FileVectors(_TokenVectors):
    """Token vectors loaded from a text file, one ``token v_1 ... v_d`` line each.

    Out-of-vocabulary tokens embed to the zero vector, which downstream cosine
    computation treats as similarity 0 to everything.
    """

    kind = "file-vectors"

    def __init__(self, path):
        self.path = str(path)
        self._vectors: dict[str, np.ndarray] = {}
        dim = None
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) < 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'token v_1 ... v_d' with d >= 2"
                    )
                token = parts[0]
                try:
                    vector = np.array([float(x) for x in parts[1:]])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric vector entry") from None
                if not np.all(np.isfinite(vector)):
                    raise ValueError(f"{path}:{lineno}: non-finite vector entry")
                if dim is None:
                    dim = vector.size
                elif vector.size != dim:
                    raise ValueError(
                        f"{path}:{lineno}: dimension {vector.size} differs from {dim}"
                    )
                if token in self._vectors:
                    raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
                vector.flags.writeable = False
                self._vectors[token] = vector
        if dim is None:
            raise ValueError(f"{path}: no vectors found")
        self.dim = int(dim)
        self._zero = np.zeros(self.dim)
        self._zero.flags.writeable = False

    def embed(self, token: str) -> np.ndarray:
        return self._vectors.get(token, self._zero)

    def describe(self) -> dict:
        return {"kind": self.kind, "path": self.path, "dim": self.dim}


def provider_from_description(description: dict):
    """Rebuild a provider from its :meth:`describe` dictionary, as read from a model file.

    A hashed-Gaussian ``seed`` and ``dim`` and a recorded file-vectors ``dim``
    must be JSON integers, and a file-vectors ``path`` a JSON string: any
    other value raises ValueError rather than being coerced.
    """
    kind = description.get("kind")
    if kind == HashedGaussianVectors.kind:
        for key in ("seed", "dim"):
            if type(description[key]) is not int:
                raise ValueError(f"provider {key!r} must be an integer, got {description[key]!r}")
        return HashedGaussianVectors(seed=description["seed"], dim=description["dim"])
    if kind == FileVectors.kind:
        if type(description["path"]) is not str:
            raise ValueError(f"provider 'path' must be a string, got {description['path']!r}")
        if "dim" in description and type(description["dim"]) is not int:
            raise ValueError(f"provider 'dim' must be an integer, got {description['dim']!r}")
        provider = FileVectors(description["path"])
        if "dim" in description and provider.dim != description["dim"]:
            raise ValueError(
                f"{description['path']}: dimension {provider.dim} "
                f"does not match recorded {description['dim']}"
            )
        return provider
    raise ValueError(f"unknown provider kind {kind!r}")


@dataclass(frozen=True)
class PairEmbedding:
    """Token-level embeddings of one question (m x d) and of l knowledge snippets stacked row-wise (p x d).

    Snippet i's rows in ``knowledge_vectors`` start at ``knowledge_starts[i]``.
    """

    question_vectors: np.ndarray
    knowledge_vectors: np.ndarray
    knowledge_starts: tuple[int, ...] = (0,)

    def __post_init__(self):
        m, d, starts = self.m, self.dim, self.knowledge_starts
        widths = [end - start for start, end in zip(starts, (*starts[1:], self.p))]
        if m < 1 or d < 2 or starts[:1] != (0,) or min(widths) < 1:
            raise ValueError(f"need m >= 1, p >= 1 per snippet, d >= 2, got m={m}, p={widths}, d={d}")
        if m > MAX_QUESTION_TOKENS or max(widths) > MAX_KNOWLEDGE_TOKENS:
            raise ValueError(f"m <= {MAX_QUESTION_TOKENS} and p <= {MAX_KNOWLEDGE_TOKENS} per snippet required")
        if self.knowledge_vectors.shape[1] != d:
            raise ValueError("question and knowledge dimensions differ")
        for a in (self.question_vectors, self.knowledge_vectors):
            if not np.isfinite(a).all():
                raise ValueError("embedding entries must be finite")

    @property
    def m(self) -> int:
        return self.question_vectors.shape[0]

    @property
    def p(self) -> int:
        return self.knowledge_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.question_vectors.shape[1]


def embed_pair(provider, question: str, candidates: list[KnowledgeSnippet]) -> PairEmbedding:
    """Embed a question once and all candidates' snippet tokens (title and body) in one stacked call."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    q_tokens = tokenize(question)[:MAX_QUESTION_TOKENS]
    starts, k_tokens = [], []
    for snippet in candidates:
        starts.append(len(k_tokens))
        k_tokens += tokenize(snippet.text)[:MAX_KNOWLEDGE_TOKENS]
    return PairEmbedding(provider.embed_tokens(q_tokens), provider.embed_tokens(k_tokens), tuple(starts))


@dataclass
class Vocabulary:
    """Per-token document frequencies over snippet texts."""

    doc_freq: dict[str, int] = field(default_factory=dict)
    n_documents: int = 0


def build_vocabulary(corpus: Corpus) -> Vocabulary:
    """Count, per token, the snippet texts it appears in."""
    vocab = Vocabulary()
    for snippets in corpus.snippets.values():
        for snippet in snippets:
            vocab.n_documents += 1
            seen_here = set()
            for token in tokenize(snippet.text):
                if token not in seen_here:
                    seen_here.add(token)
                    vocab.doc_freq[token] = vocab.doc_freq.get(token, 0) + 1
    return vocab


def _tfidf_weights(tokens: list[str], vocab: Vocabulary) -> dict[str, float]:
    n = vocab.n_documents
    weights = {}
    for token, count in Counter(tokens).items():
        df = vocab.doc_freq.get(token)
        if df is None:
            continue
        weights[token] = count * (math.log((1 + n) / (1 + df)) + 1.0)
    return weights


def tfidf_rank(
    vocab: Vocabulary, question: str, candidates: list[KnowledgeSnippet]
) -> list[tuple[KnowledgeSnippet, float]]:
    """Candidates with their TF-IDF cosines against the question, in :func:`~kgdial.corpus.rank_order`.

    Term frequency is the raw count; idf = ln((1+N)/(1+df)) + 1 with N the
    vocabulary's snippet count. Question tokens outside the vocabulary are
    dropped. Scores lie in [0, 1].
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    q_weights = _tfidf_weights(tokenize(question), vocab)
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))

    scores = []
    for snippet in candidates:
        c_weights = _tfidf_weights(tokenize(snippet.text), vocab)
        c_norm = math.sqrt(sum(w * w for w in c_weights.values()))
        if q_norm < 1e-12 or c_norm < 1e-12:
            scores.append(0.0)
        else:
            dot = sum(w * c_weights[t] for t, w in q_weights.items() if t in c_weights)
            scores.append(min(max(dot / (q_norm * c_norm), 0.0), 1.0))
    return [(candidates[i], scores[i]) for i in rank_order(scores).tolist()]
