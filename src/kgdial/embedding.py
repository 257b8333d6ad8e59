"""Tokenization, deterministic token-embedding providers, and a TF-IDF ranker.

Providers stand in for a large contextual encoder: they map each token to a
fixed vector, so question and knowledge sides can be embedded independently
and compared by cosine. Two providers are available:

* :class:`HashedGaussianVectors` draws each token's vector from a generator
  keyed by (seed, token); no vocabulary file needed, stable across runs.
* :class:`FileVectors` reads pretrained vectors from a text file
  (``token v_1 ... v_d`` per line); unknown tokens embed to the zero vector.

Both store each row at unit norm (:func:`_unit_rows`) and keep no raw
vector: the selector reads vectors only through cosines, so a row's length
never matters, and a cosine matrix is one product of gathered rows.

Text that is ASCII (once lowercased, if it was not) is tokenized in C: one
byte-table translate folds case and turns every byte that is not a letter or
digit into a space, and ``str.split`` cuts the result; the detector's
``featurize`` splits the same folded bytes (:func:`_ascii_fold`).
Question/knowledge token sequences are truncated to 64 and 128 tokens.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, EntitySnippets, KnowledgeSnippet, _as_entity

# Sentinel emitted for text with no alphanumeric content, so every text
# embeds to at least one row.
EMPTY_TOKEN = "⟨empty⟩"

MAX_QUESTION_TOKENS = 64
MAX_KNOWLEDGE_TOKENS = 128

# Largest hashed-Gaussian dimension (``--embed-dim``, or a selector file's ``dim``).
MAX_EMBED_DIM = 4096

# Unicode alphanumeric runs, underscore excluded.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Byte table of the ASCII path: A-Z fold to a-z, a-z and 0-9 stay, every other byte becomes a space.
_ASCII_FOLD = bytes(ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else 32 for c in range(256))
# The same table keeping NUL, which separates the texts of one tokenize_batch call.
_BATCH_FOLD = b"\0" + _ASCII_FOLD[1:]


def _ascii_fold(text: str) -> bytes | str:
    """``text`` as bytes folded by ``_ASCII_FOLD`` if it is ASCII (once lowercased, if it was not); else ``text.lower()``.

    Splitting the bytes on whitespace gives the ASCII bytes of the text's
    tokens. U+212A KELVIN SIGN lowercases to ``k``, so text holding it folds
    too; a str return is for the Unicode class.
    """
    if not text.isascii():
        text = text.lower()
        if not text.isascii():
            return text
    return text.encode().translate(_ASCII_FOLD)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs, dropping empty pieces.

    Returns ``[EMPTY_TOKEN]`` when the text has no alphanumeric character.
    Text that is ASCII, once lowercased if it was not, is folded by
    :func:`_ascii_fold` and cut by ``str.split``, which gives the same tokens
    as the Unicode class at a fraction of its cost; other text is split by
    the Unicode class.
    """
    folded = _ascii_fold(text)
    if type(folded) is str:
        return _TOKEN_RE.findall(folded) or [EMPTY_TOKEN]
    return folded.decode().split() or [EMPTY_TOKEN]


def tokenize_batch(texts: list[str]) -> Iterator[list[str]]:
    """An iterator over ``tokenize(t)`` for each text, folded in one pass when the texts are ASCII.

    The texts are joined with NUL, translated by ``_BATCH_FOLD`` (``_ASCII_FOLD``
    that keeps NUL) and cut back apart at NUL, so each piece is its text's
    folded bytes; a piece is split into its tokens only when the iterator
    reaches it, so a caller that counts tokens holds one list at a time.
    Every text goes through :func:`tokenize` instead when the joined text is
    not ASCII, or when a text held a NUL itself (more pieces than texts).
    """
    joined = "\0".join(texts)
    if joined.isascii():
        pieces = joined.encode().translate(_BATCH_FOLD).decode().split("\0")
        if len(pieces) == len(texts):
            return (piece.split() or [EMPTY_TOKEN] for piece in pieces)
    return map(tokenize, texts)


class _TokenVectors:
    """Base of the providers: a (rows, dim) table of unit-norm token vectors and a token -> row dict.

    A row number never changes once given: :class:`HashedGaussianVectors`
    only appends rows (a reallocation of the table copies them in place), and
    :class:`FileVectors` is fixed at load. So row numbers can be kept across
    calls, as :func:`embed_pair`'s knowledge index keeps them; the table
    itself is read afresh on each gather.
    """

    _table: np.ndarray  # each row at unit norm, by _unit_rows
    _rows: dict[str, int]

    def _token_rows(self, tokens: list[str]) -> np.ndarray:
        """The tokens' table row numbers, an int array; only a token without a row goes through ``_unknown_row``."""
        rows = self._rows
        try:
            return np.fromiter(map(rows.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        except KeyError:
            return np.array([rows[t] if t in rows else self._unknown_row(t) for t in tokens], dtype=np.intp)

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        """len(tokens) x dim matrix of the tokens' unit vectors, gathered from the table in one take (0 x dim for none)."""
        index = self._token_rows(tokens)
        # Read the table only now: storing a new token can reallocate it.
        return self._table.take(index, axis=0)


class HashedGaussianVectors(_TokenVectors):
    """Standard-normal token vectors keyed by (seed, token) via a stable hash, stored at unit norm.

    The full d-dimensional draw makes vector-level collisions of distinct
    tokens a probability-zero event. Each draw is normalized as it is
    stored; the raw draw is not kept. Deterministic across processes. The
    seed is hashed as 8 signed bytes, so it must lie in [-2**63, 2**63), and
    ``dim`` in [2, ``MAX_EMBED_DIM``].
    """

    kind = "hashed-gaussian"

    def __init__(self, seed: int, dim: int):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if dim > MAX_EMBED_DIM:
            raise ValueError(f"dim must be <= {MAX_EMBED_DIM}, got {dim}")
        self.seed = int(seed)
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must lie in [-2**63, 2**63), got {self.seed}")
        self.dim = int(dim)
        self._table = np.empty((64, self.dim))
        self._rows = {}

    def embed(self, token: str) -> np.ndarray:
        """The token's unit vector, a read-only view of its table row; a new token is drawn into the next row."""
        row = self._rows.get(token)
        if row is None:
            key = hashlib.blake2b(
                self.seed.to_bytes(8, "big", signed=True) + token.encode("utf-8"),
                digest_size=16,
            ).digest()
            rng = np.random.default_rng(int.from_bytes(key, "big"))
            row = len(self._rows)
            if row == len(self._table):
                self._table = np.concatenate([self._table, np.empty_like(self._table)])
            self._table[row] = _unit_rows(rng.standard_normal((1, self.dim)))[0]
            self._rows[token] = row
        view = self._table[row]
        view.flags.writeable = False
        return view

    def _unknown_row(self, token: str) -> int:
        self.embed(token)
        return self._rows[token]

    def describe(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "dim": self.dim}


class FileVectors(_TokenVectors):
    """Token vectors loaded from a text file, one ``token v_1 ... v_d`` line each.

    Every row is normalized once, at load, and only the unit rows are kept;
    a row of norm < 1e-12 becomes the zero vector. Out-of-vocabulary tokens
    embed to the zero vector too, which downstream cosine computation treats
    as similarity 0 to everything.
    """

    kind = "file-vectors"

    def __init__(self, path):
        self.path = str(path)
        self._rows = {}
        values = array("d")  # every row's entries, flat
        dim = None
        # Bytes that are not UTF-8 decode to lone surrogates, which the check below finds by line.
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValueError(f"{path}:{lineno}: not UTF-8") from None
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) < 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'token v_1 ... v_d' with d >= 2"
                    )
                token = parts[0]
                try:
                    row = [float(x) for x in parts[1:]]
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric vector entry") from None
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path}:{lineno}: non-finite vector entry")
                if dim is None:
                    dim = len(row)
                elif len(row) != dim:
                    raise ValueError(
                        f"{path}:{lineno}: dimension {len(row)} differs from {dim}"
                    )
                if token in self._rows:
                    raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
                self._rows[token] = len(self._rows)
                values.extend(row)
        if dim is None:
            raise ValueError(f"{path}: no vectors found")
        self.dim = dim
        # The last row is the zero vector of every out-of-vocabulary token.
        self._oov_row = len(self._rows)
        values.extend(repeat(0.0, dim))
        self._table = _unit_rows(np.frombuffer(values).reshape(-1, dim))
        self._table.flags.writeable = False

    def embed(self, token: str) -> np.ndarray:
        """The token's unit vector, a read-only view of its table row (the zero row out of vocabulary)."""
        return self._table[self._rows.get(token, self._oov_row)]

    def _unknown_row(self, token: str) -> int:
        return self._oov_row

    def describe(self) -> dict:
        return {"kind": self.kind, "path": self.path, "dim": self.dim}


def provider_from_description(description: dict):
    """Rebuild a provider from its :meth:`describe` dictionary, as read from a model file.

    A hashed-Gaussian ``seed``, either kind's ``dim`` and a file-vectors
    ``path`` are required. ``seed`` and ``dim`` must be JSON integers and
    ``path`` a JSON string: any other value raises ValueError rather than
    being coerced, and a missing one raises KeyError. ``path`` is opened as
    written, relative to the current directory; a file that cannot be read
    raises ValueError naming it.
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
        if type(description["dim"]) is not int:
            raise ValueError(f"provider 'dim' must be an integer, got {description['dim']!r}")
        try:
            provider = FileVectors(description["path"])
        except OSError as exc:
            raise ValueError(f"{description['path']}: {exc.strerror}") from None
        if provider.dim != description["dim"]:
            raise ValueError(
                f"{description['path']}: dimension {provider.dim} "
                f"does not match recorded {description['dim']}"
            )
        return provider
    raise ValueError(f"unknown provider kind {kind!r}")


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """The rows scaled to unit norm; a row of norm < 1e-12 becomes 0.

    A row whose squared norm overflows is first divided by its largest
    magnitude, in a copy, so its cosines are those of the same direction at a
    representable scale and ``vectors`` is not mutated.
    """
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        squares = np.add.reduce(vectors * vectors, axis=1)  # pairwise, as np.linalg.norm; einsum moves ulps
    if np.fmax.reduce(squares, initial=0.0) == np.inf:  # fmax passes over a nan, as isinf(...).any() would
        overflow = np.isinf(squares)
        vectors = vectors.copy()
        vectors[overflow] /= np.abs(vectors[overflow]).max(axis=1, keepdims=True)
        squares[overflow] = np.add.reduce(vectors[overflow] ** 2, axis=1)
    norms = np.sqrt(squares, out=squares)
    norms[norms < 1e-12] = np.inf
    return vectors * np.divide(1.0, norms, out=norms)[:, None]


def _embedded_rows(provider, tokens: list[str]) -> np.ndarray:
    """The tokens' vectors at unit norm (:func:`_unit_rows`), one row per token.

    A provider of this module stores its rows finite and normalized, so its
    ``embed_tokens`` rows are returned as they are. Any other provider's rows
    are read as a float array (int rows and nested lists alike; entries that
    are not numbers raise ValueError), checked finite and normalized on the call.
    """
    vectors = provider.embed_tokens(tokens)
    if isinstance(provider, _TokenVectors):
        return vectors
    vectors = np.asarray(vectors)  # ragged rows raise ValueError here
    if vectors.dtype.kind not in "biuf":
        raise ValueError(f"embedding entries must be numbers, got dtype {vectors.dtype}")
    vectors = vectors.astype(float, copy=False)
    if not np.isfinite(vectors).all():
        raise ValueError("embedding entries must be finite")
    return _unit_rows(vectors)


class PairEmbedding(NamedTuple):
    """Token-level embeddings of one question and l knowledge snippets, stacked in one (m + p) x d matrix.

    The question's m rows come first; snippet i's rows start ``knowledge_starts[i]``
    rows after them, in candidate order. The rows are the provider's vectors
    at unit norm (:func:`_unit_rows`), as :func:`embed_pair` gathers them.
    """

    vectors: np.ndarray
    m: int
    knowledge_starts: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.vectors.shape[0] - self.m


def _snippet_texts(rows) -> list[str]:
    """Each snippet's ``text``, title and body joined by a space, read from its row or snippet by index.

    One f-string per row: at 8 000 synth rows it takes 0.6 of the time of
    ``" ".join`` over ``itemgetter(3, 4)`` of each row.
    """
    return [f"{row[3]} {row[4]}" for row in rows]


def _knowledge_tokens(entity: EntitySnippets) -> tuple[list[str], tuple[int, ...]]:
    """Every snippet's tokens (title and body), each cut at 128, and each snippet's first token among them."""
    if not entity.rows:
        raise ValueError("candidates must be non-empty")
    k_lists = list(tokenize_batch(_snippet_texts(entity.rows)))
    widths = list(map(len, k_lists))
    if max(widths) > MAX_KNOWLEDGE_TOKENS:
        k_lists = [tokens[:MAX_KNOWLEDGE_TOKENS] for tokens in k_lists]
        widths = list(map(len, k_lists))
    return list(chain.from_iterable(k_lists)), tuple(accumulate(widths[:-1], initial=0))


def embed_pair(provider, question: str, candidates: Sequence[KnowledgeSnippet]) -> PairEmbedding:
    """Embed a question once and all candidates' snippet tokens (title and body) in one stacked call.

    The only producer of a :class:`PairEmbedding`, with the question cut at
    64 tokens and each snippet at 128 (:func:`_knowledge_tokens`). Candidates
    that are not an :class:`~kgdial.corpus.EntitySnippets` are wrapped in one.

    With a provider of this module, the entity's knowledge index keeps its
    snippets' row numbers (one int array, ≈2 KB for 64 synth snippets). A call
    reads the index once, looks up the question's rows, fills the index if it
    is missing or holds another provider, and gathers both in one take, so a
    later call with the same provider tokenizes only its question. Any other
    provider embeds all the tokens in one call, at unit norm (:func:`_embedded_rows`).
    """
    entity = _as_entity(candidates)
    q_tokens = tokenize(question)[:MAX_QUESTION_TOKENS]
    if not isinstance(provider, _TokenVectors):
        k_tokens, starts = _knowledge_tokens(entity)
        return PairEmbedding(_embedded_rows(provider, q_tokens + k_tokens), len(q_tokens), starts)
    index = entity.knowledge_index
    q_rows = provider._token_rows(q_tokens)
    if index is None or index[0] is not provider:
        k_tokens, starts = _knowledge_tokens(entity)
        index = entity.knowledge_index = (provider, provider._token_rows(k_tokens), starts)
    # Read the table only now: storing a new token can reallocate it.
    return PairEmbedding(provider._table.take(np.concatenate((q_rows, index[1])), axis=0), len(q_tokens), index[2])


@dataclass(frozen=True)
class Vocabulary:
    """Per-token document frequencies over snippet texts, with each token's id and idf weight.

    Tokens keep their order of first appearance; a token's id is its place in
    that order, and ``idf[id]`` is ln((1+N)/(1+df)) + 1 with N the snippet count.

    A corpus keeps its vocabulary (see :func:`build_vocabulary`), so every
    later caller gets this same object: ``idf`` is read-only, and
    ``doc_freq`` and ``ids`` are shared and must not be mutated.
    """

    doc_freq: dict[str, int]
    n_documents: int
    ids: dict[str, int]
    idf: np.ndarray


def build_vocabulary(corpus: Corpus) -> Vocabulary:
    """Count, per token, the snippet texts it appears in; tokens keep their order of first appearance.

    A vocabulary depends only on the entities' rows in order, so it is kept
    in the corpus's vocabulary index, keyed by the tuple of its entities, for
    as long as the corpus lives. A call whose entities equal the stored ones
    (one C-level pass, identity first) returns the stored vocabulary; any
    other call (an entity added, removed, reordered or changed) tokenizes the
    knowledge base in one :func:`tokenize_batch` pass and replaces the index.
    """
    entities = tuple(corpus.snippets.values())
    index = corpus.vocabulary_index
    if index is not None and index[0] == entities:
        return index[1]
    texts = _snippet_texts(chain.from_iterable(entity.rows for entity in entities))
    doc_freq = dict(Counter(chain.from_iterable(map(dict.fromkeys, tokenize_batch(texts)))))
    n = len(texts)
    idf = np.array([math.log((1 + n) / (1 + df)) + 1.0 for df in doc_freq.values()])
    idf.flags.writeable = False
    vocab = Vocabulary(doc_freq, n, dict(zip(doc_freq, range(len(doc_freq)))), idf)
    corpus.vocabulary_index = (entities, vocab)
    return vocab


def _token_weights(vocab: Vocabulary, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``text index * V + token id`` keys of the texts' in-vocabulary tokens, and their TF-IDF weights.

    V is the vocabulary size. A weight is the token's count in the text times
    its idf; tokens outside the vocabulary are dropped.
    """
    token_lists = list(tokenize_batch(texts))
    tokens = list(chain.from_iterable(token_lists))
    ids = np.fromiter(map(vocab.ids.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
    text_of = np.repeat(np.arange(len(texts)), list(map(len, token_lists)))
    known = ids >= 0
    keys, counts = np.unique(text_of[known] * vocab.idf.size + ids[known], return_counts=True)
    return keys, counts * vocab.idf[keys % vocab.idf.size]


def _candidate_weights(vocab: Vocabulary, entities: list[EntitySnippets]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_token_weights` of every candidate of the entities, in order, keyed ``candidate index * V + token id``.

    Each distinct entity's TF-IDF index is read once. An entity whose index
    holds ``vocab`` reads its stored rows; every other distinct entity (by
    identity; one repeated in the call is weighed once) is weighed in one
    :func:`_token_weights` call and stores its slice, keyed by snippet index
    within the entity and made read-only. When every entity is distinct and
    none was stored, that call's arrays are returned as they are; otherwise
    each entity's rows are shifted by its first candidate's index and joined
    in call order. Either way the keys come out sorted and each weight is
    the same float.
    """
    vocab_size = vocab.idf.size
    distinct = {id(entity): entity for entity in entities}
    indexes = {key: entity.tfidf_index for key, entity in distinct.items()}  # read once: another call may replace one
    stale = [distinct[key] for key, index in indexes.items() if index is None or index[0] is not vocab]
    if stale:
        keys, weights = _token_weights(vocab, _snippet_texts(chain.from_iterable(entity.rows for entity in stale)))
        starts = np.fromiter(accumulate(map(len, stale), initial=0), dtype=np.int64, count=len(stale) + 1) * vocab_size
        bounds = np.searchsorted(keys, starts).tolist()
        local = keys - np.repeat(starts[:-1], np.diff(bounds))
        local.flags.writeable = weights.flags.writeable = False
        for entity, lo, hi in zip(stale, bounds, bounds[1:]):
            entity.tfidf_index = indexes[id(entity)] = (vocab, local[lo:hi], weights[lo:hi])
        if len(stale) == len(entities):
            return keys, weights
    stored = [indexes[id(entity)] for entity in entities]
    offsets = np.fromiter(accumulate(map(len, entities), initial=0), dtype=np.int64, count=len(stored))
    shift = np.repeat(offsets * vocab_size, [len(index[1]) for index in stored])
    return (np.concatenate([index[1] for index in stored]) + shift, np.concatenate([index[2] for index in stored]))


def tfidf_rank(
    vocab: Vocabulary, questions: list[str], candidate_sets: list[Sequence[KnowledgeSnippet]]
) -> np.ndarray:
    """n x L TF-IDF cosines of each question against its candidates, padded with -inf to the longest set.

    Row i holds question i's candidates in their given order, so
    :func:`~kgdial.corpus.rank_order` of the row ranks them. Term frequency
    is the raw count and idf is the vocabulary's; tokens outside the
    vocabulary are dropped, and a question or candidate left without a
    token scores 0. Scores lie in [0, 1]. All candidates are weighed in one
    pass: norms and dot products are ``bincount`` sums, and each candidate
    token finds its question's weight by ``searchsorted``.

    Each candidate set, wrapped in an :class:`~kgdial.corpus.EntitySnippets`
    for the call if it is not one, keeps its weighed rows in its TF-IDF index
    for this vocabulary (16 B per distinct in-vocabulary token of each
    snippet); a later call with the same vocabulary and entity weighs only its
    questions and the sets it has not seen, and scores the same bits (see
    :func:`_candidate_weights`).
    """
    entities = list(map(_as_entity, candidate_sets))
    widths = list(map(len, entities))
    if len(questions) != len(widths) or not widths or min(widths) < 1:
        raise ValueError("need one non-empty candidate list per question, and at least one question")
    n, vocab_size = sum(widths), vocab.idf.size
    question_of = np.repeat(np.arange(len(widths)), widths)  # per candidate
    c_keys, c_weights = _candidate_weights(vocab, entities)
    candidate, token = np.divmod(c_keys, vocab_size)
    q_keys, q_weights = _token_weights(vocab, questions)
    c_norms = np.sqrt(np.bincount(candidate, c_weights * c_weights, n))
    q_norms = np.sqrt(np.bincount(q_keys // vocab_size, q_weights * q_weights, len(widths)))[question_of]
    # Each candidate token's (question, token) key, looked up among the question's keys; a
    # sentinel key past every other keeps the lookup in bounds.
    wanted = question_of[candidate] * vocab_size + token
    q_keys = np.append(q_keys, np.iinfo(np.int64).max)
    found = np.searchsorted(q_keys, wanted)
    matched = np.where(q_keys[found] == wanted, np.append(q_weights, 0.0)[found], 0.0)
    dots = np.bincount(candidate, c_weights * matched, n)
    cosines = np.zeros(n)
    scored = (q_norms >= 1e-12) & (c_norms >= 1e-12)
    cosines[scored] = np.clip(dots[scored] / (q_norms[scored] * c_norms[scored]), 0.0, 1.0)
    scores = np.full((len(widths), max(widths)), -np.inf)
    scores[np.arange(max(widths)) < np.array(widths)[:, None]] = cosines  # row-major: candidate order
    return scores
