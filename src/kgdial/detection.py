"""Knowledge-seeking turn detection.

The dialog is flattened to one string (current user turn first, then the
history from the beginning, every turn prefixed by its speaker tag). Its one
feature form is a list of columns: a hashed column per word unigram and bigram,
then a turn-count bucket. A bias-free sigmoid linear model sums its weights at
those columns, trained with full-batch gradient descent on binary log loss.
Training descends over the columns its corpus's features use, not all
``hash_dim + turn_buckets`` weights, and scores each weight vector once.

N-grams are bucketed with CRC-32 (feature hashing needs a stable hash that
spreads its inputs, not a cryptographic one). The hash decides which weight
each n-gram reads, so it is part of the model: a detector file records it as
``"ngram_hash": "crc32"`` and a file that records no hash or another one is
rejected at load and must be retrained. :func:`ngram_hash` is that hash, the
one place it is spelled: :func:`featurize` calls it once per dialog with all
of the dialog's n-grams. Training, batch scoring and a request all featurize
through :func:`featurize`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .corpus import _USER, Corpus, DialogInstance, _load, _number_array, _write_json
from .descent import _descend, _scored_once, check_schedule
from .embedding import EMPTY_TOKEN, _ascii_fold, tokenize

USER_PREFIX = "[User]"
SYS_PREFIX = "[Sys]"

# The n-gram hash a detector was trained with; recorded in every detector file.
NGRAM_HASH = "crc32"

# The UTF-8 bytes of the one token of text with no alphanumeric character.
_EMPTY_GRAM = EMPTY_TOKEN.encode()


def serialize_dialog(dialog: DialogInstance) -> str:
    """Flatten a dialog: current user turn first, then the history in order.

    Every turn is prefixed by "[User]" or "[Sys]". Injective up to turn texts
    that themselves contain those literal tags.
    """
    turns = dialog.turns
    if not turns or turns[-1].speaker is not _USER:
        raise ValueError(f"dialog {dialog.id}: last turn must be a user turn")
    parts = [USER_PREFIX, turns[-1].text]
    for turn in turns[:-1]:
        parts.append(USER_PREFIX if turn.speaker is _USER else SYS_PREFIX)
        parts.append(turn.text)
    return "".join(parts)


def ngram_hash(grams: list[bytes], hash_dim: int) -> list[int]:
    """The column of each n-gram, given as its UTF-8 bytes: its CRC-32 modulo ``hash_dim``.

    The CRC-32 is a stable 32-bit hash, the same in every process and on
    every platform, unlike the salted built-in ``hash``; at ``hash_dim =
    2**32`` the columns are the hashes themselves. All grams are hashed in
    one C-level ``map``. Raises ``ValueError`` for ``hash_dim < 1``.
    """
    if hash_dim < 1:
        raise ValueError(f"hash_dim must be >= 1, got {hash_dim}")
    return [h % hash_dim for h in map(zlib.crc32, grams)]


def featurize(serialized: str, turn_count: int, hash_dim: int, turn_buckets: int) -> list[int]:
    """The dialog's feature columns: one per n-gram occurrence, then the turn bucket.

    Speaker tags survive tokenization as the tokens "user" and "sys". Each
    unigram of ``tokenize(serialized)``, then each bigram, adds its
    :func:`ngram_hash` column (the low bits of its CRC-32 when ``hash_dim``
    is a power of two), repeats included; the bucket is
    ``hash_dim + min(turn_count, turn_buckets) - 1``. The dense counts are
    ``np.bincount(columns, minlength=hash_dim + turn_buckets)``.

    Text that folds to ASCII bytes (:func:`~kgdial.embedding._ascii_fold`) is
    split once into the tokens' bytes, without a ``tokenize`` call; other
    text is tokenized and each token encoded to UTF-8. Either way every gram
    is hashed by one :func:`ngram_hash` call, which checks ``hash_dim``.
    """
    if turn_buckets < 1:
        raise ValueError(f"turn_buckets must be >= 1, got {turn_buckets}")
    if turn_count < 1:
        raise ValueError(f"turn_count must be >= 1, got {turn_count}")
    folded = _ascii_fold(serialized)
    if type(folded) is bytes:
        grams = folded.split() or [_EMPTY_GRAM]
    else:
        grams = list(map(str.encode, tokenize(serialized)))
    # grams[1:] is a copy, so zip stops at the last unigram while grams grows.
    grams += map(b" ".join, zip(grams, grams[1:]))
    columns = ngram_hash(grams, hash_dim)
    columns.append(hash_dim + min(turn_count, turn_buckets) - 1)
    return columns


# Largest ``hash_dim`` (``--hash-dim``): 2**20 weights take 8 MB.
MAX_HASH_DIM = 2**20

# Largest ``turn_buckets`` (``--turn-buckets``): each bucket is one weight, and a
# dialog of t turns reads bucket min(t, turn_buckets), so buckets past the
# longest dialog are never trained; 1024 is far more turns than a dialog holds.
MAX_TURN_BUCKETS = 1024


def check_detector_shape(hash_dim: int, turn_buckets: int, threshold: float) -> None:
    """Reject a detector with ``hash_dim`` outside [16, ``MAX_HASH_DIM``], ``turn_buckets``
    outside [1, ``MAX_TURN_BUCKETS``] or ``threshold`` outside (0, 1)."""
    if hash_dim < 16:
        raise ValueError(f"hash_dim must be >= 16, got {hash_dim}")
    if hash_dim > MAX_HASH_DIM:
        raise ValueError(f"hash_dim must be <= {MAX_HASH_DIM}, got {hash_dim}")
    if turn_buckets < 1:
        raise ValueError(f"turn_buckets must be >= 1, got {turn_buckets}")
    if turn_buckets > MAX_TURN_BUCKETS:
        raise ValueError(f"turn_buckets must be <= {MAX_TURN_BUCKETS}, got {turn_buckets}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


@dataclass(frozen=True)
class DetectorModel:
    """Bias-free sigmoid linear scorer over hashed dialog features."""

    weights: np.ndarray
    hash_dim: int
    turn_buckets: int
    threshold: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        check_detector_shape(self.hash_dim, self.turn_buckets, self.threshold)
        if weights.shape != (self.hash_dim + self.turn_buckets,):
            raise ValueError(
                f"weights must have length hash_dim + turn_buckets = "
                f"{self.hash_dim + self.turn_buckets}, got shape {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")


def _sigmoid_vector(z):
    """Elementwise logistic function of an array or a scalar; exp never overflows.

    Equals 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) for z < 0.
    """
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-abs(z)))


def _sigmoid(z) -> float:
    """:func:`_sigmoid_vector` of one float, bit for bit, with one ``exp`` and no array ufuncs.

    For z >= 0 the vector form's numerator is exp(0) = 1; for z < 0 its two
    exps are the same exp(z).
    """
    e = np.exp(-abs(z))
    return float((1.0 if z >= 0 else e) / (1.0 + e))


def detect_score(model: DetectorModel, columns: list[int]) -> float:
    """Probability sigmoid(weights[columns].sum()); raises on a column outside the weights.

    The sum is ``np.add.reduce``, the pairwise reduction ``sum`` runs, without its Python-level wrapper.
    """
    if columns and (min(columns) < 0 or max(columns) >= model.weights.size):
        raise ValueError(f"feature columns must lie in [0, {model.weights.size}), got {min(columns)}..{max(columns)}")
    return _sigmoid(np.add.reduce(model.weights.take(columns)))


def _featurize_all(dialogs: list[DialogInstance], hash_dim: int, turn_buckets: int) -> tuple[list[int], list[int]]:
    """Every dialog's :func:`featurize` columns, concatenated in dialog order, and each dialog's column count."""
    rows = [featurize(serialize_dialog(d), len(d.turns), hash_dim, turn_buckets) for d in dialogs]
    return list(chain.from_iterable(rows)), list(map(len, rows))


def _detect_batch(model: DetectorModel, dialogs: list[DialogInstance]) -> np.ndarray:
    """Each dialog's :func:`detect` probability, bit for bit.

    Each dialog is featurized as :func:`detect` does it and the weights at
    all of the columns are gathered with one ``take``. A dialog's score is
    ``np.add.reduce`` of its own contiguous slice of them, the same reduction
    over the same values in the same order as :func:`detect_score`; one
    vectorized sigmoid follows.
    """
    columns, lengths = _featurize_all(dialogs, model.hash_dim, model.turn_buckets)
    weights = model.weights.take(columns)
    reduce = np.add.reduce
    scores = np.array([reduce(weights[start : start + n]) for start, n in zip(accumulate(lengths, initial=0), lengths)])
    return _sigmoid_vector(scores)


class DetectionResult(NamedTuple):
    probability: float
    triggered: bool


def detect(model: DetectorModel, dialog: DialogInstance) -> DetectionResult:
    """Score one dialog; triggered when probability >= threshold (boundary in)."""
    columns = featurize(
        serialize_dialog(dialog), len(dialog.turns), model.hash_dim, model.turn_buckets
    )
    probability = detect_score(model, columns)
    return DetectionResult(probability, probability >= model.threshold)


@dataclass(frozen=True)
class DetectorHyper:
    hash_dim: int = 4096
    turn_buckets: int = 16
    lr: float = 0.1
    epochs: int = 100
    threshold: float = 0.5
    line_search: bool = False

    def __post_init__(self):
        check_detector_shape(self.hash_dim, self.turn_buckets, self.threshold)
        check_schedule(self.lr, self.epochs)


def train_detector(
    corpus: Corpus, hyper: DetectorHyper = DetectorHyper()
) -> tuple[DetectorModel, list[float]]:
    """Full-batch gradient descent on mean binary log loss from zero init.

    Labels come from each dialog's target flag; both classes must be present.
    Returns the model and the loss trajectory (epochs + 1 entries, first at
    initialization). With ``line_search`` the step is halved until the loss
    does not increase. Deterministic for fixed inputs and hyperparameters.

    Training never holds the dense n x (hash_dim + turn_buckets) matrix: each
    dialog is featurized once, by :func:`featurize`, the columns are
    concatenated, and both mat-vecs are ``np.bincount`` sums over their
    (row, column) pairs. The descent runs over the distinct columns the
    corpus uses only, so an epoch costs the same at any ``hash_dim``; every
    other weight has a zero gradient and stays +0.0. Each weight vector is
    scored once: the accepted trial's scores serve the next epoch's gradient.
    """
    if not corpus.dialogs:
        raise ValueError("corpus has no dialogs")
    columns, lengths = _featurize_all(corpus.dialogs, hyper.hash_dim, hyper.turn_buckets)
    labels = np.array([1.0 if d.target else 0.0 for d in corpus.dialogs])
    if labels.min() == labels.max():
        raise ValueError("training corpus must contain both target and non-target dialogs")
    n = len(labels)
    active, local = np.unique(columns, return_inverse=True)
    rows = np.repeat(np.arange(n), lengths)
    signs = 1.0 - 2.0 * labels
    scores = _scored_once(lambda weights: np.bincount(rows, weights=weights[local], minlength=n))

    def loss(weights):
        # mean()'s sum and division, without its Python-level wrapper: a numpy call costs more inside _descend's errstate.
        return float(np.add.reduce(np.logaddexp(0.0, signs * scores(weights))) / n)

    def gradient(weights):
        residual = _sigmoid_vector(scores(weights)) - labels
        return np.bincount(local, weights=residual[rows], minlength=active.size) / n

    descended, losses = _descend(
        loss, gradient, np.zeros(active.size), hyper.lr, hyper.epochs, hyper.line_search,
    )
    weights = np.zeros(hyper.hash_dim + hyper.turn_buckets)
    weights[active] = descended
    model = DetectorModel(weights, hyper.hash_dim, hyper.turn_buckets, hyper.threshold)
    return model, losses


def save_detector(model: DetectorModel, path) -> None:
    """Write the model as JSON with exact float round-trip and its n-gram hash."""
    payload = {
        "ngram_hash": NGRAM_HASH,
        "hash_dim": model.hash_dim,
        "turn_buckets": model.turn_buckets,
        "threshold": model.threshold,
        "weights": model.weights.tolist(),
    }
    _write_json(payload, path)


def _parse_detector(payload) -> DetectorModel:
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    for key in ("hash_dim", "turn_buckets"):
        if type(payload[key]) is not int:
            raise ValueError(f"{key!r} must be an integer, got {payload[key]!r}")
    if type(payload["threshold"]) not in (int, float):
        raise ValueError(f"'threshold' must be a number, got {payload['threshold']!r}")
    if "ngram_hash" not in payload:
        raise ValueError(f"no 'ngram_hash' field, so not hashed with {NGRAM_HASH!r}: retrain the detector")
    if payload["ngram_hash"] != NGRAM_HASH:
        raise ValueError(f"'ngram_hash' is {payload['ngram_hash']!r}, not {NGRAM_HASH!r}: retrain the detector")
    return DetectorModel(
        _number_array(payload, "weights"), payload["hash_dim"], payload["turn_buckets"], float(payload["threshold"])
    )


def load_detector(path) -> DetectorModel:
    """Read a model file written by :func:`save_detector`.

    A malformed file raises CorpusError (a ValueError) with a message that starts with ``path``,
    as does a file whose ``ngram_hash`` is missing or is not :data:`NGRAM_HASH`:
    its weights belong to other buckets, so the detector must be retrained.
    """
    return _load(path, _parse_detector)
