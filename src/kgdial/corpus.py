"""DSTC-style corpus loading, validation, and synthesis.

A corpus pairs a knowledge base of FAQ-style snippets (domain -> entity ->
documents, each a question-form title plus an answer body) with dialog logs
and optional per-dialog labels. All three files are UTF-8 JSON:

* knowledge: ``{domain: {entity_id: {"name": ..., "docs": {doc_id:
  {"title": ..., "body": ...}}}}}``
* logs: array of dialogs, each an array of ``{"speaker": "U" | "S",
  "text": ...}``
* labels: array aligned by index with logs, each
  ``{"target": bool, "knowledge": [{"domain", "entity_id", "doc_id"}],
  "response": ...}``, the three reference fields strings

Dialog ids are positional (``d0000``, ``d0001``, ...) and are regenerated on
load. Loaded corpora are immutable by convention and safe for concurrent
reads; the three things a read (a request, a training or an evaluation pass)
writes are an entity's knowledge index and TF-IDF index (see
:class:`EntitySnippets`) and the corpus's vocabulary index (see
:class:`Corpus`), each replaced whole, by one attribute store.

Each entity's documents are stored as one :class:`EntitySnippets`: a single
tuple of plain ``(domain, entity_id, doc_id, title, body)`` rows. The cyclic
garbage collector stops tracking a plain tuple of strings at the first pass
that reaches it, and a tuple of such tuples by the next, so a loaded
knowledge base costs it one object per entity, not one per document (one more
for each of the entity's two indexes once filled: each holds its provider or
vocabulary). A :class:`KnowledgeSnippet` is built only where one is asked for,
by indexing or iterating; the hot paths (featurizing, TF-IDF, golden lookup,
writing) read the rows and build none. :func:`~kgdial.embedding.embed_pair` and
:func:`~kgdial.embedding.tfidf_rank` wrap any other candidate sequence in one for the call.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Token that marks a synthetic dialog as chit-chat (not knowledge-seeking).
MARKER_TOKEN = "chitchat"


class CorpusError(ValueError):
    """Raised for malformed corpus files or unresolvable references."""


class Speaker(Enum):
    USER = "U"
    SYS = "S"


# Speaker.USER bound once, for per-turn code that tells speakers apart with ``is``: an
# Enum member's hash, and a member read off its class, are Python-level calls.
_USER = Speaker.USER


class SnippetRef(NamedTuple):
    """Identity of one knowledge snippet."""

    domain: str
    entity_id: str
    doc_id: str


class KnowledgeSnippet(NamedTuple):
    """One external knowledge document: a question-form title and an answer body.

    A NamedTuple like :class:`SnippetRef`: immutable, hashed and compared by
    field values, so a snippet also equals the plain 5-tuple of its fields
    and can be indexed.
    """

    domain: str
    entity_id: str
    doc_id: str
    title: str
    body: str

    @property
    def ref(self) -> SnippetRef:
        return SnippetRef(self.domain, self.entity_id, self.doc_id)

    @property
    def text(self) -> str:
        """Title and body joined by a single space."""
        return self.title + " " + self.body


# KnowledgeSnippet of a row, without the field-count check of ``_make``.
_snippet = partial(tuple.__new__, KnowledgeSnippet)


class EntitySnippets(Sequence):
    """One entity's documents as a sequence of :class:`KnowledgeSnippet`, stored as plain rows.

    ``rows`` is one exact tuple of exact ``(domain, entity_id, doc_id, title,
    body)`` tuples, which the garbage collector stops tracking; indexing and
    iteration build a snippet per item asked for. Equal to another
    ``EntitySnippets``, list or tuple holding equal snippets (a snippet equals
    its row).

    ``knowledge_index`` is ``None`` until :func:`~kgdial.embedding.embed_pair`
    first embeds these snippets with a provider of that module; it then holds
    ``(provider, rows, starts)``: the provider, the table row of every snippet
    token after truncation (an int array, 8 B a token, ≈2 KB for 64 synth
    snippets) and each snippet's first token. A later request, training or
    evaluation pass with the same provider tokenizes only its question.

    ``tfidf_index`` is ``None`` until :func:`~kgdial.embedding.tfidf_rank`
    first weighs these snippets as a candidate set; it then holds
    ``(vocabulary, keys, weights)``: the vocabulary, and the snippets'
    TF-IDF rows under it as two read-only arrays, each snippet's
    in-vocabulary tokens keyed ``snippet index * V + token id`` (V the
    vocabulary size) in sorted order, with their weights. A later call with
    the same vocabulary weighs only its questions.

    Equality, ``repr`` and slicing ignore both indexes; a slice starts with
    neither, and so does the wrapper either function makes, for one call, of
    any other candidate sequence.
    """

    __slots__ = ("rows", "knowledge_index", "tfidf_index")

    def __init__(self, snippets: Iterable[KnowledgeSnippet] = ()):
        self.rows = tuple(map(tuple, snippets))
        self.knowledge_index = None
        self.tfidf_index = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EntitySnippets(self.rows[index])
        return _snippet(self.rows[index])

    def __iter__(self):
        return map(_snippet, self.rows)

    def __eq__(self, other):
        if isinstance(other, EntitySnippets):
            return self.rows == other.rows
        if isinstance(other, (list, tuple)):
            return self.rows == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EntitySnippets({list(self)!r})"


def _as_entity(snippets: Sequence[KnowledgeSnippet]) -> EntitySnippets:
    """``snippets`` itself if it is an :class:`EntitySnippets`, else its snippets wrapped in a new one."""
    return snippets if type(snippets) is EntitySnippets else EntitySnippets(snippets)


@dataclass(frozen=True)
class DialogTurn:
    speaker: Speaker
    text: str


@dataclass(frozen=True)
class DialogInstance:
    """One dialog with its optional gold annotation.

    The final turn is always a user turn (the turn under detection), and
    ``golden`` is set exactly when ``target`` is true in labeled corpora.
    """

    id: str
    turns: tuple[DialogTurn, ...]
    target: bool = False
    golden: SnippetRef | None = None
    response: str | None = None

    @property
    def current_turn(self) -> DialogTurn:
        return self.turns[-1]


@dataclass
class Corpus:
    """Knowledge snippets plus dialogs; immutable after construction.

    ``snippets`` maps ``(domain, entity_id)`` to that entity's documents in
    file order, each entity's as one :class:`EntitySnippets` (any other
    sequence of snippets given is wrapped in one); this stored order is the
    candidate order everywhere downstream.

    ``vocabulary_index`` is ``None`` until
    :func:`~kgdial.embedding.build_vocabulary` first reads this corpus; it
    then holds ``(entities, vocabulary)``: the tuple of ``snippets``' values
    it was built from and the TF-IDF vocabulary. A later call whose entities
    equal these (the same objects, or entities with equal rows, in the same
    order) returns the stored vocabulary without tokenizing. Equality,
    ``repr`` and :func:`dataclasses.replace` ignore it; a replaced corpus
    starts with none.
    """

    snippets: dict[tuple[str, str], EntitySnippets]
    dialogs: list[DialogInstance]
    entity_names: dict[tuple[str, str], str] = field(default_factory=dict)
    vocabulary_index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.snippets = {key: _as_entity(docs) for key, docs in self.snippets.items()}

    def find_snippet(self, ref: SnippetRef) -> KnowledgeSnippet | None:
        docs = self.snippets.get((ref.domain, ref.entity_id))
        for row in () if docs is None else docs.rows:
            if row[2] == ref.doc_id:
                return _snippet(row)
        return None


def _dialog_id(index: int) -> str:
    return f"d{index:04d}"


def _duplicate_rejecting_pairs(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CorpusError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load(path, parse):
    """``parse`` applied to the JSON value in ``path``: the one place a load error gets its file's path.

    Bytes that are not UTF-8, a parse error, nesting too deep for the parser,
    a key repeated within one object, and a KeyError (a missing field),
    ValueError, TypeError or OverflowError out of parsing or ``parse`` raise
    CorpusError, its message starting with the path. An OSError passes as it is.
    """
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_duplicate_rejecting_pairs))
    except UnicodeDecodeError as exc:
        message = f"not UTF-8: {exc.reason} at byte {exc.start}"
    except json.JSONDecodeError as exc:
        message = f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except RecursionError:
        message = "JSON nested too deeply to parse"
    except KeyError as exc:
        message = f"missing field {exc.args[0]!r}"
    except (ValueError, TypeError, OverflowError) as exc:
        message = str(exc)
    raise CorpusError(f"{path}: {message}") from None


def _number_array(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float vector; it must be a JSON array of numbers, with no string or bool."""
    values = payload[key]
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"{key!r} must be an array of numbers")
    return np.array(values, dtype=float)


def _parse_knowledge(raw) -> tuple[dict[tuple[str, str], EntitySnippets], dict[tuple[str, str], str]]:
    if not isinstance(raw, dict):
        raise CorpusError("expected a domain -> entities object")
    snippets: dict[tuple[str, str], EntitySnippets] = {}
    names: dict[tuple[str, str], str] = {}
    for domain, entities in raw.items():
        if not isinstance(entities, dict):
            raise CorpusError(f"domain {domain!r}: expected an object")
        for entity_id, entity in entities.items():
            if not isinstance(entity, dict) or "docs" not in entity:
                raise CorpusError(f"entity ({domain!r}, {entity_id!r}): missing 'docs'")
            docs = entity["docs"]
            if not isinstance(docs, dict) or not docs:
                raise CorpusError(f"entity ({domain!r}, {entity_id!r}): 'docs' must be a non-empty object")
            key = (domain, entity_id)
            name = entity.get("name")
            if name is not None and not isinstance(name, str):
                raise CorpusError(f"entity ({domain!r}, {entity_id!r}): 'name' must be a string")
            names[key] = name or ""
            listed = []
            for doc_id, doc in docs.items():
                if not isinstance(doc, dict) or not isinstance(doc.get("title"), str):
                    raise CorpusError(f"doc ({domain!r}, {entity_id!r}, {doc_id!r}): missing string 'title'")
                title = doc["title"]
                if not title:
                    raise CorpusError(f"doc ({domain!r}, {entity_id!r}, {doc_id!r}): title is empty")
                body = doc.get("body", "")
                if not isinstance(body, str):
                    raise CorpusError(f"doc ({domain!r}, {entity_id!r}, {doc_id!r}): 'body' must be a string")
                listed.append((domain, entity_id, doc_id, title, body))
            snippets[key] = EntitySnippets(listed)
    return snippets, names


def load_knowledge(
    knowledge_path,
) -> tuple[dict[tuple[str, str], EntitySnippets], dict[tuple[str, str], str]]:
    """Parse a knowledge file into each entity's :class:`EntitySnippets`, keyed by (domain, entity_id).

    Rejects duplicate keys, empty titles, entities without documents, and
    names that are neither a string nor null. Returns the snippet map and the
    entity display names; a missing or null name is "".
    """
    return _load(knowledge_path, _parse_knowledge)


def _parse_turns(index: int, raw_dialog) -> tuple[DialogTurn, ...]:
    dialog_id = _dialog_id(index)
    if not isinstance(raw_dialog, list) or not raw_dialog:
        raise CorpusError(f"dialog {dialog_id}: expected a non-empty turn array")
    turns = []
    for turn_no, raw_turn in enumerate(raw_dialog):
        if not isinstance(raw_turn, dict):
            raise CorpusError(f"dialog {dialog_id} turn {turn_no}: expected an object")
        speaker_code = raw_turn.get("speaker")
        try:
            speaker = Speaker(speaker_code)
        except ValueError:
            raise CorpusError(
                f"dialog {dialog_id} turn {turn_no}: speaker must be 'U' or 'S', got {speaker_code!r}"
            ) from None
        text = raw_turn.get("text")
        if not isinstance(text, str) or not text.strip():
            raise CorpusError(f"dialog {dialog_id} turn {turn_no}: text must be a non-empty string")
        turns.append(DialogTurn(speaker, text))
    if turns[-1].speaker is not Speaker.USER:
        raise CorpusError(f"dialog {dialog_id}: last turn must be a user turn")
    return tuple(turns)


def _parse_logs(raw_logs) -> list[tuple[DialogTurn, ...]]:
    if not isinstance(raw_logs, list):
        raise CorpusError("expected an array of dialogs")
    return [_parse_turns(index, raw_dialog) for index, raw_dialog in enumerate(raw_logs)]


def _parse_label(corpus: Corpus, index: int, raw_label) -> tuple[bool, SnippetRef | None, str | None]:
    """``(target, golden, response)`` of one label; a golden reference must resolve in ``corpus``."""
    dialog_id = _dialog_id(index)
    if not isinstance(raw_label, dict) or not isinstance(raw_label.get("target"), bool):
        raise CorpusError(f"dialog {dialog_id}: label must carry a boolean 'target'")
    target = raw_label["target"]
    knowledge = raw_label.get("knowledge")
    if knowledge is None:
        knowledge = []
    elif not isinstance(knowledge, list):
        raise CorpusError(f"dialog {dialog_id}: 'knowledge' must be an array")
    if not target:
        if knowledge:
            raise CorpusError(f"dialog {dialog_id}: non-target label must not carry knowledge")
        return False, None, None
    if len(knowledge) != 1:
        raise CorpusError(
            f"dialog {dialog_id}: expected exactly one golden knowledge reference, got {len(knowledge)}"
        )
    entry = knowledge[0]
    if not isinstance(entry, dict):
        raise CorpusError(f"dialog {dialog_id}: knowledge entry must be an object")
    for key in SnippetRef._fields:
        if key not in entry:
            raise CorpusError(f"dialog {dialog_id}: knowledge entry missing {key!r}")
        if not isinstance(entry[key], str):
            raise CorpusError(f"dialog {dialog_id}: knowledge entry {key!r} must be a string")
    ref = SnippetRef(entry["domain"], entry["entity_id"], entry["doc_id"])
    response = raw_label.get("response")
    if response is not None and not isinstance(response, str):
        raise CorpusError(f"dialog {dialog_id}: 'response' must be a string")
    if corpus.find_snippet(ref) is None:
        raise CorpusError(
            f"dialog {dialog_id}: golden reference ({ref.domain!r}, {ref.entity_id!r}, {ref.doc_id!r}) not in knowledge base"
        )
    return True, ref, response


def _parse_labels(corpus: Corpus, n_dialogs: int, raw_labels) -> list[tuple[bool, SnippetRef | None, str | None]]:
    if not isinstance(raw_labels, list):
        raise CorpusError("expected an array of labels")
    if len(raw_labels) != n_dialogs:
        raise CorpusError(f"{len(raw_labels)} labels for {n_dialogs} dialogs")
    return [_parse_label(corpus, index, raw_label) for index, raw_label in enumerate(raw_labels)]


def load_corpus(knowledge_path, logs_path, labels_path=None) -> Corpus:
    """Load and validate a corpus from its knowledge, logs, and labels files, in that order.

    Without a labels file every dialog is unlabeled (``target`` false, no
    golden reference). Raises :class:`CorpusError` on parse errors (with
    line/column), a key repeated within one JSON object, malformed turns or
    labels, and golden references that do not resolve in the knowledge base.
    """
    snippets, names = load_knowledge(knowledge_path)
    corpus = Corpus(snippets, [], names)
    dialog_turns = _load(logs_path, _parse_logs)
    labels = (
        [(False, None, None)] * len(dialog_turns)
        if labels_path is None
        else _load(labels_path, partial(_parse_labels, corpus, len(dialog_turns)))
    )
    corpus.dialogs = [
        DialogInstance(_dialog_id(index), turns, *label)
        for index, (turns, label) in enumerate(zip(dialog_turns, labels))
    ]
    return corpus


def candidate_set(corpus: Corpus, entity: tuple[str, str]) -> EntitySnippets:
    """The entity's snippets in stored order, the stored object itself; the candidate set for selection.

    Raises :class:`CorpusError` for an unknown entity.
    """
    try:
        return corpus.snippets[tuple(entity)]
    except KeyError:
        raise CorpusError(f"unknown entity ({entity[0]!r}, {entity[1]!r})") from None


def rank_order(scores) -> np.ndarray:
    """The one ranking rule: candidate indices by score, highest first, ties in stored candidate order.

    ``scores`` is in candidate order; an n x L matrix is ranked row by row.
    """
    return np.argsort(-np.asarray(scores), axis=-1, kind="stable")


def labeled_candidates(corpus: Corpus):
    """Yield (dialog, candidates, golden index) per labeled knowledge-seeking dialog, in corpus order.

    Candidates are the golden entity's snippets; a golden doc missing from them raises CorpusError.
    """
    for dialog in corpus.dialogs:
        if not dialog.target or dialog.golden is None:
            continue
        golden = dialog.golden
        candidates = candidate_set(corpus, (golden.domain, golden.entity_id))
        doc_ids = [row[2] for row in candidates.rows]
        if golden.doc_id not in doc_ids:
            raise CorpusError(f"dialog {dialog.id}: golden doc {golden.doc_id!r} is not among its entity's snippets")
        yield dialog, candidates, doc_ids.index(golden.doc_id)


def _write_json(payload, path) -> None:
    """Write ``payload`` as UTF-8 JSON; a lone surrogate (a path byte that is not UTF-8) is written as its ``\\u`` escape."""
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8", errors="backslashreplace"
    )


def write_corpus(corpus: Corpus, knowledge_path, logs_path, labels_path=None) -> None:
    """Write a corpus back to the three-file layout read by :func:`load_corpus`.

    Stored snippet and dialog order is preserved, so write followed by load
    reproduces an equal corpus (dialog ids are positional on both sides).
    """
    knowledge: dict[str, dict] = {}
    for (domain, entity_id), docs in corpus.snippets.items():
        knowledge.setdefault(domain, {})[entity_id] = {
            "name": corpus.entity_names.get((domain, entity_id), ""),
            "docs": {doc_id: {"title": title, "body": body} for _, _, doc_id, title, body in docs.rows},
        }
    _write_json(knowledge, knowledge_path)

    logs = [
        [{"speaker": turn.speaker.value, "text": turn.text} for turn in dialog.turns]
        for dialog in corpus.dialogs
    ]
    _write_json(logs, logs_path)

    if labels_path is None:
        return
    labels = []
    for dialog in corpus.dialogs:
        entry: dict = {"target": dialog.target}
        if dialog.target and dialog.golden is not None:
            entry["knowledge"] = [dialog.golden._asdict()]
            if dialog.response is not None:
                entry["response"] = dialog.response
        labels.append(entry)
    _write_json(labels, labels_path)


# Largest synthetic sizes (``--dialogs``, ``--candidates``, ``--vocab-size``) and document count.
SYNTH_CAPS = {"n_dialogs": 100_000, "n_candidates": 1_000, "vocab_size": 100_000}
MAX_SYNTH_DOCUMENTS = 1_000_000


@dataclass(frozen=True)
class SynthParams:
    """Parameters of the synthetic corpus generator (see :func:`synth_corpus`).

    Each of the ``n_dialogs`` dialogs gets one entity with ``n_candidates``
    documents of four tokens drawn from ``vocab_size`` tokens.
    ``detect_marker_rate`` is the fraction of dialogs generated as chit-chat
    (marked with :data:`MARKER_TOKEN` and not knowledge-seeking). Each size
    has a cap (``SYNTH_CAPS``), and so has the document count
    ``n_dialogs * n_candidates`` (``MAX_SYNTH_DOCUMENTS``).
    """

    n_dialogs: int = 200
    n_candidates: int = 8
    vocab_size: int = 64
    detect_marker_rate: float = 0.5

    def __post_init__(self):
        for name, cap in SYNTH_CAPS.items():
            if getattr(self, name) > cap:
                raise ValueError(f"{name} must be <= {cap}, got {getattr(self, name)}")
        if self.n_dialogs * self.n_candidates > MAX_SYNTH_DOCUMENTS:
            raise ValueError(
                f"n_dialogs * n_candidates must be <= {MAX_SYNTH_DOCUMENTS}, got {self.n_dialogs * self.n_candidates}"
            )
        if self.n_dialogs < 1:
            raise ValueError(f"n_dialogs must be >= 1, got {self.n_dialogs}")
        if self.n_candidates < 2:
            raise ValueError(f"n_candidates must be >= 2, got {self.n_candidates}")
        if self.vocab_size < 4 * self.n_candidates:
            raise ValueError(
                f"vocab_size must be >= 4 * n_candidates = {4 * self.n_candidates}, got {self.vocab_size}"
            )
        if not 0.0 <= self.detect_marker_rate <= 1.0:
            raise ValueError(f"detect_marker_rate must be in [0, 1], got {self.detect_marker_rate}")


def synth_corpus(seed: int, params: SynthParams) -> Corpus:
    """Generate a deterministic synthetic corpus for selection and detection runs.

    Every dialog owns one entity with ``n_candidates`` documents whose content
    tokens are mutually disjoint. Knowledge-seeking dialogs end in a question
    that repeats two or three of the golden document's tokens verbatim; filler
    question tokens are drawn outside the candidate pools, so distractors share
    no token with the question and lexical matching alone finds the golden
    document. Chit-chat dialogs carry the marker token instead and get no
    golden label.
    """
    rng = np.random.default_rng(seed)
    width = max(2, len(str(params.vocab_size - 1)))
    vocab = [f"w{j:0{width}d}" for j in range(params.vocab_size)]

    n_marker = round(params.n_dialogs * params.detect_marker_rate)
    is_target = np.array([False] * n_marker + [True] * (params.n_dialogs - n_marker))
    rng.shuffle(is_target)

    snippets: dict[tuple[str, str], EntitySnippets] = {}
    names: dict[tuple[str, str], str] = {}
    dialogs: list[DialogInstance] = []
    for i in range(params.n_dialogs):
        domain, entity_id = "synth", f"e{i:04d}"
        perm = rng.permutation(params.vocab_size)
        candidate_tokens = [
            [vocab[int(j)] for j in perm[4 * c : 4 * c + 4]] for c in range(params.n_candidates)
        ]
        snippets[(domain, entity_id)] = EntitySnippets(
            (domain, entity_id, str(c), " ".join(toks[:2]) + "?", " ".join(toks[2:]) + ".")
            for c, toks in enumerate(candidate_tokens)
        )
        names[(domain, entity_id)] = f"synthetic entity {i}"
        filler_pool = [vocab[int(j)] for j in perm[4 * params.n_candidates :]]

        turns: list[DialogTurn] = []
        if rng.random() < 0.5:
            turns.append(DialogTurn(Speaker.USER, "hello there"))
            turns.append(DialogTurn(Speaker.SYS, "how can i help"))

        if is_target[i]:
            golden_idx = int(rng.integers(params.n_candidates))
            n_golden_tokens = int(rng.integers(2, 4))
            picked = [
                candidate_tokens[golden_idx][int(j)]
                for j in rng.choice(4, size=n_golden_tokens, replace=False)
            ]
            n_filler = min(int(rng.integers(0, 3)), len(filler_pool))
            filler = (
                [filler_pool[int(j)] for j in rng.choice(len(filler_pool), size=n_filler, replace=False)]
                if n_filler
                else []
            )
            question_tokens = picked + filler
            order = rng.permutation(len(question_tokens))
            question = " ".join(question_tokens[int(j)] for j in order) + "?"
            turns.append(DialogTurn(Speaker.USER, question))
            dialogs.append(
                DialogInstance(
                    _dialog_id(i),
                    tuple(turns),
                    target=True,
                    golden=SnippetRef(domain, entity_id, str(golden_idx)),
                    response="yes " + " ".join(candidate_tokens[golden_idx][2:]) + ".",
                )
            )
        else:
            n_extra = int(rng.integers(1, 4))
            extra = [vocab[int(j)] for j in rng.choice(params.vocab_size, size=n_extra, replace=False)]
            turns.append(DialogTurn(Speaker.USER, " ".join([MARKER_TOKEN] + extra)))
            dialogs.append(DialogInstance(_dialog_id(i), tuple(turns)))
    return Corpus(snippets, dialogs, names)
