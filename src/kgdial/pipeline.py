"""End-to-end orchestration: detect, select, and format the generation input.

The generation input is a single string a downstream response generator can
consume: "<BOS>", the selected snippet (title and body), the dialog history
with "<sp1>"/"<sp2>" speaker prefixes, a final "<sp2>" carrying the response
slot, and "<EOS>". Response generation itself is out of scope.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .corpus import _USER, Corpus, DialogInstance, DialogTurn, KnowledgeSnippet, SnippetRef, candidate_set
from .detection import DetectorModel, detect
from .selector import SelectionDistribution, SelectorModel, selection_distribution

BOS = "<BOS>"
EOS = "<EOS>"
SP_USER = "<sp1>"
SP_SYS = "<sp2>"


def format_generation_input(
    snippet: KnowledgeSnippet, history: Sequence[DialogTurn], response: str | None = None
) -> str:
    """Concatenate snippet, speaker-tagged history, and response slot literally.

    No whitespace is inserted beyond the space joining title and body. The
    response slot is the empty string when no response is given. The history
    must be non-empty; each turn is tagged by its own speaker, so it may
    start with either.
    """
    if not history:
        raise ValueError("history must be non-empty")
    parts = [BOS, snippet.text]
    for turn in history:
        parts.append(SP_USER if turn.speaker is _USER else SP_SYS)
        parts.append(turn.text)
    parts.append(SP_SYS)
    parts.append(response if response is not None else "")
    parts.append(EOS)
    return "".join(parts)


class PipelineResult(NamedTuple):
    """Outcome of one dialog pass; selection fields are set iff triggered.

    A tuple: it compares, indexes and unpacks as one, in field order.
    """

    triggered: bool
    detection_probability: float
    selection: SelectionDistribution | None = None
    top_snippet: SnippetRef | None = None
    generation_input: str | None = None


def run_pipeline(
    detector: DetectorModel,
    selector_model: SelectorModel,
    provider,
    corpus: Corpus,
    dialog: DialogInstance,
    entity: tuple[str, str],
) -> PipelineResult:
    """Detect; when triggered, rank the entity's snippets and format the input.

    The top snippet comes first in :func:`~kgdial.corpus.rank_order` of selection
    probability: the first largest probability, which ``argmax`` finds without
    a sort. The generation input leaves the response slot empty.
    """
    probability, triggered = detect(detector, dialog)
    if not triggered:
        return PipelineResult(False, probability)
    candidates = candidate_set(corpus, entity)
    dist = selection_distribution(selector_model, provider, dialog.current_turn.text, candidates)
    top = candidates[dist.probabilities.argmax()]
    return PipelineResult(True, probability, dist, top.ref, format_generation_input(top, dialog.turns))


def result_to_payload(result: PipelineResult) -> dict:
    """JSON-ready dictionary with the result's exact field names."""
    payload = {
        "triggered": result.triggered,
        "detection_probability": result.detection_probability,
        "selection": None,
        "top_snippet": None,
        "generation_input": result.generation_input,
    }
    if result.selection is not None:
        payload["selection"] = {
            "probabilities": [float(p) for p in result.selection.probabilities],
            "candidate_refs": [c.ref._asdict() for c in result.selection.candidates],
        }
    if result.top_snippet is not None:
        payload["top_snippet"] = result.top_snippet._asdict()
    return payload
