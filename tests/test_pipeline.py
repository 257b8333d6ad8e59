import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial import corpus as corpus_module
from kgdial import pipeline
from kgdial.corpus import (
    Corpus,
    DialogTurn,
    KnowledgeSnippet,
    Speaker,
    candidate_set,
    labeled_candidates,
    rank_order,
    write_corpus,
)
from kgdial.detection import DetectorModel
from kgdial.embedding import build_vocabulary, tfidf_rank
from kgdial.fixtures import hotel_corpus
from kgdial.pipeline import (
    BOS,
    EOS,
    PipelineResult,
    format_generation_input,
    result_to_payload,
    run_pipeline,
)
from kgdial.selector import (
    SelectionDistribution,
    SelectorModel,
    default_kernel_bank,
    selection_distribution,
    selection_instances,
)

from helpers import oracle_generation_input


def snippet(title, body=""):
    return KnowledgeSnippet("d", "e", "0", title, body)


def zero_detector():
    return DetectorModel(np.zeros(4112), 4096, 16, 0.5)


def exact_match_selector():
    weights = np.zeros(11)
    weights[-1] = 1.0
    return SelectorModel(default_kernel_bank(11), weights)


class TestFormatGenerationInput:
    def test_single_turn_with_response(self):
        text = format_generation_input(
            snippet("q?", "a."), [DialogTurn(Speaker.USER, "hi")], "ok"
        )
        assert text == "<BOS>q? a.<sp1>hi<sp2>ok<EOS>"

    def test_absent_response_leaves_empty_slot(self):
        text = format_generation_input(snippet("q?", "a."), [DialogTurn(Speaker.USER, "hi")])
        assert text.endswith("<sp2><EOS>")

    def test_labeled_instance_response_verbatim_before_eos(self, small_corpus):
        dialog = next(d for d in small_corpus.dialogs if d.target)
        golden = small_corpus.find_snippet(dialog.golden)
        text = format_generation_input(golden, dialog.turns, dialog.response)
        tail = text.rsplit("<sp2>", 1)[1]
        assert tail == dialog.response + EOS

    def test_history_speaker_tags_alternate_by_speaker(self):
        history = [
            DialogTurn(Speaker.USER, "u1"),
            DialogTurn(Speaker.SYS, "s1"),
            DialogTurn(Speaker.USER, "u2"),
        ]
        text = format_generation_input(snippet("q?", "a."), history, "r")
        assert text == "<BOS>q? a.<sp1>u1<sp2>s1<sp1>u2<sp2>r<EOS>"

    @settings(deadline=None, max_examples=100)
    @given(speakers=st.lists(st.sampled_from([Speaker.USER, Speaker.SYS]), min_size=1, max_size=13), data=st.data())
    def test_equals_the_tag_by_tag_oracle(self, speakers, data):
        texts = data.draw(st.lists(st.sampled_from(["", "hi", "<sp2>", "Ünï ΟΔΟΣ", "a\x00b"]),
                                   min_size=len(speakers), max_size=len(speakers)))
        turns = list(map(DialogTurn, speakers, texts))
        response = data.draw(st.sampled_from([None, "", "ok"]))
        expected = oracle_generation_input(snippet("q?", "a."), turns, response)
        assert format_generation_input(snippet("q?", "a."), turns, response) == expected

    def test_a_system_first_history_renders_tag_by_tag(self):
        history = [DialogTurn(Speaker.SYS, "s1"), DialogTurn(Speaker.USER, "u1")]
        text = format_generation_input(snippet("q?", "a."), history, "r")
        assert text == "<BOS>q? a.<sp2>s1<sp1>u1<sp2>r<EOS>"
        assert text == oracle_generation_input(snippet("q?", "a."), history, "r")

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            format_generation_input(snippet("q?"), [])


class TestRunPipeline:
    def test_zero_detector_triggers_and_selects(self, provider7):
        corpus = hotel_corpus()
        result = run_pipeline(
            zero_detector(), exact_match_selector(), provider7, corpus,
            corpus.dialogs[0], ("hotel", "1"),
        )
        assert result.triggered is True
        assert result.detection_probability == 0.5
        assert result.selection is not None
        assert result.top_snippet is not None
        assert result.generation_input.startswith(BOS)
        assert result.generation_input.endswith(EOS)
        assert result.generation_input.count(BOS) == 1
        assert result.generation_input.count(EOS) == 1

    def test_hotel_fixture_selects_duplicate_snippet(self, provider7):
        corpus = hotel_corpus()
        result = run_pipeline(
            zero_detector(), exact_match_selector(), provider7, corpus,
            corpus.dialogs[0], ("hotel", "1"),
        )
        assert result.top_snippet.doc_id == "0"
        assert "accessible parking" in result.generation_input

    def test_untriggered_dialog_has_no_selection(self, small_corpus, small_detector, provider7):
        detector, _ = small_detector
        chitchat = next(d for d in small_corpus.dialogs if not d.target)
        entity = next(iter(small_corpus.snippets))
        result = run_pipeline(
            detector, exact_match_selector(), provider7, small_corpus, chitchat, entity
        )
        assert result.triggered is False
        assert result.selection is None
        assert result.top_snippet is None
        assert result.generation_input is None

    def test_deterministic(self, provider7):
        corpus = hotel_corpus()
        args = (zero_detector(), exact_match_selector(), provider7, corpus,
                corpus.dialogs[0], ("hotel", "1"))
        a = run_pipeline(*args)
        b = run_pipeline(*args)
        assert a.top_snippet == b.top_snippet
        assert a.generation_input == b.generation_input
        np.testing.assert_array_equal(a.selection.probabilities, b.selection.probabilities)

    def test_response_slot_left_empty(self, provider7):
        corpus = hotel_corpus()
        result = run_pipeline(
            zero_detector(), exact_match_selector(), provider7, corpus,
            corpus.dialogs[0], ("hotel", "1"),
        )
        assert result.generation_input.endswith("<sp2><EOS>")


# Readout scores whose softmax ties, underflows to subnormals (-740) or to zero (-800, -1e300).
score_lists = st.lists(st.one_of(st.sampled_from([0.0, -1.0, -740.0, -800.0, -1e300]), st.floats(-750.0, 0.0)),
                  min_size=1, max_size=8)


class TestTopSnippet:
    @settings(deadline=None, max_examples=300)
    @given(scores=score_lists, negative_zeros=st.booleans())
    @example(scores=[0.0], negative_zeros=False)  # a single candidate
    @example(scores=[-800.0, 0.0, 0.0], negative_zeros=True)  # a zero, then a tie
    def test_is_the_first_in_rank_order_of_the_probabilities(self, scores, negative_zeros):
        s = np.array(scores)
        p = np.exp(s - s.max())
        p /= p.sum()
        if negative_zeros:
            p[p == 0] = -0.0
        dist = SelectionDistribution(p, s)
        hotel = hotel_corpus()
        entity = ("hotel", "1")
        corpus = Corpus({entity: hotel.snippets[entity][: p.size]}, hotel.dialogs, hotel.entity_names)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "selection_distribution", lambda *args: dist)
            result = run_pipeline(zero_detector(), exact_match_selector(), None, corpus, corpus.dialogs[0], entity)
        assert result.top_snippet == corpus.snippets[entity][rank_order(p)[0]].ref


class TestResultPayload:
    def test_triggered_payload_fields(self, provider7):
        corpus = hotel_corpus()
        result = run_pipeline(
            zero_detector(), exact_match_selector(), provider7, corpus,
            corpus.dialogs[0], ("hotel", "1"),
        )
        payload = json.loads(json.dumps(result_to_payload(result)))
        assert set(payload) == {
            "triggered", "detection_probability", "selection", "top_snippet", "generation_input",
        }
        assert payload["top_snippet"] == {"domain": "hotel", "entity_id": "1", "doc_id": "0"}
        assert len(payload["selection"]["probabilities"]) == 8
        assert abs(sum(payload["selection"]["probabilities"]) - 1.0) < 1e-9

    def test_triggered_candidate_refs_follow_stored_order(self, provider7):
        hotel = hotel_corpus()
        entity = ("hotel", "1")
        # Stored order differs from doc id and from rank order.
        corpus = Corpus({entity: list(reversed(hotel.snippets[entity]))}, hotel.dialogs, hotel.entity_names)
        result = run_pipeline(
            zero_detector(), exact_match_selector(), provider7, corpus, corpus.dialogs[0], entity,
        )
        payload = json.loads(json.dumps(result_to_payload(result)))
        assert payload["selection"]["candidate_refs"] == [
            c.ref._asdict() for c in candidate_set(corpus, entity)
        ]
        assert payload["selection"]["candidate_refs"][-1] == payload["top_snippet"]

    def test_a_result_compares_and_unpacks_as_a_tuple(self):
        result = PipelineResult(False, 0.25)
        assert result == (False, 0.25, None, None, None)
        triggered, probability, *selection_fields = result
        assert (triggered, probability, selection_fields) == (False, 0.25, [None, None, None])
        assert PipelineResult._fields == (
            "triggered", "detection_probability", "selection", "top_snippet", "generation_input"
        )

    def test_untriggered_payload_nulls(self):
        payload = result_to_payload(PipelineResult(False, 0.25))
        assert payload["selection"] is None
        assert payload["top_snippet"] is None
        assert payload["generation_input"] is None


class TestStoredRows:
    """Paths that read every candidate read the stored rows and build no KnowledgeSnippet."""

    def test_hot_paths_build_no_snippet(self, monkeypatch, small_corpus, provider7, bank11, tmp_path):
        built = []
        monkeypatch.setattr(corpus_module, "_snippet", lambda row: built.append(row) or KnowledgeSnippet(*row))
        dialog = next(d for d in small_corpus.dialogs if d.target)
        entity = (dialog.golden.domain, dialog.golden.entity_id)
        candidates = candidate_set(small_corpus, entity)
        assert candidates is small_corpus.snippets[entity]
        dist = selection_distribution(exact_match_selector(), provider7, dialog.current_turn.text, candidates)
        assert dist.candidates is candidates
        labeled = list(labeled_candidates(small_corpus))
        tfidf_rank(build_vocabulary(small_corpus), [d.current_turn.text for d, _, _ in labeled],
                   [c for _, c, _ in labeled])
        selection_instances(small_corpus, provider7, bank11)
        write_corpus(small_corpus, tmp_path / "k.json", tmp_path / "l.json", tmp_path / "lb.json")
        assert built == []
        result = run_pipeline(zero_detector(), exact_match_selector(), provider7, small_corpus, dialog, entity)
        assert result.triggered and len(built) == 1  # the top snippet only
        assert built[0][:3] == tuple(result.top_snippet)

    def test_a_list_of_candidates_is_carried_as_a_tuple(self, provider7):
        candidates = [snippet("parking?", "yes."), snippet("pool?", "no.")]
        dist = selection_distribution(exact_match_selector(), provider7, "parking?", candidates)
        assert type(dist.candidates) is tuple and dist.candidates == tuple(candidates)
