import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial.corpus import (
    Corpus,
    DialogInstance,
    DialogTurn,
    EntitySnippets,
    KnowledgeSnippet,
    SnippetRef,
    Speaker,
    rank_order,
)
from kgdial.evaluation import (
    DetectionMetrics,
    ReportEntry,
    SelectionMetrics,
    _golden_metrics,
    detection_metrics,
    evaluate_detector,
    evaluate_selector,
    evaluate_tfidf,
    f1_score,
    report,
    selection_metrics,
)
from kgdial.fixtures import hotel_corpus
from kgdial.selector import SelectorModel, default_kernel_bank, rank, selection_instances

from helpers import oracle_detection_metrics, oracle_golden_position, oracle_selection_metrics


class TestF1Score:
    def test_reference_row_reproduced(self):
        assert abs(f1_score(0.9719, 0.9992) - 0.9853) < 5e-4

    def test_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_perfect(self):
        assert f1_score(1.0, 1.0) == 1.0


class TestDetectionMetrics:
    def test_all_correct(self):
        metrics = detection_metrics([True, False, True], [True, False, True])
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0
        assert metrics.counts == {"tp": 2, "fp": 0, "fn": 0, "tn": 1}

    def test_hand_confusion_case(self):
        predictions = [True, True, False, False, True]
        gold = [True, False, True, False, True]
        metrics = detection_metrics(predictions, gold)
        assert metrics.counts == {"tp": 2, "fp": 1, "fn": 1, "tn": 1}
        assert metrics.precision == 2 / 3
        assert metrics.recall == 2 / 3

    def test_zero_denominators(self):
        metrics = detection_metrics([False, False], [True, True])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_matches_oracle_exactly_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            predictions = [bool(b) for b in rng.integers(0, 2, size=n)]
            gold = [bool(b) for b in rng.integers(0, 2, size=n)]
            ours = detection_metrics(predictions, gold)
            oracle = oracle_detection_metrics(predictions, gold)
            assert ours.precision == oracle["precision"]
            assert ours.recall == oracle["recall"]
            assert ours.f1 == oracle["f1"]
            assert ours.counts == oracle["counts"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            detection_metrics([True], [True, False])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            detection_metrics([], [])


class TestSelectionMetrics:
    def test_all_first_positions(self):
        metrics = selection_metrics([1, 1, 1])
        assert metrics.acc_at_1 == metrics.acc_at_5 == metrics.mrr_at_5 == 1.0
        assert metrics.n_instances == 3

    def test_hand_case_1_3_7(self):
        metrics = selection_metrics([1, 3, 7])
        assert abs(metrics.acc_at_1 - 0.33333333) < 1e-8
        assert abs(metrics.acc_at_5 - 0.66666667) < 1e-8
        assert abs(metrics.mrr_at_5 - 0.44444444) < 1e-8

    def test_matches_oracle_exactly_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            positions = [int(p) for p in rng.integers(1, 12, size=n)]
            ours = selection_metrics(positions)
            oracle = oracle_selection_metrics(positions)
            assert ours.acc_at_1 == oracle["acc_at_1"]
            assert ours.acc_at_5 == oracle["acc_at_5"]
            assert ours.mrr_at_5 == oracle["mrr_at_5"]
            assert ours.n_instances == oracle["n_instances"]

    def test_metric_bounds_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            positions = [int(p) for p in rng.integers(1, 15, size=n)]
            metrics = selection_metrics(positions)
            assert metrics.acc_at_1 <= metrics.acc_at_5
            assert metrics.acc_at_5 / 5 <= metrics.mrr_at_5 <= metrics.acc_at_5

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            selection_metrics([])
        with pytest.raises(ValueError, match=">= 1"):
            selection_metrics([0])
        with pytest.raises(ValueError, match=">= 1"):
            selection_metrics([1.5])


@st.composite
def ragged_scores(draw):
    """Score rows of 1-8 candidates from a few values, so ties are common, and a golden index per row."""
    values = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0])
    rows = draw(st.lists(st.lists(values, min_size=1, max_size=8), min_size=1, max_size=6))
    return rows, [draw(st.integers(0, len(row) - 1)) for row in rows]


class TestGoldenMetrics:
    @settings(deadline=None)
    @given(ragged_scores())
    def test_positions_and_ties_match_the_oracle(self, case):
        rows, golden = case
        scores = np.full((len(rows), max(map(len, rows))), -np.inf)
        for r, row in enumerate(rows):
            scores[r, : len(row)] = row
            assert rank_order(row).tolist() == sorted(range(len(row)), key=lambda i: (-row[i], i))
        expected = [oracle_golden_position(row, g) for row, g in zip(rows, golden)]
        ties = sum(t for _, t in expected)
        warned = f"label: {ties} candidate scores tied with a golden score; ranks fall back to candidate order"

        with mock.patch("kgdial.evaluation.selection_metrics", wraps=selection_metrics) as spy, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _golden_metrics(scores, np.array(golden), "label")
        assert spy.call_args.args[0] == [p for p, _ in expected]
        assert [str(w.message) for w in caught] == ([warned] if ties else [])


def hotel_corpus_missing_golden():
    """The hotel corpus with its dialog's golden doc id set to one its entity lacks."""
    corpus = hotel_corpus()
    dialog = corpus.dialogs[0]
    missing = DialogInstance(dialog.id, dialog.turns, True, SnippetRef("hotel", "1", "404"))
    return Corpus(corpus.snippets, [missing], corpus.entity_names)


class TestEvaluateSelector:
    def exact_model(self):
        weights = np.zeros(11)
        weights[-1] = 1.0
        return SelectorModel(default_kernel_bank(11), weights)

    def test_duplicate_golden_gets_acc1(self, provider7):
        metrics = evaluate_selector(self.exact_model(), provider7, hotel_corpus())
        assert metrics.acc_at_1 == 1.0
        assert metrics.n_instances == 1

    def test_zero_weights_fall_back_to_candidate_order(self, small_corpus, provider7):
        model = SelectorModel(default_kernel_bank(11), np.zeros(11))
        with pytest.warns(UserWarning, match="tied"):
            metrics = evaluate_selector(model, provider7, small_corpus)
        targets = [d for d in small_corpus.dialogs if d.target]
        golden_first = sum(1 for d in targets if d.golden.doc_id == "0")
        assert metrics.acc_at_1 == golden_first / len(targets)

    def test_single_candidate_corpus_all_ones(self, provider7):
        snippet = KnowledgeSnippet("d", "e", "0", "only option?", "yes.")
        dialog = DialogInstance(
            "d0000",
            (DialogTurn(Speaker.USER, "only option?"),),
            target=True,
            golden=SnippetRef("d", "e", "0"),
        )
        corpus = Corpus({("d", "e"): [snippet]}, [dialog])
        metrics = evaluate_selector(self.exact_model(), provider7, corpus)
        assert metrics.acc_at_1 == metrics.acc_at_5 == metrics.mrr_at_5 == 1.0

    def test_no_labeled_dialogs_rejected(self, provider7):
        corpus = hotel_corpus()
        unlabeled = Corpus(corpus.snippets, [], corpus.entity_names)
        with pytest.raises(ValueError, match="no labeled"):
            evaluate_selector(self.exact_model(), provider7, unlabeled)

    def test_underflowed_probabilities_rank_and_evaluate(self, provider7):
        corpus = hotel_corpus()
        weights = np.zeros(11)
        weights[-1] = 100.0
        model = SelectorModel(default_kernel_bank(11), weights)
        ranked = rank(model, provider7, corpus.dialogs[0].current_turn.text, corpus.snippets[("hotel", "1")])
        assert ranked[0] == (SnippetRef("hotel", "1", "0"), 1.0)
        assert min(p for _, p in ranked) == 0.0
        assert evaluate_selector(model, provider7, corpus).acc_at_1 == 1.0

    def test_underflowed_golden_ranked_on_scores(self, provider7):
        # Snippet 0 repeats the question; snippet 1 shares more of it than
        # snippets 2-7, which are stored before it. All but snippet 0 get
        # probability exactly 0, so a probability ranking would put the
        # golden snippet 1 last (8th) by candidate order.
        corpus = hotel_corpus()
        s = corpus.snippets[("hotel", "1")]
        dialog = DialogInstance(
            "d0000", corpus.dialogs[0].turns, True, SnippetRef("hotel", "1", "1")
        )
        reordered = Corpus({("hotel", "1"): [s[0], *s[2:], s[1]]}, [dialog], corpus.entity_names)
        weights = np.zeros(11)
        weights[-1] = 100.0
        model = SelectorModel(default_kernel_bank(11), weights)
        ranked = rank(model, provider7, dialog.current_turn.text, reordered.snippets[("hotel", "1")])
        assert [p for _, p in ranked[1:]] == [0.0] * 7
        assert ranked[1][0] == SnippetRef("hotel", "1", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = evaluate_selector(model, provider7, reordered)
        assert (metrics.acc_at_1, metrics.acc_at_5, metrics.mrr_at_5) == (0.0, 1.0, 0.5)

    def test_golden_missing_from_entity_names_dialog(self, provider7):
        broken = hotel_corpus_missing_golden()
        with pytest.raises(ValueError, match="dialog d0000: golden doc '404'"):
            selection_instances(broken, provider7, default_kernel_bank(11))


class TestEvaluateTfidf:
    def test_token_overlap_corpus_ranks_golden_high(self, small_corpus):
        metrics = evaluate_tfidf(small_corpus)
        assert metrics.acc_at_1 >= 0.9

    def test_no_labeled_dialogs_rejected(self):
        corpus = hotel_corpus()
        unlabeled = Corpus(corpus.snippets, [], corpus.entity_names)
        with pytest.raises(ValueError, match="no labeled"):
            evaluate_tfidf(unlabeled)

    @staticmethod
    def golden_after_a_copy():
        copies = [KnowledgeSnippet("d", "e", doc_id, "alpha?", "beta.") for doc_id in "01"]
        dialog = DialogInstance(
            "d0000", (DialogTurn(Speaker.USER, "alpha"),), target=True, golden=SnippetRef("d", "e", "1")
        )
        return Corpus({("d", "e"): copies}, [dialog])

    def test_golden_tied_with_an_earlier_copy_warns_and_ranks_second(self):
        with pytest.warns(UserWarning, match="^tfidf evaluation: 1 candidate scores tied"):
            metrics = evaluate_tfidf(self.golden_after_a_copy())
        assert (metrics.acc_at_1, metrics.mrr_at_5) == (0.0, 0.5)

    def test_a_repeat_on_one_corpus_reports_the_same_metrics_and_ties(self):
        corpus = self.golden_after_a_copy()
        runs = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                metrics = evaluate_tfidf(corpus)
            runs.append((metrics, [str(w.message) for w in caught]))
        assert corpus.vocabulary_index is not None
        assert runs[0] == runs[1]
        [message] = runs[0][1]
        assert message.startswith("tfidf evaluation: 1 candidate scores tied")

    def test_an_entity_shared_by_two_corpora_scores_under_each_vocabulary(self):
        # Two copies tie; the other corpus's first entity gives the same tokens other ids and idf.
        shared = EntitySnippets([KnowledgeSnippet("d", "e", doc_id, title, body)
                                 for doc_id, title, body in [("0", "alpha?", "beta."), ("1", "alpha?", "beta."),
                                                             ("2", "gamma?", "delta alpha.")]])
        other = [KnowledgeSnippet("d", "f", "0", "zeta delta?", "gamma gamma.")]

        def asking(index, question, doc_id):
            return DialogInstance(f"d{index:04d}", (DialogTurn(Speaker.USER, question),), target=True,
                                  golden=SnippetRef("d", "e", doc_id))

        corpora = [
            Corpus({("d", "e"): shared}, [asking(0, "alpha", "1"), asking(1, "gamma delta", "2")]),
            Corpus({("d", "f"): other, ("d", "e"): shared}, [asking(0, "beta alpha", "0"), asking(1, "delta", "2")]),
        ]

        def evaluated(corpus):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                metrics = evaluate_tfidf(corpus)
            return metrics, [str(w.message) for w in caught]

        expected = [evaluated(Corpus({key: EntitySnippets(docs.rows) for key, docs in corpus.snippets.items()},
                                     corpus.dialogs)) for corpus in corpora]
        assert expected[0] != expected[1] and all(messages for _, messages in expected)
        for _ in range(3):
            for corpus, fresh in zip(corpora, expected):
                assert evaluated(corpus) == fresh
                assert shared.tfidf_index[0] is corpus.vocabulary_index[1]

    def test_golden_missing_from_entity_names_dialog(self):
        broken = hotel_corpus_missing_golden()
        with pytest.raises(ValueError, match="dialog d0000: golden doc '404'"):
            evaluate_tfidf(broken)


class TestEvaluateDetector:
    def test_trained_model_metrics(self, small_corpus, small_detector):
        model, _ = small_detector
        metrics = evaluate_detector(model, small_corpus)
        counts = metrics.counts
        assert sum(counts.values()) == len(small_corpus.dialogs)
        assert metrics.f1 >= 0.99

    def test_empty_corpus_rejected(self, small_detector):
        model, _ = small_detector
        with pytest.raises(ValueError, match="no dialogs"):
            evaluate_detector(model, Corpus({}, []))


class TestReport:
    def entries(self):
        detection = DetectionMetrics(0.9719, 0.9992, f1_score(0.9719, 0.9992),
                                     {"tp": 1, "fp": 0, "fn": 0, "tn": 0})
        selection = SelectionMetrics(0.6201, 0.8772, 0.7263, 100)
        return [ReportEntry("gks", detection, selection), ReportEntry("tfidf", selection=selection)]

    def test_markdown_column_order_matches_tables(self):
        text = report(self.entries(), fmt="md")
        assert "| Model | Recall | Precision | F1 |" in text
        assert "| Model | Acc@5 | Acc@1 | MRR@5 |" in text
        assert "| gks | 0.9992 | 0.9719 | 0.9854 |" in text
        assert "| gks | 0.8772 | 0.6201 | 0.7263 |" in text
        assert "| tfidf | 0.8772 | 0.6201 | 0.7263 |" in text

    def test_empty_entries_header_only(self):
        text = report([], fmt="md")
        assert "| Model | Recall | Precision | F1 |" in text
        assert "| Model | Acc@5 | Acc@1 | MRR@5 |" in text
        assert "gks" not in text

    def test_json_parses_with_schema(self):
        payload = json.loads(report(self.entries(), fmt="json"))
        assert [entry["model"] for entry in payload] == ["gks", "tfidf"]
        assert payload[0]["detection"]["precision"] == 0.9719
        assert payload[1]["detection"] is None
        assert payload[1]["selection"]["acc_at_5"] == 0.8772

    def test_json_and_markdown_agree_at_4_decimals(self):
        payload = json.loads(report(self.entries(), fmt="json"))
        text = report(self.entries(), fmt="md")
        selection = payload[0]["selection"]
        row = (f"| gks | {selection['acc_at_5']:.4f} | {selection['acc_at_1']:.4f} "
               f"| {selection['mrr_at_5']:.4f} |")
        assert row in text

    def test_stamp_opt_in(self):
        stamped = report([], fmt="md", stamp="run-1")
        assert stamped.startswith("<!-- run-1 -->")
        assert "<!--" not in report([], fmt="md")
        wrapped = json.loads(report([], fmt="json", stamp="run-1"))
        assert wrapped == {"stamp": "run-1", "results": []}
        assert json.loads(report([], fmt="json")) == []

    def test_deterministic(self):
        assert report(self.entries(), fmt="md") == report(self.entries(), fmt="md")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            report([], fmt="tsv")
