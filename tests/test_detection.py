import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import detection, embedding
from kgdial.corpus import (
    Corpus,
    DialogInstance,
    DialogTurn,
    MARKER_TOKEN,
    Speaker,
    SynthParams,
    synth_corpus,
)
from kgdial.detection import (
    DetectorHyper,
    DetectorModel,
    detect,
    detect_score,
    featurize,
    load_detector,
    ngram_hash,
    save_detector,
    serialize_dialog,
    train_detector,
)
from kgdial.embedding import EMPTY_TOKEN, tokenize
from kgdial.evaluation import evaluate_detector

from helpers import (
    as_array,
    count_calls,
    full_width_detector_descent,
    oracle_detector_features,
    oracle_ngram_index,
    oracle_serialize_dialog,
    straight_line_detect_score,
    truncated,
    with_field,
    without_field,
)


def dialog(*turns):
    return DialogInstance("d0000", tuple(DialogTurn(s, t) for s, t in turns))


def same_float(a, b) -> bool:
    """Bit-equal floats, or both nan (a nan's sign and payload are the platform's choice)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


# History speakers drawn in any order; the current turn is always the user's.
speaker_sequences = st.lists(st.sampled_from([Speaker.USER, Speaker.SYS]), max_size=12).map(
    lambda history: [*history, Speaker.USER]
)


class TestSerializeDialog:
    def test_single_turn(self):
        d = dialog((Speaker.USER, "Does the hotel offer accessible parking?"))
        assert serialize_dialog(d) == "[User]Does the hotel offer accessible parking?"

    def test_current_turn_first_then_history_in_order(self):
        d = dialog((Speaker.USER, "a"), (Speaker.SYS, "b"), (Speaker.USER, "c"))
        assert serialize_dialog(d) == "[User]c[User]a[Sys]b"

    def test_deterministic(self):
        d = dialog((Speaker.USER, "a"), (Speaker.SYS, "b"), (Speaker.USER, "c"))
        assert serialize_dialog(d) == serialize_dialog(d)

    def test_last_turn_must_be_user(self):
        d = dialog((Speaker.USER, "a"), (Speaker.SYS, "b"))
        with pytest.raises(ValueError, match="last turn"):
            serialize_dialog(d)

    def test_injective_on_distinct_texts(self):
        a = dialog((Speaker.USER, "x"), (Speaker.USER, "y"))
        b = dialog((Speaker.USER, "y"), (Speaker.USER, "x"))
        assert serialize_dialog(a) != serialize_dialog(b)

    @settings(deadline=None, max_examples=100)
    @given(speakers=speaker_sequences, data=st.data())
    def test_equals_the_tag_by_tag_oracle(self, speakers, data):
        texts = data.draw(st.lists(st.sampled_from(["", "hi", "[Sys]", "Ünï ΟΔΟΣ", "a\x00b"]),
                                   min_size=len(speakers), max_size=len(speakers)))
        turns = tuple(map(DialogTurn, speakers, texts))
        assert serialize_dialog(DialogInstance("d0000", turns)) == oracle_serialize_dialog(turns)


class TestFeaturize:
    def test_hand_hash_trace_single_token_turn(self):
        serialized = serialize_dialog(dialog((Speaker.USER, "hi")))
        columns = featurize(serialized, turn_count=1, hash_dim=8, turn_buckets=2)
        assert columns == [oracle_ngram_index(gram, 8) for gram in ("user", "hi", "user hi")] + [8]
        expected = np.zeros(10)
        for gram in ("user", "hi", "user hi"):
            expected[oracle_ngram_index(gram, 8)] += 1.0
        expected[8] = 1.0
        np.testing.assert_array_equal(np.bincount(columns, minlength=10), expected)

    def test_bigrams_cross_turn_boundaries(self):
        serialized = serialize_dialog(dialog((Speaker.USER, "a"), (Speaker.USER, "b")))
        values = np.bincount(featurize(serialized, turn_count=2, hash_dim=64, turn_buckets=4), minlength=68)
        expected = np.zeros(68)
        grams = ["user", "b", "user", "a", "user b", "b user", "user a"]
        for gram in grams:
            expected[oracle_ngram_index(gram, 64)] += 1.0
        expected[64 + 1] = 1.0
        np.testing.assert_array_equal(values, expected)

    def test_turn_count_clamped_to_last_bucket(self):
        values = np.bincount(featurize("[User]hi", turn_count=99, hash_dim=16, turn_buckets=4), minlength=20)
        np.testing.assert_array_equal(values[16:], [0.0, 0.0, 0.0, 1.0])

    def test_deterministic(self):
        assert featurize("[User]hi there", 1, 32, 4) == featurize("[User]hi there", 1, 32, 4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="turn_count"):
            featurize("[User]hi", 0, 16, 2)
        with pytest.raises(ValueError, match="hash_dim"):
            featurize("[User]hi", 1, 0, 2)
        with pytest.raises(ValueError, match="turn_buckets"):
            featurize("[User]hi", 1, 16, 0)

    def test_ngram_hash_is_stable(self):
        assert ngram_hash([b"parking", "停车".encode(), b""], 2**32) == [2989970042, 1165278108, 0]

    @given(st.lists(st.text()))
    def test_ngram_hash_is_32_bit(self, ngrams):
        assert all(0 <= h < 2**32 for h in ngram_hash([g.encode() for g in ngrams], 2**32))

    @given(ngrams=st.lists(st.text()), hash_dim=st.integers(min_value=1, max_value=4096))
    def test_ngram_hash_equals_the_oracle(self, ngrams, hash_dim):
        columns = ngram_hash([g.encode() for g in ngrams], hash_dim)
        assert columns == [oracle_ngram_index(g, hash_dim) for g in ngrams]

    @pytest.mark.parametrize("hash_dim", [0, -4])
    def test_ngram_hash_rejects_a_hash_dim_below_one(self, hash_dim):
        with pytest.raises(ValueError, match=f"hash_dim must be >= 1, got {hash_dim}"):
            ngram_hash([b"parking"], hash_dim)


def expected_grams(text: str) -> list[str]:
    """Every unigram of ``tokenize(text)``, then every bigram."""
    tokens = tokenize(text)
    return tokens + [first + " " + second for first, second in zip(tokens, tokens[1:])]


def expected_columns(text: str, turn_count: int, hash_dim: int, turn_buckets: int) -> list[int]:
    """``oracle_ngram_index`` of every gram of ``expected_grams(text)``, then the bucket."""
    bucket = hash_dim + min(turn_count, turn_buckets) - 1
    return [oracle_ngram_index(gram, hash_dim) for gram in expected_grams(text)] + [bucket]


class TestFeaturizeProperty:
    @settings(deadline=None)
    @given(
        text=st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127)), st.text("Ab1 \x00?\u212a")),
        turn_count=st.integers(min_value=1, max_value=40),
        hash_dim=st.one_of(st.integers(min_value=1, max_value=64), st.just(4096)),
        turn_buckets=st.integers(min_value=1, max_value=20),
    )
    def test_hashed_counts_and_one_hot_bucket(self, text, turn_count, hash_dim, turn_buckets):
        tokens = tokenize(text)
        assert tokens != []
        columns = featurize(text, turn_count, hash_dim, turn_buckets)
        hashed, bucket = columns[:-1], columns[-1]
        assert len(hashed) == 2 * len(tokens) - 1
        assert all(type(c) is int and 0 <= c < hash_dim for c in hashed)
        assert bucket == hash_dim + min(turn_count, turn_buckets) - 1
        assert columns == expected_columns(text, turn_count, hash_dim, turn_buckets)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("[User]\u212a Room", ["user", "k", "room"]),  # KELVIN SIGN lowercases to ASCII "k"
            ("[User]a\x00b [Sys]", ["user", "a", "b", "sys"]),
            ("?! \x00 -", [EMPTY_TOKEN]),
            ("", [EMPTY_TOKEN]),
            ("[User]Straße ΟΔΟΣ w07", ["user", "straße", "οδος", "w07"]),  # stays non-ASCII
            ("[User]İ \u212a", ["user", "i", "k"]),  # İ lowercases to i and a combining dot, a non-letter
        ],
    )
    def test_exact_columns_of_edge_texts(self, text, tokens):
        assert tokenize(text) == tokens
        assert featurize(text, 3, 4096, 16) == expected_columns(text, 3, 4096, 16)

    @pytest.mark.parametrize("text", ["[User]Is there free wifi?[Sys]Yes.", "[User]\u212a", "?!", "a\x00b"])
    def test_text_that_folds_to_ascii_is_neither_tokenized_nor_hashed_gram_by_gram(self, monkeypatch, text):
        expected = expected_columns(text, 2, 64, 4)
        grams = [gram.encode() for gram in expected_grams(text)]
        tokenized = count_calls(monkeypatch, embedding, "tokenize")
        hashed = count_calls(monkeypatch, detection, "ngram_hash")
        assert featurize(text, 2, 64, 4) == expected
        assert tokenized == [] and hashed == [(grams, 64)]

    def test_text_that_stays_non_ascii_is_tokenized_once(self, monkeypatch):
        text = "[User]Straße \u212a w07"
        expected = expected_columns(text, 2, 64, 4)
        grams = [gram.encode() for gram in expected_grams(text)]
        tokenized = count_calls(monkeypatch, embedding, "tokenize")
        hashed = count_calls(monkeypatch, detection, "ngram_hash")
        assert featurize(text, 2, 64, 4) == expected
        assert tokenized == [(text,)] and hashed == [(grams, 64)]


class TestDetectScore:
    def test_zero_weights_give_half(self):
        model = DetectorModel(np.zeros(18), 16, 2, 0.5)
        assert detect_score(model, list(range(18))) == 0.5

    def test_unit_coordinate_gives_sigmoid_one(self):
        weights = np.zeros(18)
        weights[0] = 1.0
        model = DetectorModel(weights, 16, 2, 0.5)
        assert abs(detect_score(model, [0]) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    def test_negated_weights_flip_probability(self):
        rng = np.random.default_rng(3)
        weights = rng.standard_normal(18)
        h = rng.integers(0, 18, size=12).tolist()
        p = detect_score(DetectorModel(weights, 16, 2, 0.5), h)
        q = detect_score(DetectorModel(-weights, 16, 2, 0.5), h)
        assert abs(p + q - 1.0) < 1e-12

    def test_out_of_range_column_rejected(self):
        model = DetectorModel(np.zeros(18), 16, 2, 0.5)
        for columns in ([-1], [18], [0, 5, 18], [-19, 3]):
            with pytest.raises(ValueError, match=r"feature columns must lie in \[0, 18\)"):
                detect_score(model, columns)

    def test_repeated_column_counts_each_time(self):
        weights = np.zeros(18)
        weights[3] = 0.75
        model = DetectorModel(weights, 16, 2, 0.5)
        assert detect_score(model, [3, 3, 17]) == detect_score(DetectorModel(2 * weights, 16, 2, 0.5), [3])

    # numpy's pairwise sum adds 8 at a time, so counts on both sides of 8 take both of its paths. At
    # scale 1e305 the sums overflow to +-inf, or to nan where both infinities meet.
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.one_of(st.integers(0, 8), st.integers(9, 300)),
           scale=st.sampled_from([1e-3, 1.0, 40.0, 1e305]))
    def test_equals_the_straight_line_score(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        model = DetectorModel(rng.standard_normal(18) * scale, 16, 2, 0.5)
        columns = rng.integers(0, 18, n).tolist()
        assert same_float(detect_score(model, columns), straight_line_detect_score(model.weights, columns))

    def test_monotone_in_positive_coordinate(self):
        h = [5, 5]
        weights = np.zeros(18)
        low = detect_score(DetectorModel(weights.copy(), 16, 2, 0.5), h)
        weights[5] = 0.5
        high = detect_score(DetectorModel(weights, 16, 2, 0.5), h)
        assert high > low


class TestSigmoid:
    """The request path's one-exp logistic function against the batch path's vector form."""

    SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 709.8, -709.8, 745.2, -745.2, 5e-324, -5e-324, 1e308, -1e308]

    @settings(deadline=None, max_examples=400)
    @given(z=st.one_of(st.sampled_from(SPECIAL), st.floats(-800.0, 800.0), st.floats()))
    def test_equals_the_vector_form_bit_for_bit(self, z):
        assert same_float(detection._sigmoid(np.float64(z)), detection._sigmoid_vector(np.array([z]))[0])
        assert same_float(detection._sigmoid(z), detection._sigmoid_vector(np.float64(z)))

    def test_specials(self):
        values = [detection._sigmoid(z) for z in self.SPECIAL]
        assert values[:4] == [0.5, 0.5, 1.0, 0.0] and math.isnan(values[4])
        assert type(values[0]) is float


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="hash_dim"):
            DetectorModel(np.zeros(10), 8, 2, 0.5)
        with pytest.raises(ValueError, match="turn_buckets"):
            DetectorModel(np.zeros(16), 16, 0, 0.5)
        with pytest.raises(ValueError, match="threshold"):
            DetectorModel(np.zeros(18), 16, 2, threshold=1.0)
        with pytest.raises(ValueError, match="length"):
            DetectorModel(np.zeros(17), 16, 2, 0.5)
        with pytest.raises(ValueError, match="finite"):
            DetectorModel(np.full(18, np.inf), 16, 2, 0.5)

    def test_turn_buckets_cap(self):
        cap = detection.MAX_TURN_BUCKETS
        assert DetectorModel(np.zeros(16 + cap), 16, cap, 0.5).turn_buckets == cap
        with pytest.raises(ValueError, match=f"^turn_buckets must be <= {cap}, got {cap + 1}$"):
            DetectorModel(np.zeros(16 + cap + 1), 16, cap + 1, 0.5)


BAD_DETECTOR_HYPERS = [
    ({"hash_dim": 8}, "hash_dim must be >= 16"),
    ({"turn_buckets": 0}, "turn_buckets must be >= 1"),
    ({"threshold": 1.5}, "threshold must lie in"),
    ({"threshold": 0.0}, "threshold must lie in"),
    ({"epochs": -5}, "epochs must be >= 0"),
    ({"lr": -3.0}, "lr must be finite and >= 0"),
    ({"lr": math.nan}, "lr must be finite and >= 0"),
    ({"lr": math.inf}, "lr must be finite and >= 0"),
    ({"turn_buckets": detection.MAX_TURN_BUCKETS + 1}, f"turn_buckets must be <= {detection.MAX_TURN_BUCKETS}"),
    ({"epochs": 10**12}, "epochs must be <= 1000000"),
]


class TestDetectorHyper:
    @pytest.mark.parametrize("kwargs, message", BAD_DETECTOR_HYPERS)
    def test_bad_value_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DetectorHyper(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"hash_dim": 8}, {"threshold": 1.5}, {"threshold": 0.0}])
    def test_bad_shape_featurizes_nothing(self, small_corpus, monkeypatch, kwargs):
        calls = []

        def counting(*args):
            calls.append(None)
            return featurize(*args)

        monkeypatch.setattr(detection, "featurize", counting)
        with pytest.raises(ValueError):
            train_detector(small_corpus, DetectorHyper(**kwargs))
        assert calls == []


class TestTrainDetector:
    def test_zero_lr_keeps_zero_weights(self, small_corpus):
        model, losses = train_detector(small_corpus, DetectorHyper(lr=0.0, epochs=5))
        np.testing.assert_array_equal(model.weights, np.zeros(model.weights.size))
        for d in small_corpus.dialogs:
            assert detect(model, d).probability == 0.5
        np.testing.assert_allclose(losses, math.log(2.0))

    def test_deterministic(self, small_corpus):
        hyper = DetectorHyper(epochs=10)
        a, losses_a = train_detector(small_corpus, hyper)
        b, losses_b = train_detector(small_corpus, hyper)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert losses_a == losses_b

    def test_single_class_corpus_rejected(self):
        corpus = synth_corpus(
            1, SynthParams(n_dialogs=10, n_candidates=2, vocab_size=16, detect_marker_rate=0.0)
        )
        with pytest.raises(ValueError, match="both target and non-target"):
            train_detector(corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no dialogs"):
            train_detector(Corpus({}, []))

    def test_loss_drops_and_f1_high_on_marker_corpus(self, small_corpus, small_detector):
        model, losses = small_detector
        assert losses[-1] < losses[0]
        assert evaluate_detector(model, small_corpus).f1 >= 0.99

    def test_line_search_loss_non_increasing(self, small_corpus):
        _, losses = train_detector(small_corpus, DetectorHyper(epochs=25, line_search=True))
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_loss_trajectory_length(self, small_corpus):
        _, losses = train_detector(small_corpus, DetectorHyper(epochs=7))
        assert len(losses) == 8


def dense_reference(corpus, hyper):
    """Straight-line trainer on the dense n x dim oracle feature matrix: two mat-vecs per epoch."""
    matrix = np.array([
        oracle_detector_features(serialize_dialog(d), len(d.turns), hyper.hash_dim, hyper.turn_buckets)
        for d in corpus.dialogs
    ])
    labels = np.array([1.0 if d.target else 0.0 for d in corpus.dialogs])

    def loss(weights):
        return float(np.logaddexp(0.0, (1.0 - 2.0 * labels) * (matrix @ weights)).mean())

    weights = np.zeros(matrix.shape[1])
    losses = [loss(weights)]
    for _ in range(hyper.epochs):
        probabilities = 1.0 / (1.0 + np.exp(-(matrix @ weights)))
        direction = matrix.T @ (probabilities - labels) / len(labels)
        step, current = hyper.lr, losses[-1]
        for _ in range(60 if hyper.line_search else 1):
            trial = weights - step * direction
            trial_loss = loss(trial)
            if trial_loss <= current or not hyper.line_search:
                weights, current = trial, trial_loss
                break
            step /= 2
        losses.append(current)
    return matrix, weights, losses


class TestSparseTraining:
    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("hash_dim,turn_buckets", [(16, 2), (4096, 16)])
    def test_matches_dense_reference(self, small_corpus, line_search, hash_dim, turn_buckets):
        hyper = DetectorHyper(hash_dim=hash_dim, turn_buckets=turn_buckets, lr=2.0,
                              epochs=30, line_search=line_search)
        matrix, weights, losses = dense_reference(small_corpus, hyper)
        if hash_dim == 16:
            assert matrix[:, :hash_dim].max() >= 2.0  # colliding n-grams share a column
            assert max(len(d.turns) for d in small_corpus.dialogs) > turn_buckets
        model, trained_losses = train_detector(small_corpus, hyper)
        np.testing.assert_allclose(model.weights, weights, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(trained_losses, losses, rtol=0.0, atol=1e-12)

    def test_peak_memory_stays_below_the_dense_matrix(self):
        corpus = synth_corpus(5, SynthParams(n_dialogs=1000))
        tracemalloc.start()
        try:
            train_detector(corpus, DetectorHyper(epochs=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The dense 1000 x 4112 float64 matrix alone is 33 MB.
        assert peak < 8 * 2**20


class TestColumnDescent:
    """Training over the used columns, one score pass per weight vector, equals the full-width trainer."""

    WORDS = ["room", "room", "wifi", "free", "parking", "Ünï", "?"]

    def test_equals_full_width_trainer_bit_for_bit(self):
        rejections = []

        @settings(deadline=None, max_examples=60)
        @given(case=st.data())
        def check(case):
            hash_dim = case.draw(st.sampled_from([16, 4096]))  # 16 makes n-grams collide
            turn_buckets = case.draw(st.integers(1, 4))
            line_search = case.draw(st.booleans())
            hyper = DetectorHyper(hash_dim=hash_dim, turn_buckets=turn_buckets, line_search=line_search,
                                  lr=case.draw(st.sampled_from([0.5, 8.0, 64.0])), epochs=case.draw(st.integers(0, 12)))
            dialogs = []
            for i, target in enumerate([True, False] + case.draw(st.lists(st.booleans(), max_size=6))):
                n_turns = case.draw(st.sampled_from([1, 3, 6]))
                texts = case.draw(st.lists(st.lists(st.sampled_from(self.WORDS), max_size=8).map(" ".join),
                                           min_size=n_turns, max_size=n_turns))
                speakers = [Speaker.USER if (n_turns - 1 - t) % 2 == 0 else Speaker.SYS for t in range(n_turns)]
                dialogs.append(DialogInstance(f"d{i:04d}", tuple(map(DialogTurn, speakers, texts)), target))
            dialog_columns = [featurize(serialize_dialog(d), len(d.turns), hash_dim, turn_buckets) for d in dialogs]
            weights, losses, rejected = full_width_detector_descent(
                dialog_columns, [d.target for d in dialogs], hash_dim + turn_buckets,
                hyper.lr, hyper.epochs, hyper.line_search,
            )
            rejections.append(rejected)
            model, trained_losses = train_detector(Corpus({}, dialogs), hyper)
            assert np.array_equal(model.weights, weights)
            assert model.weights.tobytes() == weights.tobytes()  # the sign of every zero too
            assert trained_losses == losses
            unused = np.ones(model.weights.size, dtype=bool)
            unused[[c for row in dialog_columns for c in row]] = False
            assert not np.signbit(model.weights[unused]).any()

        check()
        assert max(rejections) > 0  # some drawn case took the line search's rejected-trial branch

    @pytest.mark.parametrize("line_search", [False, True])
    def test_one_score_pass_per_weight_vector(self, small_corpus, monkeypatch, line_search):
        class CountingNumpy:
            bincounts = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def bincount(self, *args, **kwargs):
                CountingNumpy.bincounts += 1
                return np.bincount(*args, **kwargs)

        monkeypatch.setattr(detection, "np", CountingNumpy())
        epochs = 10
        _, losses = train_detector(small_corpus, DetectorHyper(epochs=epochs, line_search=line_search))
        assert len(losses) == epochs + 1
        # The initial scores, then per epoch one gradient and the accepted trial's scores, which
        # the next gradient reuses (at the default lr the line search rejects no trial here).
        assert CountingNumpy.bincounts == 1 + 2 * epochs

    def test_descends_over_the_used_columns_only(self, small_corpus, monkeypatch):
        widths = []

        def recording(loss, gradient, w0, *args):
            widths.append(w0.size)
            return descend(loss, gradient, w0, *args)

        descend = detection._descend
        monkeypatch.setattr(detection, "_descend", recording)
        for hash_dim in (16, 4096, detection.MAX_HASH_DIM):
            model, _ = train_detector(small_corpus, DetectorHyper(hash_dim=hash_dim, epochs=2))
            rows = [featurize(serialize_dialog(d), len(d.turns), hash_dim, 16) for d in small_corpus.dialogs]
            columns = [c for row in rows for c in row]
            assert widths[-1] == np.unique(columns).size < 300
            assert model.weights.size == hash_dim + 16


class TestDetect:
    def test_boundary_probability_triggers(self):
        model = DetectorModel(np.zeros(4112), 4096, 16, 0.5)
        result = detect(model, dialog((Speaker.USER, "hi")))
        assert result.probability == 0.5
        assert result.triggered is True

    def test_trained_model_rejects_marker_dialog(self, small_corpus, small_detector):
        model, _ = small_detector
        marker = next(d for d in small_corpus.dialogs if not d.target)
        assert MARKER_TOKEN in marker.current_turn.text
        result = detect(model, marker)
        assert result.triggered is False

    def test_trained_model_accepts_target_dialog(self, small_corpus, small_detector):
        model, _ = small_detector
        target = next(d for d in small_corpus.dialogs if d.target)
        assert detect(model, target).triggered is True

    def test_probability_matches_dense_oracle(self, small_corpus, small_detector):
        model, _ = small_detector
        for d in small_corpus.dialogs:
            x = oracle_detector_features(serialize_dialog(d), len(d.turns), model.hash_dim, model.turn_buckets)
            expected = 1.0 / (1.0 + math.exp(-float(model.weights @ x)))
            assert abs(detect(model, d).probability - expected) <= 1e-15


class TestBatchDetection:
    """The batch scoring that evaluation uses gives every dialog's ``detect`` result bit for bit."""

    WORDS = ["room", "room", "Room", "wifi", "free", "Ünï", "ΟΔΟΣ", "\u212a", "a\x00b", "?", ""]

    @settings(deadline=None, max_examples=60)
    @given(case=st.data())
    def test_equals_detect_dialog_by_dialog(self, case):
        hash_dim, turn_buckets = case.draw(st.sampled_from([(16, 2), (4096, 16)]))
        rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1)))
        model = DetectorModel(rng.normal(0.0, 3.0, hash_dim + turn_buckets), hash_dim, turn_buckets, 0.5)
        dialogs = []
        for i in range(case.draw(st.integers(1, 8))):
            # Long histories pass the last turn bucket; repeated words repeat unigrams and bigrams.
            n_turns = case.draw(st.sampled_from([1, 2, 5, 40]))
            texts = case.draw(st.lists(st.lists(st.sampled_from(self.WORDS), max_size=12).map(" ".join),
                                       min_size=n_turns, max_size=n_turns))
            history = case.draw(st.lists(st.sampled_from([Speaker.USER, Speaker.SYS]),
                                         min_size=n_turns - 1, max_size=n_turns - 1))
            speakers = [*history, Speaker.USER]
            dialogs.append(DialogInstance(f"d{i:04d}", tuple(map(DialogTurn, speakers, texts))))
        probabilities = detection._detect_batch(model, dialogs)
        results = [detect(model, d) for d in dialogs]
        assert probabilities.tobytes() == np.array([r.probability for r in results]).tobytes()
        assert (probabilities >= model.threshold).tolist() == [r.triggered for r in results]


class TestPersistence:
    def test_round_trip_bitwise(self, small_detector, tmp_path):
        model, _ = small_detector
        path = tmp_path / "detector.json"
        save_detector(model, path)
        loaded = load_detector(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.hash_dim == model.hash_dim
        assert loaded.turn_buckets == model.turn_buckets
        assert loaded.threshold == model.threshold

    def test_file_records_the_ngram_hash(self, tmp_path):
        path = tmp_path / "detector.json"
        save_detector(DetectorModel(np.zeros(18), 16, 2, 0.5), path)
        assert json.loads(path.read_text())["ngram_hash"] == detection.NGRAM_HASH == "crc32"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "detector.json"
        path.write_text(json.dumps({"hash_dim": 16}))
        with pytest.raises(ValueError, match="missing field"):
            load_detector(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(as_array, "expected a JSON object", id="array"),
        pytest.param(with_field("hash_dim", None), "'hash_dim' must be an integer, got None", id="null"),
        pytest.param(with_field("hash_dim", 16.7), "'hash_dim' must be an integer, got 16.7", id="fraction"),
        pytest.param(with_field("turn_buckets", True),
                     "'turn_buckets' must be an integer, got True", id="bool"),
        pytest.param(with_field("threshold", 1.5), "threshold must lie in (0, 1)", id="detector-model"),
        pytest.param(with_field("threshold", "0.5"), "'threshold' must be a number, got '0.5'",
                     id="string-threshold"),
        pytest.param(with_field("threshold", True), "'threshold' must be a number, got True",
                     id="bool-threshold"),
        pytest.param(with_field("threshold", 10**400), "int too large to convert to float",
                     id="huge-threshold"),
        pytest.param(with_field("weights", ["0.0"] * 18), "'weights' must be an array of numbers",
                     id="string-weights"),
        pytest.param(with_field("weights", [False] * 18), "'weights' must be an array of numbers",
                     id="bool-weights"),
        pytest.param(with_field("weights", [10**400] * 18), "int too large to convert to float",
                     id="huge-weights"),
        pytest.param(without_field("ngram_hash"),
                     "no 'ngram_hash' field, so not hashed with 'crc32': retrain the detector",
                     id="hash-unrecorded"),
        pytest.param(with_field("ngram_hash", "blake2b"),
                     "'ngram_hash' is 'blake2b', not 'crc32': retrain the detector", id="hash-blake2b"),
        pytest.param(truncated, "parse error at line", id="truncated"),
    ])
    def test_malformed_file_names_its_path(self, tmp_path, edit, message):
        path = tmp_path / "detector.json"
        save_detector(DetectorModel(np.zeros(18), 16, 2, 0.5), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError) as info:
            load_detector(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
