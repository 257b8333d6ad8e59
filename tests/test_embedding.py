import math

import numpy as np
import pytest

from kgdial.corpus import Corpus, KnowledgeSnippet
from kgdial.embedding import (
    EMPTY_TOKEN,
    FileVectors,
    HashedGaussianVectors,
    PairEmbedding,
    build_vocabulary,
    embed_pair,
    provider_from_description,
    tfidf_rank,
    tokenize,
)


def snippet(doc_id, title, body=""):
    return KnowledgeSnippet("d", "e", doc_id, title, body)


def corpus_of(*snippets):
    return Corpus({("d", "e"): list(snippets)}, [])


class TestTokenize:
    def test_question_splits_to_lowercase_words(self):
        assert tokenize("Does the hotel offer accessible parking?") == [
            "does", "the", "hotel", "offer", "accessible", "parking",
        ]

    def test_empty_text_yields_sentinel(self):
        assert tokenize("") == [EMPTY_TOKEN]
        assert tokenize("  !?  ") == [EMPTY_TOKEN]

    def test_split_on_any_non_alphanumeric(self):
        assert tokenize("A-B  c") == ["a", "b", "c"]
        assert tokenize("room_service") == ["room", "service"]

    def test_digits_kept(self):
        assert tokenize("gate 12b") == ["gate", "12b"]


class TestHashedGaussianVectors:
    def test_deterministic_across_instances(self):
        a = HashedGaussianVectors(seed=7, dim=16)
        b = HashedGaussianVectors(seed=7, dim=16)
        np.testing.assert_array_equal(a.embed("parking"), b.embed("parking"))

    def test_identical_tokens_identical_vectors(self):
        provider = HashedGaussianVectors(seed=7, dim=16)
        np.testing.assert_array_equal(provider.embed("pool"), provider.embed("pool"))

    def test_distinct_tokens_distinct_vectors(self):
        provider = HashedGaussianVectors(seed=7, dim=16)
        assert not np.array_equal(provider.embed("pool"), provider.embed("parking"))

    def test_seed_changes_vectors(self):
        assert not np.array_equal(
            HashedGaussianVectors(seed=7, dim=16).embed("pool"),
            HashedGaussianVectors(seed=8, dim=16).embed("pool"),
        )

    def test_dim_validated(self):
        with pytest.raises(ValueError, match="dim"):
            HashedGaussianVectors(seed=7, dim=1)

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_64_bit_seed_bounds_accepted(self, seed):
        assert HashedGaussianVectors(seed=seed, dim=4).embed("pool").shape == (4,)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_beyond_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must lie in \[-2\*\*63, 2\*\*63\), got {seed}"):
            HashedGaussianVectors(seed=seed, dim=4)

    def test_embed_tokens_stacks_rows(self):
        provider = HashedGaussianVectors(seed=7, dim=16)
        matrix = provider.embed_tokens(["a", "b"])
        assert matrix.shape == (2, 16)
        np.testing.assert_array_equal(matrix[0], provider.embed("a"))

    def test_describe_round_trip(self):
        provider = HashedGaussianVectors(seed=7, dim=16)
        clone = provider_from_description(provider.describe())
        np.testing.assert_array_equal(clone.embed("x"), provider.embed("x"))


class TestFileVectors:
    def write(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        return path

    def test_loads_and_embeds(self, tmp_path):
        path = self.write(tmp_path, "cat 1.0 0.0\ndog 0.0 2.5\n")
        provider = FileVectors(path)
        assert provider.dim == 2
        np.testing.assert_array_equal(provider.embed("dog"), [0.0, 2.5])

    def test_oov_is_zero_vector(self, tmp_path):
        provider = FileVectors(self.write(tmp_path, "cat 1.0 0.0\n"))
        np.testing.assert_array_equal(provider.embed("bird"), [0.0, 0.0])

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = self.write(tmp_path, f"a 1 0\nb {entry} 1\n")
        with pytest.raises(ValueError, match=r"vectors\.txt:2: non-finite"):
            FileVectors(path)

    def test_duplicate_token_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate token"):
            FileVectors(self.write(tmp_path, "cat 1 0\ncat 0 1\n"))

    def test_ragged_dimensions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dimension"):
            FileVectors(self.write(tmp_path, "cat 1 0\ndog 1 0 0\n"))

    def test_too_short_line_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="d >= 2"):
            FileVectors(self.write(tmp_path, "cat 1\n"))

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-numeric"):
            FileVectors(self.write(tmp_path, "cat a b\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no vectors"):
            FileVectors(self.write(tmp_path, "\n"))

    def test_embed_tokens_calls_the_class_embed_per_token(self, tmp_path, monkeypatch):
        # A wrapper patched over a provider class's `embed` must see every token.
        def counting(original):
            def embed(provider, token):
                calls.append(token)
                return original(provider, token)

            return embed

        for provider in (HashedGaussianVectors(seed=7, dim=2), FileVectors(self.write(tmp_path, "a 1.0 2.0\n"))):
            calls = []
            expected = [provider.embed(t) for t in ("a", "b", "a")]
            monkeypatch.setattr(type(provider), "embed", counting(type(provider).embed))
            np.testing.assert_array_equal(provider.embed_tokens(["a", "b", "a"]), expected)
            assert calls == ["a", "b", "a"]

    @pytest.mark.parametrize("tokens", [[], ["cat"], ["cat", "bird", "cat"]])
    def test_embed_tokens_shape_is_tokens_by_dim(self, tmp_path, tokens):
        for provider in (HashedGaussianVectors(seed=7, dim=3), FileVectors(self.write(tmp_path, "cat 1 0 2\n"))):
            assert provider.embed_tokens(tokens).shape == (len(tokens), 3)

    def test_describe_round_trip(self, tmp_path):
        provider = FileVectors(self.write(tmp_path, "cat 1 0\n"))
        clone = provider_from_description(provider.describe())
        np.testing.assert_array_equal(clone.embed("cat"), provider.embed("cat"))

    def test_recorded_dim_mismatch_rejected(self, tmp_path):
        provider = FileVectors(self.write(tmp_path, "cat 1 0\n"))
        description = provider.describe() | {"dim": 5}
        with pytest.raises(ValueError, match="does not match"):
            provider_from_description(description)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown provider kind"):
            provider_from_description({"kind": "glove"})


class TestEmbedPair:
    def test_identical_single_token_pair(self):
        provider = HashedGaussianVectors(seed=7, dim=8)
        pair = embed_pair(provider, "parking", [snippet("0", "parking")])
        assert pair.m == 1 and pair.p == 1
        np.testing.assert_array_equal(pair.question_vectors, pair.knowledge_vectors)

    def test_bitwise_deterministic(self):
        provider = HashedGaussianVectors(seed=7, dim=8)
        item = snippet("0", "Is parking free?", "Yes it is.")
        a = embed_pair(provider, "any parking?", [item])
        b = embed_pair(provider, "any parking?", [item])
        np.testing.assert_array_equal(a.question_vectors, b.question_vectors)
        np.testing.assert_array_equal(a.knowledge_vectors, b.knowledge_vectors)

    def test_truncation_caps(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        long_question = " ".join(f"q{i}" for i in range(70))
        long_body = " ".join(f"b{i}" for i in range(140))
        pair = embed_pair(provider, long_question, [snippet("0", "t", long_body)])
        assert pair.m == 64
        assert pair.p == 128

    def test_knowledge_uses_title_and_body(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        pair = embed_pair(provider, "x", [snippet("0", "a b?", "c d.")])
        assert pair.p == 4

    def test_empty_body_keeps_title_tokens(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        pair = embed_pair(provider, "x", [snippet("0", "a b?")])
        assert pair.p == 2

    def test_invalid_shapes_rejected(self):
        good = np.ones((1, 2))
        with pytest.raises(ValueError, match="dimensions differ"):
            PairEmbedding(good, np.ones((1, 3)))
        with pytest.raises(ValueError, match="finite"):
            PairEmbedding(np.array([[np.nan, 0.0]]), good)

    def test_stacks_candidates_with_segment_starts(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        items = [snippet("0", "a b c"), snippet("1", "d"), snippet("2", "e f")]
        pair = embed_pair(provider, "x y", items)
        assert pair.m == 2 and pair.p == 6
        assert pair.knowledge_starts == (0, 3, 4)
        np.testing.assert_array_equal(pair.knowledge_vectors[3], provider.embed("d"))

    def test_empty_and_overlong_segments_rejected(self):
        question = np.ones((1, 2))
        with pytest.raises(ValueError, match="p >= 1 per snippet"):
            PairEmbedding(question, np.ones((3, 2)), (0, 2, 2))
        with pytest.raises(ValueError, match="p >= 1 per snippet"):
            PairEmbedding(question, np.ones((3, 2)), (0, 3))
        with pytest.raises(ValueError, match="p >= 1 per snippet"):
            PairEmbedding(question, np.ones((3, 2)), (1,))
        with pytest.raises(ValueError, match="p <= 128 per snippet"):
            PairEmbedding(question, np.ones((130, 2)), (0, 129))
        assert PairEmbedding(question, np.ones((256, 2)), (0, 128)).p == 256


class TestTfidfRank:
    def test_identical_candidate_scores_1(self):
        candidates = [snippet("0", "is parking free"), snippet("1", "pool hours"), snippet("2", "gym hours")]
        ranked = tfidf_rank(build_vocabulary(corpus_of(*candidates)), "is parking free", candidates)
        assert ranked[0][0].doc_id == "0"
        assert abs(ranked[0][1] - 1.0) < 1e-12
        assert all(score < 1.0 for _, score in ranked[1:])

    def test_disjoint_question_all_zero_index_order(self):
        candidates = [snippet("0", "alpha beta"), snippet("1", "gamma delta")]
        ranked = tfidf_rank(build_vocabulary(corpus_of(*candidates)), "epsilon zeta", candidates)
        assert [s.doc_id for s, _ in ranked] == ["0", "1"]
        assert [score for _, score in ranked] == [0.0, 0.0]

    def test_three_candidate_hand_table(self):
        candidates = [snippet("0", "x x y"), snippet("1", "x z"), snippet("2", "z z")]
        corpus = corpus_of(*candidates)
        n = 3
        idf = {
            "x": math.log((1 + n) / (1 + 2)) + 1.0,
            "y": math.log((1 + n) / (1 + 1)) + 1.0,
            "z": math.log((1 + n) / (1 + 2)) + 1.0,
        }

        def weights(counts):
            return {t: c * idf[t] for t, c in counts.items()}

        def cosine(a, b):
            dot = sum(a[t] * b[t] for t in a if t in b)
            na = math.sqrt(sum(v * v for v in a.values()))
            nb = math.sqrt(sum(v * v for v in b.values()))
            return dot / (na * nb)

        question = weights({"x": 1, "y": 1})
        expected = [
            cosine(question, weights({"x": 2, "y": 1})),
            cosine(question, weights({"x": 1, "z": 1})),
            cosine(question, weights({"z": 2})),
        ]
        ranked = tfidf_rank(build_vocabulary(corpus), "x y", candidates)
        by_doc = {s.doc_id: score for s, score in ranked}
        for doc_id, value in zip("012", expected):
            assert abs(by_doc[doc_id] - value) < 1e-12
        assert [s.doc_id for s, _ in ranked] == ["0", "1", "2"]

    def test_question_oov_tokens_dropped(self):
        candidates = [snippet("0", "alpha beta"), snippet("1", "gamma delta")]
        corpus = corpus_of(*candidates)
        with_oov = tfidf_rank(build_vocabulary(corpus), "qqq alpha", candidates)
        without = tfidf_rank(build_vocabulary(corpus), "alpha", candidates)
        assert [(s.doc_id, score) for s, score in with_oov] == [
            (s.doc_id, score) for s, score in without
        ]

    def test_ties_keep_candidate_index_order(self):
        candidates = [snippet("0", "alpha beta"), snippet("1", "alpha beta")]
        ranked = tfidf_rank(build_vocabulary(corpus_of(*candidates)), "alpha", candidates)
        assert [s.doc_id for s, _ in ranked] == ["0", "1"]
        assert ranked[0][1] == ranked[1][1]

    def test_output_is_permutation_with_nonincreasing_scores(self):
        rng = np.random.default_rng(42)
        vocabulary = [f"t{i}" for i in range(12)]
        for _ in range(20):
            candidates = [
                snippet(str(i), " ".join(rng.choice(vocabulary, size=3)))
                for i in range(5)
            ]
            corpus = corpus_of(*candidates)
            question = " ".join(rng.choice(vocabulary, size=3))
            ranked = tfidf_rank(build_vocabulary(corpus), question, candidates)
            assert sorted(s.doc_id for s, _ in ranked) == [str(i) for i in range(5)]
            scores = [score for _, score in ranked]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            assert all(0.0 <= score <= 1.0 for score in scores)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tfidf_rank(build_vocabulary(corpus_of(snippet("0", "a"))), "a", [])


class TestBuildVocabulary:
    def test_dense_first_appearance_ids(self):
        corpus = corpus_of(snippet("0", "alpha beta"), snippet("1", "beta gamma"))
        vocab = build_vocabulary(corpus)
        assert vocab.doc_freq == {"alpha": 1, "beta": 2, "gamma": 1}
        assert vocab.n_documents == 2

    def test_repeated_token_counts_once_per_doc(self):
        corpus = corpus_of(snippet("0", "echo echo echo"))
        vocab = build_vocabulary(corpus)
        assert vocab.doc_freq["echo"] == 1
