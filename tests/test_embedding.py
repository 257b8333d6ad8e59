import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdial import embedding
from kgdial.corpus import Corpus, EntitySnippets, KnowledgeSnippet, rank_order
from kgdial.embedding import (
    _TOKEN_RE,
    EMPTY_TOKEN,
    MAX_KNOWLEDGE_TOKENS,
    MAX_QUESTION_TOKENS,
    FileVectors,
    HashedGaussianVectors,
    _embedded_rows,
    _knowledge_tokens,
    _unit_rows,
    build_vocabulary,
    embed_pair,
    provider_from_description,
    tfidf_rank,
    tokenize,
    tokenize_batch,
)

from helpers import FixedProvider, RawVectors, count_calls, oracle_tfidf_scores


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

    # Text at the edge of the ASCII fast path: case mappings into or out of
    # ASCII, underscore, control and full-width characters, the controls
    # str.split() takes for whitespace, no text.
    @pytest.mark.parametrize("text", ["\u212a", "İstanbul", "straße", "snake_case", "\x00", "１２",
                                      "a\tb\nc\vd\fe\rf\x1cg\x1dh\x1ei\x1fj", ""],
                             ids=["kelvin", "dotted-i", "sharp-s", "underscore", "nul", "fullwidth-digits",
                                  "split-whitespace", "empty"])
    def test_matches_unicode_class_on_pinned_text(self, text):
        assert tokenize(text) == (_TOKEN_RE.findall(text.lower()) or [EMPTY_TOKEN])

    # Every ASCII code point alone, between two letters and next to a digit.
    @pytest.mark.parametrize("template", ["{}", "a{}B", "{}7", "7{}"],
                             ids=["alone", "between-letters", "before-digit", "after-digit"])
    def test_matches_unicode_class_on_every_ascii_character(self, template):
        for code in range(128):
            text = template.format(chr(code))
            assert tokenize(text) == (_TOKEN_RE.findall(text.lower()) or [EMPTY_TOKEN]), repr(text)

    @given(st.text(st.sampled_from("aZ09 _-.?\x00\t") | st.characters(), max_size=40))
    def test_matches_unicode_class(self, text):
        assert tokenize(text) == (_TOKEN_RE.findall(text.lower()) or [EMPTY_TOKEN])


class TestTokenizeBatch:
    """The batch tokenizer is ``map(tokenize)``, on either of its paths."""

    # NUL (the batch separator), U+212A KELVIN SIGN (ASCII once lowercased), Greek final sigma
    # (lowercases by context), text with no token, and no text.
    @example(texts=[])
    @example(texts=[""])
    @example(texts=["", "a", ""])
    @example(texts=["a\x00b", "c"])
    @example(texts=["\x00"])
    @example(texts=["\u212aelvin", "ok"])
    @example(texts=["ΟΔΟΣ σ ς", "x"])
    @given(st.lists(st.text(st.sampled_from(["a", "Z", "0", " ", "_", "?", "\x00", "\u212a", "Σ", "ς", "é"]), max_size=12),
                    max_size=6))
    def test_equals_map_tokenize(self, texts):
        assert list(tokenize_batch(texts)) == list(map(tokenize, texts))

    def test_each_token_list_is_a_new_list(self):
        a, b = tokenize_batch(["", ""])
        a.append("x")
        assert b == [EMPTY_TOKEN]


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

    def test_growing_table_gathers_the_embed_vectors(self):
        tokens = [f"t{i}" for i in range(300)]
        provider = HashedGaussianVectors(seed=7, dim=4)
        first = provider.embed_tokens(tokens[:5])
        matrix = provider.embed_tokens(tokens)
        provider.embed_tokens(["late", *tokens[::7]])
        np.testing.assert_array_equal(first, matrix[:5])
        np.testing.assert_array_equal(matrix, np.stack([provider.embed(t) for t in tokens]))
        reversed_first = HashedGaussianVectors(seed=7, dim=4)
        reversed_first.embed_tokens(tokens[::-1])
        np.testing.assert_array_equal(reversed_first.embed_tokens(tokens), matrix)

    def test_describe_round_trip(self):
        provider = HashedGaussianVectors(seed=7, dim=16)
        clone = provider_from_description(provider.describe())
        np.testing.assert_array_equal(clone.embed("x"), provider.embed("x"))


class TestUnitTable:
    """Each provider's stored rows equal ``_unit_rows`` of its raw vectors (the ``RawVectors`` oracle), bit for bit."""

    def check(self, provider, tokens):
        raw = RawVectors(provider)
        unit = _embedded_rows(provider, tokens)
        assert unit.tobytes() == provider.embed_tokens(tokens).tobytes()
        assert unit.tobytes() == _unit_rows(raw.embed_tokens(tokens)).tobytes()
        for token in tokens:
            assert provider.embed(token).tobytes() == _unit_rows(raw.embed(token)[None])[0].tobytes()

    def test_hashed_rows_drawn_by_interleaved_embed_and_embed_tokens_calls(self):
        provider = HashedGaussianVectors(seed=7, dim=32)
        tokens = [f"t{i}" for i in range(200)]
        for first in range(0, len(tokens), 9):
            provider.embed(tokens[first])
            # The next eight are new to embed_tokens; every fifth token before them is stored.
            self.check(provider, tokens[first : first + 9] + tokens[:first:5])
        assert len(provider._rows) == 200 and len(provider._table) > 64
        self.check(provider, tokens)

    def test_file_vectors_zero_tiny_overflowing_and_out_of_vocabulary_rows(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("zero 0 0 0\ntiny 1e-13 0 -2e-13\nunder 1e-200 2e-200 -1e-200\n"
                        "big 1e200 -3e199 5e199\nplain 1 2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            provider = FileVectors(path)
        tokens = ["zero", "tiny", "under", "big", "plain", "oov", "big"]
        self.check(provider, tokens)
        unit = _embedded_rows(provider, tokens)
        assert not unit[[0, 1, 2, 5]].any()
        np.testing.assert_allclose(np.linalg.norm(unit[[3, 4]], axis=1), 1.0, rtol=1e-15)


class TestFileVectors:
    def write(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        return path

    def test_loads_and_embeds(self, tmp_path):
        path = self.write(tmp_path, "cat 1.0 0.0\ndog 0.0 2.5\n")
        provider = FileVectors(path)
        assert provider.dim == 2
        raw = RawVectors(provider).embed("dog")
        np.testing.assert_array_equal(raw, [0.0, 2.5])
        # Rows are stored, and returned, at unit norm.
        assert provider.embed("dog").tobytes() == _unit_rows(raw[None])[0].tobytes()
        np.testing.assert_array_equal(provider.embed("dog"), [0.0, 1.0])

    def test_oov_is_zero_vector(self, tmp_path):
        provider = FileVectors(self.write(tmp_path, "cat 1.0 0.0\n"))
        np.testing.assert_array_equal(provider.embed("bird"), [0.0, 0.0])

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = self.write(tmp_path, f"a 1 0\nb {entry} 1\n")
        with pytest.raises(ValueError, match=r"vectors\.txt:2: non-finite"):
            FileVectors(path)

    def test_line_that_is_not_utf8_rejected_with_its_number(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes("café 1 0\n".encode() + b"d\xe9j\xe0 0 1\n")
        with pytest.raises(ValueError, match=r"vectors\.txt:2: not UTF-8$"):
            FileVectors(path)
        path.write_bytes("café 1 0\n".encode())
        np.testing.assert_array_equal(FileVectors(path).embed("café"), [1.0, 0.0])

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

    def test_embed_tokens_calls_embed_once_per_unstored_token(self, tmp_path, monkeypatch):
        # A wrapper patched over a provider class's `embed` sees each token the
        # provider has not stored yet, once; a stored or file-loaded token is gathered.
        def counting(original):
            def embed(provider, token):
                calls.append(token)
                return original(provider, token)

            return embed

        tokens = ["a", "b", "c", "b", "a"]
        hashed = HashedGaussianVectors(seed=7, dim=2)
        for provider in (hashed, FileVectors(self.write(tmp_path, "a 1.0 2.0\n"))):
            provider.embed("a")
            calls = []
            monkeypatch.setattr(type(provider), "embed", counting(type(provider).embed))
            matrix = provider.embed_tokens(tokens)
            assert calls == (["b", "c"] if provider is hashed else [])
            np.testing.assert_array_equal(matrix, np.stack([provider.embed(t) for t in tokens]))
            calls.clear()
            provider.embed_tokens(tokens)
            assert calls == []

    @pytest.mark.parametrize("token", ["cat", "bird"], ids=["stored", "out-of-vocabulary"])
    def test_embed_rows_are_read_only(self, tmp_path, token):
        for provider in (HashedGaussianVectors(seed=7, dim=2), FileVectors(self.write(tmp_path, "cat 1.0 2.0\n"))):
            row = provider.embed(token)
            before = provider.embed_tokens(["cat", "bird"])
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 5.0
            np.testing.assert_array_equal(provider.embed_tokens(["cat", "bird"]), before)

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


@pytest.fixture(scope="module")
def pair_providers(tmp_path_factory):
    path = tmp_path_factory.mktemp("pair") / "vectors.txt"
    path.write_text("parking 1 0 0\nfree 0 1e200 0\nünï 0 0 0\nw01 -1 2 0.25\n")
    return [HashedGaussianVectors(seed=7, dim=4), FileVectors(path)]


class TestEmbedPair:
    def test_identical_single_token_pair(self):
        provider = HashedGaussianVectors(seed=7, dim=8)
        pair = embed_pair(provider, "parking", [snippet("0", "parking")])
        assert pair.m == 1 and pair.p == 1
        assert pair.vectors.shape == (2, 8)
        np.testing.assert_array_equal(pair.vectors[0], pair.vectors[1])

    def test_bitwise_deterministic(self):
        provider = HashedGaussianVectors(seed=7, dim=8)
        item = snippet("0", "Is parking free?", "Yes it is.")
        a = embed_pair(provider, "any parking?", [item])
        b = embed_pair(provider, "any parking?", [item])
        assert a.m == b.m and a.knowledge_starts == b.knowledge_starts
        np.testing.assert_array_equal(a.vectors, b.vectors)

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

    def test_gathers_all_rows_in_one_embed_tokens_call(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        raw = RawVectors(provider)
        calls = []

        class Counting:
            def embed_tokens(self, tokens):
                calls.append(list(tokens))
                return raw.embed_tokens(tokens)

        pair = embed_pair(Counting(), "x y", [snippet("0", "a b c"), snippet("1", "d")])
        assert calls == [["x", "y", "a", "b", "c", "d"]]
        assert pair.m == 2 and pair.knowledge_starts == (0, 3)
        # Raw rows are normalized on the call, to the provider's own stored rows.
        assert pair.vectors.tobytes() == _unit_rows(raw.embed_tokens(calls[0])).tobytes()
        assert pair.vectors.tobytes() == provider.embed_tokens(calls[0]).tobytes()

    @pytest.mark.parametrize(
        "convert", [lambda rows: rows.astype(np.int64), np.ndarray.tolist, lambda rows: rows.astype(np.int64).tolist()],
        ids=["int", "list", "int-list"],
    )
    def test_int_and_list_rows_embed_as_floats(self, convert):
        floats = FixedProvider({"x": [3, 0], "y": [0, 2], "a": [1, 1], "b": [-4, 3]})

        class Converted:
            def embed_tokens(self, tokens):
                return convert(floats.embed_tokens(tokens))

        items = [snippet("0", "a b oov"), snippet("1", "y")]
        pair = embed_pair(Converted(), "x y", items)
        assert pair.vectors.dtype == np.float64
        assert pair.vectors.tobytes() == embed_pair(floats, "x y", items).vectors.tobytes()

    @pytest.mark.parametrize("rows", [
        [["a", "b"], ["c", "d"]], [["1", "2"], ["3", "4"]], [[None, 1.0], [1.0, 2.0]],
        [[1 + 2j, 1.0], [1.0, 2.0]], [[{}, 1.0], [1.0, 2.0]], [[1.0, 2.0], [1.0]],
    ], ids=["strings", "numeric-strings", "none", "complex", "dict", "ragged"])
    def test_rows_that_are_not_numbers_rejected(self, rows):
        class Returning:
            def embed_tokens(self, tokens):
                return rows

        # Rejected before any cast: a complex row would warn and drop its imaginary part.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                embed_pair(Returning(), "x", [snippet("0", "a")])

    def test_stacks_candidates_with_segment_starts(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        items = [snippet("0", "a b c"), snippet("1", "d"), snippet("2", "e f")]
        pair = embed_pair(provider, "x y", items)
        assert pair.m == 2 and pair.p == 6
        assert pair.knowledge_starts == (0, 3, 4)
        np.testing.assert_array_equal(pair.vectors[pair.m + 3], provider.embed("d"))

    # Words for both tokenizer paths; "x_y" and "A-B" give two tokens each.
    WORDS = ["parking", "Free", "w01", "Ünï", "\u212aelvin", "x_y", "A-B"]

    @given(st.lists(st.tuples(st.integers(1, 140), st.integers(0, 140), st.integers(0, 6)), min_size=1, max_size=6))
    @example([(3, 3, 0), (140, 20, 1), (1, 0, 2)])  # the first snippet is title-only
    @example([(2, 1, 3), (129, 60, 0)])  # 129 tokens, one past the cap
    def test_stacks_like_a_per_candidate_loop(self, shapes):
        items = []
        for i, (n, split, offset) in enumerate(shapes):
            words = [self.WORDS[(offset + j * j) % len(self.WORDS)] for j in range(n)]
            split = min(split, n)
            items.append(snippet(str(i), " ".join(words[:split]) + "?", " ".join(words[split:])))
        provider = HashedGaussianVectors(seed=7, dim=2)
        pair = embed_pair(provider, "q", items)
        starts, rows = [], [provider.embed("q")]
        for item in items:
            starts.append(len(rows) - 1)
            rows += [provider.embed(t) for t in tokenize(item.title + " " + item.body)[:MAX_KNOWLEDGE_TOKENS]]
        assert pair.m == 1 and pair.knowledge_starts == tuple(starts)
        np.testing.assert_array_equal(pair.vectors, np.stack(rows))

    @settings(deadline=None, max_examples=80)
    @given(case=st.data())
    def test_result_passes_the_public_constructor_unchanged(self, pair_providers, case):
        def text():
            n = case.draw(st.one_of(st.integers(0, 4), st.integers(60, 140)))  # across the 64 and 128 cuts
            # "?!" alone tokenizes to the empty sentinel.
            return " ".join(case.draw(st.lists(st.sampled_from(self.WORDS + ["?!"]), min_size=n, max_size=n)))

        provider = case.draw(st.sampled_from(pair_providers))
        candidates = [snippet(str(i), text(), text()) for i in range(case.draw(st.integers(1, 6)))]
        question = text()
        pair = embed_pair(provider, question, candidates)
        assert type(pair.m) is int and type(pair.knowledge_starts) is tuple
        assert all(type(start) is int for start in pair.knowledge_starts)
        # The pair's rows are already unit rows: normalizing the raw rows of the same tokens gives them byte for byte.
        tokens = tokenize(question)[:MAX_QUESTION_TOKENS] + _knowledge_tokens(EntitySnippets(candidates))[0]
        raw = RawVectors(provider).embed_tokens(tokens)
        assert pair.vectors.tobytes() == _unit_rows(raw).tobytes()


def same_pair(a, b) -> bool:
    """Whether two pairs hold the same rows, bit for bit, and the same m and starts."""
    return a.vectors.tobytes() == b.vectors.tobytes() and a.m == b.m and a.knowledge_starts == b.knowledge_starts


class TestKnowledgeIndex:
    """An entity's knowledge index gives the pair that embedding its snippets afresh gives."""

    # Both tokenizer paths, NUL (which splits a batch), and, for FileVectors, tokens out of its vocabulary.
    WORDS = ["parking", "Free", "w01", "Ünï", "\u212aelvin", "x_y", "A-B", "nul\x00byte", "oov", "café"]

    @settings(deadline=None, max_examples=60)
    @given(case=st.data())
    @example(case=None)
    def test_cold_then_warm_equals_a_fresh_list(self, pair_providers, case):
        def text():
            n = case.draw(st.one_of(st.integers(0, 4), st.integers(60, 140)))  # across the 64 and 128 cuts
            return " ".join(case.draw(st.lists(st.sampled_from(self.WORDS + ["?!"]), min_size=n, max_size=n)))

        if case is None:  # a candidate holding NUL beside a long non-ASCII one
            questions = ["nul\x00byte parking?", "Ünï w01"]
            items = [snippet("0", "nul\x00byte", "w01 free"), snippet("1", "Ünï " * 130, "x")]
            providers = pair_providers
        else:
            questions = [text(), text()]
            items = [snippet(str(i), text(), text()) for i in range(case.draw(st.integers(1, 6)))]
            providers = [case.draw(st.sampled_from(pair_providers))]
        for provider in providers:
            entity = EntitySnippets(items)
            for question in questions:  # the first call stores the index, the second reads it
                assert same_pair(embed_pair(provider, question, entity), embed_pair(provider, question, list(items)))
                assert entity.knowledge_index[0] is provider

    def test_warm_request_tokenizes_only_its_question(self, monkeypatch):
        provider = HashedGaussianVectors(seed=7, dim=4)
        entity = EntitySnippets([snippet("0", "a b c"), snippet("1", "d")])
        embed_pair(provider, "x", entity)
        index = entity.knowledge_index
        batches = count_calls(monkeypatch, embedding, "tokenize_batch")
        texts = count_calls(monkeypatch, embedding, "tokenize")
        pair = embed_pair(provider, "x y", entity)
        assert batches == [] and texts == [("x y",)]
        assert entity.knowledge_index is index
        assert same_pair(pair, embed_pair(provider, "x y", list(entity)))

    def test_another_provider_rebuilds_the_index(self):
        first = HashedGaussianVectors(seed=7, dim=4)
        second = HashedGaussianVectors(seed=8, dim=4)
        second.embed_tokens(["z", "y", "x", "w"])  # the same tokens get other row numbers in each table
        items = [snippet("0", "a b c"), snippet("1", "d")]
        entity = EntitySnippets(items)
        for provider in (first, second, first):
            pair = embed_pair(provider, "x", entity)
            assert same_pair(pair, embed_pair(provider, "x", list(items)))
            stored, rows, starts = entity.knowledge_index
            assert stored is provider and starts == pair.knowledge_starts
            np.testing.assert_array_equal(rows, provider._token_rows(["a", "b", "c", "d"]))
        assert not np.array_equal(first._token_rows(["a", "d"]), second._token_rows(["a", "d"]))

    def test_stored_rows_survive_the_table_growing(self):
        provider = HashedGaussianVectors(seed=7, dim=4)
        items = [snippet("0", "a b c"), snippet("1", "d")]
        entity = EntitySnippets(items)
        embed_pair(provider, "x", entity)
        table = provider._table
        provider.embed_tokens([f"new{i}" for i in range(100)])  # past the 64 rows the table starts with
        assert len(provider._table) > 64 and provider._table is not table
        index = entity.knowledge_index
        # The question's 30 new tokens take the table past 128 rows within the request, before its gather.
        question = " ".join(["x", "new99"] + [f"late{i}" for i in range(30)])
        grown = len(provider._table)
        pair = embed_pair(provider, question, entity)
        assert entity.knowledge_index is index and len(provider._table) > grown
        assert same_pair(pair, embed_pair(provider, question, list(items)))

    def test_embed_called_once_per_new_token(self, monkeypatch):
        calls = []
        original = HashedGaussianVectors.embed

        def counting(provider, token):
            calls.append(token)
            return original(provider, token)

        monkeypatch.setattr(HashedGaussianVectors, "embed", counting)
        provider = HashedGaussianVectors(seed=7, dim=4)
        entity = EntitySnippets([snippet("0", "a b a"), snippet("1", "c x")])
        expected = [["x", "a", "b", "c"], ["y"], []]  # cold, then warm with a new question token, then warm
        for question, new in zip(["x", "x y", "y x"], expected):
            calls.clear()
            embed_pair(provider, question, entity)
            assert calls == new

    def test_a_request_reads_the_index_once(self):
        # Another request (another thread, say) re-indexes the entity for its own provider while a warm
        # request looks up its question; the warm request still gathers its own provider's rows.
        items = [snippet("0", "a b c"), snippet("1", "d")]
        entity = EntitySnippets(items)
        other = HashedGaussianVectors(seed=8, dim=4)
        other.embed_tokens(["z", "y", "x"])  # the same tokens get other row numbers in its table

        class Interleaved(HashedGaussianVectors):
            def _token_rows(self, tokens):
                rows = super()._token_rows(tokens)
                if tokens == ["q"]:
                    embed_pair(other, "x", entity)
                return rows

        provider = Interleaved(seed=7, dim=4)
        embed_pair(provider, "x", entity)
        pair = embed_pair(provider, "q", entity)
        assert entity.knowledge_index[0] is other
        assert same_pair(pair, embed_pair(provider, "q", list(items)))

    def test_only_entity_snippets_with_a_module_provider_keep_an_index(self):
        items = [snippet("0", "a b")]
        entity = EntitySnippets(items)
        fixed = FixedProvider({"a": [1.0, 0.0], "x": [0.0, 1.0]})
        assert same_pair(embed_pair(fixed, "x", entity), embed_pair(fixed, "x", items))
        assert entity.knowledge_index is None

    def test_equality_repr_and_slicing_ignore_the_index(self):
        items = [snippet("0", "a b"), snippet("1", "c"), snippet("2", "d")]
        entity = EntitySnippets(items)
        embed_pair(HashedGaussianVectors(seed=7, dim=4), "x", entity)
        fresh = EntitySnippets(items)
        assert entity.knowledge_index is not None and fresh.knowledge_index is None
        assert entity == fresh and entity == items and repr(entity) == repr(fresh)
        part = entity[1:]
        assert part == items[1:] and part.knowledge_index is None


def tfidf_row(candidates, question, vocab=None):
    """The TF-IDF score row of one question against its candidates, the vocabulary built from them by default."""
    vocab = vocab or build_vocabulary(corpus_of(*candidates))
    return tfidf_rank(vocab, [question], [candidates])[0]


# Tokens of the TF-IDF property test: "t" tokens fill the knowledge base, "oov" tokens only questions,
# and "?" alone makes a snippet that tokenizes to the empty sentinel.
TFIDF_TOKENS = ["t0", "t1", "t2", "t3", "t4", "oov0", "oov1", "?"]


class TestTfidfRank:
    def test_identical_candidate_scores_1(self):
        candidates = [snippet("0", "is parking free"), snippet("1", "pool hours"), snippet("2", "gym hours")]
        scores = tfidf_row(candidates, "is parking free")
        assert rank_order(scores)[0] == 0
        assert abs(scores[0] - 1.0) < 1e-12
        assert all(scores[1:] < 1.0)

    def test_disjoint_question_all_zero_index_order(self):
        candidates = [snippet("0", "alpha beta"), snippet("1", "gamma delta")]
        scores = tfidf_row(candidates, "epsilon zeta")
        assert scores.tolist() == [0.0, 0.0]
        assert rank_order(scores).tolist() == [0, 1]

    def test_three_candidate_hand_table(self):
        candidates = [snippet("0", "x x y"), snippet("1", "x z"), snippet("2", "z z")]
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
        scores = tfidf_row(candidates, "x y")
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
        assert rank_order(scores).tolist() == [0, 1, 2]

    def test_question_oov_tokens_dropped(self):
        candidates = [snippet("0", "alpha beta"), snippet("1", "gamma delta")]
        vocab = build_vocabulary(corpus_of(*candidates))
        np.testing.assert_array_equal(tfidf_row(candidates, "qqq alpha", vocab), tfidf_row(candidates, "alpha", vocab))

    def test_ties_keep_candidate_index_order(self):
        scores = tfidf_row([snippet("0", "alpha beta"), snippet("1", "alpha beta")], "alpha")
        assert rank_order(scores).tolist() == [0, 1]
        assert scores[0] == scores[1]

    def test_output_is_permutation_with_nonincreasing_scores(self):
        rng = np.random.default_rng(42)
        vocabulary = [f"t{i}" for i in range(12)]
        candidate_sets = [
            [snippet(str(i), " ".join(rng.choice(vocabulary, size=3))) for i in range(int(rng.integers(1, 6)))]
            for _ in range(20)
        ]
        questions = [" ".join(rng.choice(vocabulary, size=3)) for _ in candidate_sets]
        corpus = Corpus({("d", str(e)): c for e, c in enumerate(candidate_sets)}, [])
        scores = tfidf_rank(build_vocabulary(corpus), questions, candidate_sets)
        assert scores.shape == (20, 5)
        for row, candidates in zip(scores, candidate_sets):
            order = rank_order(row)
            assert sorted(order[: len(candidates)].tolist()) == list(range(len(candidates)))
            assert all(row[len(candidates):] == -np.inf)
            ranked = row[order]
            assert all(ranked[:-1] >= ranked[1:])
            assert all((0.0 <= row[: len(candidates)]) & (row[: len(candidates)] <= 1.0))

    def test_empty_candidates_rejected(self):
        vocab = build_vocabulary(corpus_of(snippet("0", "a")))
        for questions, candidate_sets in ((["a"], [[]]), ([], []), (["a", "b"], [[snippet("0", "a")]])):
            with pytest.raises(ValueError, match="non-empty candidate list per question"):
                tfidf_rank(vocab, questions, candidate_sets)

    @settings(deadline=None, max_examples=60)
    @given(case=st.data())
    @example(case=None)
    def test_matches_the_dict_oracle(self, case):
        """Repeated tokens, OOV question tokens, empty-sentinel and duplicate snippets, all-OOV questions."""
        if case is None:  # pinned: an all-OOV question, an empty-sentinel snippet and a duplicate pair
            entities = [["t0 t0 t1", "?", "t2 t1", "t2 t1"], ["t3"]]
            questions = ["oov0 oov1", "t3 t3 oov0", "t1 t2 t0 t1"]
            picks = [0, 1, 0]
        else:
            text = st.lists(st.sampled_from(TFIDF_TOKENS[:5] + ["?"]), min_size=1, max_size=8).map(" ".join)
            entities = case.draw(st.lists(st.lists(text, min_size=1, max_size=6), min_size=1, max_size=5))
            # Duplicate the first snippet of the first entity, so that ties occur.
            entities[0] = entities[0] + entities[0][:1]
            questions = case.draw(st.lists(st.lists(st.sampled_from(TFIDF_TOKENS), min_size=1, max_size=10).map(
                " ".join), min_size=1, max_size=6))
            picks = [case.draw(st.integers(0, len(entities) - 1)) for _ in questions]
        snippets = {("d", str(e)): [snippet(str(i), t) for i, t in enumerate(texts)] for e, texts in enumerate(entities)}
        vocab = build_vocabulary(Corpus(snippets, []))
        candidate_sets = [snippets[("d", str(e))] for e in picks]
        scores = tfidf_rank(vocab, questions, candidate_sets)
        assert scores.shape == (len(questions), max(map(len, candidate_sets)))
        for row, question, candidates in zip(scores, questions, candidate_sets):
            expected = oracle_tfidf_scores(vocab.doc_freq, vocab.n_documents, question, candidates)
            np.testing.assert_allclose(row[: len(candidates)], expected, rtol=0, atol=1e-12)
            assert all(row[len(candidates):] == -np.inf)
            assert rank_order(row).tolist()[: len(candidates)] == rank_order(expected).tolist()


class TestBuildVocabulary:
    def test_dense_first_appearance_ids(self):
        corpus = corpus_of(snippet("0", "alpha beta"), snippet("1", "beta gamma"))
        vocab = build_vocabulary(corpus)
        assert vocab.doc_freq == {"alpha": 1, "beta": 2, "gamma": 1}
        assert vocab.n_documents == 2

    def test_tokens_in_order_of_first_appearance(self):
        corpus = Corpus({
            ("d", "e"): [snippet("0", "zeta alpha zeta kappa eta omega iota nu xi"), snippet("1", "mu alpha")],
            ("d", "f"): [snippet("0", "beta", "zeta")],
        }, [])
        vocab = build_vocabulary(corpus)
        assert type(vocab.doc_freq) is dict
        assert list(vocab.doc_freq.items()) == [
            ("zeta", 2), ("alpha", 2), ("kappa", 1), ("eta", 1), ("omega", 1), ("iota", 1), ("nu", 1), ("xi", 1),
            ("mu", 1), ("beta", 1),
        ]
        assert vocab.n_documents == 3

    def test_ids_follow_first_appearance_and_idf_is_math_log(self):
        corpus = corpus_of(snippet("0", "beta alpha"), snippet("1", "beta gamma"), snippet("2", "delta"))
        vocab = build_vocabulary(corpus)
        assert vocab.ids == {"beta": 0, "alpha": 1, "gamma": 2, "delta": 3}
        expected = [math.log(4 / (1 + df)) + 1.0 for df in (2, 1, 1, 1)]
        assert vocab.idf.tolist() == expected

    def test_repeated_token_counts_once_per_doc(self):
        corpus = corpus_of(snippet("0", "echo echo echo"))
        vocab = build_vocabulary(corpus)
        assert vocab.doc_freq["echo"] == 1

    def test_idf_is_read_only(self):
        vocab = build_vocabulary(corpus_of(snippet("0", "alpha beta")))
        with pytest.raises(ValueError, match="read-only"):
            vocab.idf[0] = 2.0


def same_vocabulary(a, b) -> bool:
    """Field-by-field equality of two vocabularies: token order, counts, ids and idf bits."""
    return (list(a.doc_freq.items()) == list(b.doc_freq.items()) and a.n_documents == b.n_documents
            and list(a.ids.items()) == list(b.ids.items()) and a.idf.shape == b.idf.shape
            and a.idf.tobytes() == b.idf.tobytes())


def fresh_vocabulary(corpus):
    """The vocabulary of a new corpus holding the same entities, so built without an index."""
    return build_vocabulary(Corpus(dict(corpus.snippets), []))


def entity(seed: int) -> EntitySnippets:
    """One to three snippets whose tokens depend on ``seed``."""
    return EntitySnippets([snippet(str(i), f"t{(seed + i) % 7} t{seed % 5}", f"b{seed % 3}")
                           for i in range(1 + seed % 3)])


def three_entities():
    return Corpus({("d", str(e)): entity(e) for e in range(3)}, [])


# Each mutation edits a corpus's entities in place: a knowledge base changed after its vocabulary was built.
def add(corpus, key):
    corpus.snippets[("new", str(len(corpus.snippets)))] = entity(len(corpus.snippets) + 11)


def delete(corpus, key):
    del corpus.snippets[key]


def reinsert(corpus, key):
    corpus.snippets[key] = corpus.snippets.pop(key)


def replace_changed(corpus, key):
    corpus.snippets[key] = EntitySnippets(corpus.snippets[key].rows + (("d", "e", "x", "extra", "rows"),))


def replace_equal(corpus, key):
    corpus.snippets[key] = EntitySnippets(corpus.snippets[key].rows)


class TestVocabularyIndex:
    def test_second_call_returns_the_stored_vocabulary_without_tokenizing(self, monkeypatch):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        assert build_vocabulary(corpus) is vocab
        assert calls == []
        assert corpus.vocabulary_index == (tuple(corpus.snippets.values()), vocab)

    @pytest.mark.parametrize("mutate", [add, delete, reinsert, replace_changed])
    def test_a_changed_knowledge_base_is_built_again(self, monkeypatch, mutate):
        corpus = three_entities()
        stale = build_vocabulary(corpus)
        mutate(corpus, ("d", "0"))
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        vocab = build_vocabulary(corpus)
        assert vocab is not stale and len(calls) == 1
        assert not same_vocabulary(vocab, stale)
        assert same_vocabulary(vocab, fresh_vocabulary(corpus))
        assert build_vocabulary(corpus) is vocab

    def test_an_entity_replaced_by_one_with_equal_rows_is_a_hit(self, monkeypatch):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        replace_equal(corpus, ("d", "1"))
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        assert build_vocabulary(corpus) is vocab
        assert calls == []

    def test_equality_repr_and_replace_ignore_the_index(self):
        corpus = three_entities()
        build_vocabulary(corpus)
        fresh = Corpus(dict(corpus.snippets), [])
        assert corpus.vocabulary_index is not None and fresh.vocabulary_index is None
        assert corpus == fresh and repr(corpus) == repr(fresh)
        assert "vocabulary_index" not in repr(corpus)
        replaced = dataclasses.replace(corpus)
        assert replaced == corpus and replaced.vocabulary_index is None

    @settings(deadline=None, max_examples=60)
    @given(steps=st.lists(st.tuples(st.sampled_from([add, delete, reinsert, replace_changed, replace_equal]),
                                    st.integers(0, 9)), max_size=8))
    def test_every_mutation_sequence_reads_as_a_fresh_build(self, steps):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        for mutate, pick in steps:
            keys = list(corpus.snippets)
            if keys or mutate is add:
                mutate(corpus, keys[pick % len(keys)] if keys else None)
            then = corpus.vocabulary_index[0]
            previous, vocab = vocab, build_vocabulary(corpus)
            assert (vocab is previous) == (then == tuple(corpus.snippets.values()))
            assert same_vocabulary(vocab, fresh_vocabulary(corpus))


def slice_off(corpus, key):
    """Replace an entity by a slice of itself without its last snippet (all of it when it has one)."""
    docs = corpus.snippets[key]
    corpus.snippets[key] = docs[: max(1, len(docs) - 1)]


def entity_texts(*entities):
    return embedding._snippet_texts([row for docs in entities for row in docs.rows])


def same_arrays(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Question tokens of the TF-IDF index tests: those of ``entity`` above, and one outside every vocabulary.
INDEX_TOKENS = [f"t{i}" for i in range(7)] + ["b0", "b1", "b2", "oov"]


class TestTfidfIndex:
    """An entity's TF-IDF index gives the scores that weighing its snippets afresh gives."""

    QUESTIONS = ["t0 b1", "t3", "oov t2 t2"]

    def test_a_repeat_tokenizes_only_its_questions(self, monkeypatch):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        sets = list(corpus.snippets.values())
        first = tfidf_rank(vocab, self.QUESTIONS, sets)
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        again = tfidf_rank(vocab, self.QUESTIONS, sets)
        assert calls == [(self.QUESTIONS,)]
        assert same_arrays(again, first)

    def test_an_entity_repeated_in_a_cold_call_is_weighed_once(self, monkeypatch):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        first, second = corpus.snippets[("d", "1")], corpus.snippets[("d", "2")]
        questions = self.QUESTIONS + ["b2"]
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        scores = tfidf_rank(vocab, questions, [first, second, first, first])
        assert calls == [(entity_texts(first, second),), (questions,)]
        lists = [list(first), list(second), list(first), list(first)]
        assert same_arrays(scores, tfidf_rank(vocab, questions, lists))

    def test_a_call_reads_each_index_once(self, monkeypatch):
        # As TestKnowledgeIndex::test_a_request_reads_the_index_once: another call (another thread, say)
        # re-weighs a warm entity under another vocabulary while this call weighs its cold one; this call
        # still scores the warm entity's rows under its own vocabulary.
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        other = build_vocabulary(Corpus(dict(reversed(corpus.snippets.items())), []))  # other token ids
        warm, cold = corpus.snippets[("d", "1")], corpus.snippets[("d", "2")]
        questions = self.QUESTIONS[:2]
        tfidf_rank(vocab, questions[:1], [warm])
        original, interleaved = embedding._token_weights, []

        def weigh(vocabulary, texts):
            if vocabulary is vocab and not interleaved:
                interleaved.append(tfidf_rank(other, ["t0"], [warm]))
            return original(vocabulary, texts)

        monkeypatch.setattr(embedding, "_token_weights", weigh)
        scores = tfidf_rank(vocab, questions, [warm, cold])
        assert interleaved and warm.tfidf_index[0] is other and cold.tfidf_index[0] is vocab
        assert same_arrays(scores, tfidf_rank(vocab, questions, [list(warm), list(cold)]))

    @pytest.mark.parametrize("words", [TFIDF_TOKENS, TestKnowledgeIndex.WORDS], ids=["ascii", "odd"])
    def test_stored_rows_score_as_a_list_of_the_same_snippets(self, words):
        rng = np.random.default_rng(5)

        def text():
            return " ".join(rng.choice(words, size=int(rng.integers(1, 6))))

        entities = [EntitySnippets([snippet(str(i), text(), text()) for i in range(1 + e)]) for e in range(3)]
        corpus = Corpus({("d", str(e)): docs for e, docs in enumerate(entities)}, [])
        vocab = build_vocabulary(corpus)
        questions = [text() for _ in entities]
        for _ in range(2):  # the first call stores each entity's rows, the second reads them
            scores = tfidf_rank(vocab, questions, entities)
            assert same_arrays(scores, tfidf_rank(vocab, questions, [list(docs) for docs in entities]))
            for docs in entities:
                stored, keys, weights = docs.tfidf_index
                expected_keys, expected_weights = embedding._token_weights(vocab, entity_texts(docs))
                assert stored is vocab
                assert same_arrays(keys, expected_keys) and same_arrays(weights, expected_weights)

    def test_another_vocabulary_weighs_again_and_replaces_the_rows(self, monkeypatch):
        corpus = three_entities()
        sets = list(corpus.snippets.values())
        first = build_vocabulary(corpus)
        tfidf_rank(first, self.QUESTIONS, sets)
        # An equal vocabulary built anew, then one whose ids differ (the entities in reverse order).
        for vocab in (fresh_vocabulary(corpus), build_vocabulary(Corpus(dict(reversed(corpus.snippets.items())), []))):
            assert vocab is not first
            calls = count_calls(monkeypatch, embedding, "tokenize_batch")
            scores = tfidf_rank(vocab, self.QUESTIONS, sets)
            assert calls == [(entity_texts(*sets),), (self.QUESTIONS,)]
            assert all(docs.tfidf_index[0] is vocab for docs in sets)
            assert same_arrays(scores, tfidf_rank(vocab, self.QUESTIONS, [list(docs) for docs in sets]))
            monkeypatch.undo()
        assert not same_arrays(sets[0].tfidf_index[1], embedding._token_weights(first, entity_texts(sets[0]))[0])

    def test_stored_rows_are_read_only(self):
        corpus = three_entities()
        vocab = build_vocabulary(corpus)
        # A cold call returns its batch arrays as they are and shares them with the index.
        for _ in range(2):
            tfidf_rank(vocab, self.QUESTIONS, list(corpus.snippets.values()))
        for docs in corpus.snippets.values():
            for array in docs.tfidf_index[1:]:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_a_list_is_weighed_every_call(self, monkeypatch):
        items = [snippet("0", "t0 t1"), snippet("1", "t2")]
        vocab = build_vocabulary(corpus_of(*items))
        tfidf_rank(vocab, ["t0"], [items])
        calls = count_calls(monkeypatch, embedding, "tokenize_batch")
        tfidf_rank(vocab, ["t0"], [items])
        assert calls == [(entity_texts(EntitySnippets(items)),), (["t0"],)]

    def test_equality_repr_and_slicing_ignore_the_index(self):
        corpus = three_entities()
        docs = corpus.snippets[("d", "2")]
        tfidf_rank(build_vocabulary(corpus), ["t0"], [docs])
        fresh = EntitySnippets(docs.rows)
        assert docs.tfidf_index is not None and fresh.tfidf_index is None
        assert docs == fresh and docs == list(fresh) and repr(docs) == repr(fresh)
        part = docs[1:]
        assert part == list(docs)[1:] and part.tfidf_index is None

    @settings(deadline=None, max_examples=60)
    @given(
        steps=st.lists(st.tuples(st.sampled_from([add, delete, slice_off, replace_changed]), st.integers(0, 9)),
                       max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 9), st.booleans(),
                                 st.lists(st.sampled_from(INDEX_TOKENS), min_size=1, max_size=5).map(" ".join)),
                       min_size=1, max_size=5),
    )
    def test_every_mutation_sequence_scores_as_a_fresh_corpus(self, steps, picks):
        """Stored and list sets mixed, entities repeated, after each edit of the knowledge base."""
        corpus = three_entities()
        for mutate, pick in [(None, 0)] + steps:
            keys = list(corpus.snippets)
            if mutate is not None and (keys or mutate is add):
                mutate(corpus, keys[pick % len(keys)] if keys else None)
            keys = list(corpus.snippets)
            if not keys:
                continue
            fresh = Corpus({key: EntitySnippets(docs.rows) for key, docs in corpus.snippets.items()}, [])
            chosen = [(keys[p % len(keys)], as_list) for p, as_list, _ in picks]
            questions = [question for _, _, question in picks]

            def sets_of(c):
                return [list(c.snippets[key]) if as_list else c.snippets[key] for key, as_list in chosen]

            vocab = build_vocabulary(corpus)
            expected = tfidf_rank(build_vocabulary(fresh), questions, sets_of(fresh))
            for _ in range(2):  # cold or mixed, then every entity stored
                scores = tfidf_rank(vocab, questions, sets_of(corpus))
                assert same_arrays(scores, expected)
            for row, question, candidates in zip(scores, questions, sets_of(corpus)):
                oracle = oracle_tfidf_scores(vocab.doc_freq, vocab.n_documents, question, candidates)
                np.testing.assert_allclose(row[: len(candidates)], oracle, rtol=0, atol=1e-12)
