import gc
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial.corpus import (
    Corpus,
    CorpusError,
    DialogInstance,
    DialogTurn,
    EntitySnippets,
    KnowledgeSnippet,
    MARKER_TOKEN,
    SnippetRef,
    Speaker,
    SynthParams,
    candidate_set,
    load_corpus,
    load_knowledge,
    synth_corpus,
    write_corpus,
)
from kgdial.embedding import tokenize


def write_files(tmp_path, knowledge, logs, labels=None):
    paths = [tmp_path / "knowledge.json", tmp_path / "logs.json"]
    paths[0].write_text(json.dumps(knowledge))
    paths[1].write_text(json.dumps(logs))
    if labels is not None:
        paths.append(tmp_path / "labels.json")
        paths[2].write_text(json.dumps(labels))
    return paths


def two_snippet_knowledge():
    return {
        "hotel": {
            "1": {
                "name": "Inn",
                "docs": {
                    "0": {"title": "Is parking free?", "body": "Yes."},
                    "1": {"title": "Is there a pool?", "body": "No."},
                },
            }
        }
    }


class TestLoadCorpus:
    def test_hotel_fixture_round_trip_has_8_snippets(self, hotel, tmp_path):
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(hotel, *paths)
        loaded = load_corpus(*paths)
        assert len(loaded.snippets[("hotel", "1")]) == 8
        assert loaded == hotel

    def test_empty_logs_gives_zero_dialogs(self, tmp_path):
        paths = write_files(tmp_path, two_snippet_knowledge(), [])
        corpus = load_corpus(*paths)
        assert corpus.dialogs == []
        assert sum(len(docs) for docs in corpus.snippets.values()) == 2

    def test_dangling_golden_reference_names_dialog(self, tmp_path):
        logs = [[{"speaker": "U", "text": "any parking?"}]]
        labels = [
            {
                "target": True,
                "knowledge": [{"domain": "hotel", "entity_id": "1", "doc_id": "99"}],
            }
        ]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, labels)
        with pytest.raises(CorpusError, match="d0000"):
            load_corpus(*paths)

    def test_without_labels_all_dialogs_unlabeled(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs)
        corpus = load_corpus(paths[0], paths[1])
        assert corpus.dialogs[0].target is False
        assert corpus.dialogs[0].golden is None

    def test_duplicate_doc_key_rejected(self, tmp_path):
        text = (
            '{"hotel": {"1": {"name": "x", "docs": '
            '{"0": {"title": "a?"}, "0": {"title": "b?"}}}}}'
        )
        (tmp_path / "k.json").write_text(text)
        (tmp_path / "l.json").write_text("[]")
        with pytest.raises(CorpusError, match="duplicate key"):
            load_corpus(tmp_path / "k.json", tmp_path / "l.json")

    def test_parse_error_reports_position(self, tmp_path):
        (tmp_path / "k.json").write_text("{bad json")
        (tmp_path / "l.json").write_text("[]")
        with pytest.raises(CorpusError, match="line 1 column"):
            load_corpus(tmp_path / "k.json", tmp_path / "l.json")

    def test_last_turn_must_be_user(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}, {"speaker": "S", "text": "hello"}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs)
        with pytest.raises(CorpusError, match="last turn"):
            load_corpus(*paths)

    def test_label_count_mismatch(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, [])
        with pytest.raises(CorpusError, match="0 labels for 1 dialogs"):
            load_corpus(*paths)

    def test_non_target_label_with_knowledge_rejected(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}]]
        labels = [
            {
                "target": False,
                "knowledge": [{"domain": "hotel", "entity_id": "1", "doc_id": "0"}],
            }
        ]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, labels)
        with pytest.raises(CorpusError, match="non-target"):
            load_corpus(*paths)

    def test_multi_golden_label_rejected(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}]]
        labels = [
            {
                "target": True,
                "knowledge": [
                    {"domain": "hotel", "entity_id": "1", "doc_id": "0"},
                    {"domain": "hotel", "entity_id": "1", "doc_id": "1"},
                ],
            }
        ]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, labels)
        with pytest.raises(CorpusError, match="exactly one golden"):
            load_corpus(*paths)

    def test_empty_title_rejected(self, tmp_path):
        knowledge = {"hotel": {"1": {"name": "x", "docs": {"0": {"title": ""}}}}}
        paths = write_files(tmp_path, knowledge, [])
        with pytest.raises(CorpusError, match="title is empty"):
            load_corpus(*paths)

    @pytest.mark.parametrize(
        "knowledge, message",
        [
            ([], "expected a domain -> entities object"),
            ({"hotel": []}, "domain 'hotel': expected an object"),
            ({"hotel": {"1": "Inn"}}, "entity ('hotel', '1'): missing 'docs'"),
            ({"hotel": {"1": {"name": "Inn"}}}, "entity ('hotel', '1'): missing 'docs'"),
            ({"hotel": {"1": {"docs": {}}}}, "entity ('hotel', '1'): 'docs' must be a non-empty object"),
            ({"hotel": {"1": {"docs": ["q?"]}}}, "entity ('hotel', '1'): 'docs' must be a non-empty object"),
            ({"hotel": {"1": {"docs": {"0": "q?"}}}}, "doc ('hotel', '1', '0'): missing string 'title'"),
            ({"hotel": {"1": {"docs": {"0": {"body": "a."}}}}}, "doc ('hotel', '1', '0'): missing string 'title'"),
            ({"hotel": {"1": {"docs": {"0": {"title": 3}}}}}, "doc ('hotel', '1', '0'): missing string 'title'"),
            (
                {"hotel": {"1": {"docs": {"0": {"title": "q?", "body": None}}}}},
                "doc ('hotel', '1', '0'): 'body' must be a string",
            ),
            (
                {"hotel": {"1": {"name": ["Inn"], "docs": {"0": {"title": "q?"}}}}},
                "entity ('hotel', '1'): 'name' must be a string",
            ),
            (
                {"hotel": {"1": {"name": 7, "docs": {"0": {"title": "q?"}}}}},
                "entity ('hotel', '1'): 'name' must be a string",
            ),
        ],
        ids=[
            "top-level-not-object",
            "domain-not-object",
            "entity-not-object",
            "entity-without-docs",
            "docs-empty",
            "docs-not-object",
            "doc-not-object",
            "title-missing",
            "title-not-string",
            "body-not-string",
            "name-array",
            "name-number",
        ],
    )
    def test_knowledge_rejection_message(self, tmp_path, knowledge, message):
        paths = write_files(tmp_path, knowledge, [])
        with pytest.raises(CorpusError) as excinfo:
            load_corpus(*paths)
        assert str(excinfo.value) == f"{paths[0]}: {message}"

    @pytest.mark.parametrize("name", [None, "absent"])
    def test_null_or_missing_name_loads_empty(self, tmp_path, name):
        knowledge = two_snippet_knowledge()
        entity = knowledge["hotel"]["1"]
        if name == "absent":
            del entity["name"]
        else:
            entity["name"] = name
        corpus = load_corpus(*write_files(tmp_path, knowledge, []))
        assert corpus.entity_names[("hotel", "1")] == ""
        out = [tmp_path / "k2.json", tmp_path / "l2.json"]
        write_corpus(corpus, *out)
        assert json.loads(out[0].read_text())["hotel"]["1"]["name"] == ""

    @pytest.mark.parametrize("target", [True, False])
    @pytest.mark.parametrize("knowledge", [{"a": 1}, {}, 5, 0, True, False, "", "x"],
                             ids=["object", "empty-object", "number", "zero", "true", "false",
                                  "empty-string", "string"])
    def test_non_array_label_knowledge_rejected(self, tmp_path, knowledge, target):
        logs = [[{"speaker": "U", "text": "hi"}]]
        labels = [{"target": target, "knowledge": knowledge}]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, labels)
        with pytest.raises(CorpusError) as excinfo:
            load_corpus(*paths)
        assert str(excinfo.value) == f"{paths[2]}: dialog d0000: 'knowledge' must be an array"

    @pytest.mark.parametrize("value", [1, ["hotel"], None, True], ids=["int", "list", "null", "bool"])
    @pytest.mark.parametrize("key", ["domain", "entity_id", "doc_id"])
    def test_non_string_golden_reference_field_rejected(self, tmp_path, key, value):
        logs = [[{"speaker": "U", "text": "any parking?"}]]
        entry = {"domain": "hotel", "entity_id": "1", "doc_id": "0"} | {key: value}
        paths = write_files(tmp_path, two_snippet_knowledge(), logs, [{"target": True, "knowledge": [entry]}])
        with pytest.raises(CorpusError) as excinfo:
            load_corpus(*paths)
        assert str(excinfo.value) == f"{paths[2]}: dialog d0000: knowledge entry {key!r} must be a string"

    def test_null_label_knowledge_means_none(self, tmp_path):
        logs = [[{"speaker": "U", "text": "hi"}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs,
                            [{"target": False, "knowledge": None}])
        assert load_corpus(*paths).dialogs[0].golden is None

    def test_blank_turn_text_rejected(self, tmp_path):
        logs = [[{"speaker": "U", "text": "   "}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs)
        with pytest.raises(CorpusError, match="non-empty string"):
            load_corpus(*paths)

    def test_bad_speaker_rejected(self, tmp_path):
        logs = [[{"speaker": "X", "text": "hi"}]]
        paths = write_files(tmp_path, two_snippet_knowledge(), logs)
        with pytest.raises(CorpusError, match="speaker must be"):
            load_corpus(*paths)


class TestCandidateSet:
    def test_hotel_entity_has_8(self, hotel):
        assert len(candidate_set(hotel, ("hotel", "1"))) == 8

    def test_single_doc_entity(self):
        snippet = KnowledgeSnippet("d", "e", "0", "q?", "a.")
        corpus = Corpus({("d", "e"): [snippet]}, [])
        assert candidate_set(corpus, ("d", "e")) == [snippet]

    def test_order_matches_storage_after_permutation(self, hotel):
        shuffled = list(reversed(hotel.snippets[("hotel", "1")]))
        corpus = Corpus({("hotel", "1"): shuffled}, [])
        assert candidate_set(corpus, ("hotel", "1")) == shuffled

    def test_unknown_entity(self, hotel):
        with pytest.raises(CorpusError, match="unknown entity"):
            candidate_set(hotel, ("hotel", "404"))

    def test_pure_repeated_calls_equal(self, hotel):
        first = candidate_set(hotel, ("hotel", "1"))
        assert candidate_set(hotel, ("hotel", "1")) == first


class TestSynthCorpus:
    def test_deterministic_for_fixed_seed(self):
        params = SynthParams(n_dialogs=20, n_candidates=4, vocab_size=32)
        assert synth_corpus(1, params) == synth_corpus(1, params)

    def test_different_seeds_differ(self):
        params = SynthParams(n_dialogs=20, n_candidates=4, vocab_size=32)
        assert synth_corpus(1, params) != synth_corpus(2, params)

    def test_counts_contract(self):
        corpus = synth_corpus(3, SynthParams(n_dialogs=200, n_candidates=8))
        assert len(corpus.dialogs) == 200
        for dialog in corpus.dialogs:
            if dialog.golden is not None:
                entity = (dialog.golden.domain, dialog.golden.entity_id)
                assert len(candidate_set(corpus, entity)) == 8

    def test_token_overlap_invariants_brute_force(self):
        corpus = synth_corpus(11, SynthParams(n_dialogs=100, n_candidates=8))
        for dialog in corpus.dialogs:
            if not dialog.target:
                continue
            query = set(tokenize(dialog.current_turn.text))
            entity = (dialog.golden.domain, dialog.golden.entity_id)
            for snippet in candidate_set(corpus, entity):
                overlap = len(query & set(tokenize(snippet.text)))
                if snippet.doc_id == dialog.golden.doc_id:
                    assert overlap >= 2
                else:
                    assert overlap < 2

    def test_marker_token_separates_classes(self):
        corpus = synth_corpus(7, SynthParams(n_dialogs=80, n_candidates=4, vocab_size=32))
        for dialog in corpus.dialogs:
            tokens = tokenize(dialog.current_turn.text)
            assert (MARKER_TOKEN in tokens) == (not dialog.target)

    def test_marker_rate_exact_count(self):
        for rate in (0.0, 0.25, 0.5, 1.0):
            corpus = synth_corpus(7, SynthParams(n_dialogs=40, n_candidates=4, detect_marker_rate=rate))
            non_targets = sum(1 for d in corpus.dialogs if not d.target)
            assert non_targets == round(40 * rate)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n_candidates"):
            SynthParams(n_candidates=1)
        with pytest.raises(ValueError, match="vocab_size"):
            SynthParams(n_candidates=8, vocab_size=31)
        with pytest.raises(ValueError, match="detect_marker_rate"):
            SynthParams(detect_marker_rate=1.5)
        with pytest.raises(ValueError, match="n_dialogs"):
            SynthParams(n_dialogs=0)

    @pytest.mark.parametrize("field, cap", [("n_dialogs", 100_000), ("n_candidates", 1_000), ("vocab_size", 100_000)])
    def test_size_caps(self, field, cap):
        fitting = {"n_dialogs": 10, "n_candidates": 8, "vocab_size": 4000, field: cap}
        assert getattr(SynthParams(**fitting), field) == cap
        with pytest.raises(ValueError, match=f"^{field} must be <= {cap}, got {cap + 1}$"):
            SynthParams(**{**fitting, field: cap + 1})

    def test_document_count_cap(self):
        assert SynthParams(n_dialogs=100_000, n_candidates=10, vocab_size=40).n_dialogs == 100_000
        with pytest.raises(ValueError, match=r"^n_dialogs \* n_candidates must be <= 1000000, got 1001000$"):
            SynthParams(n_dialogs=1001, n_candidates=1000, vocab_size=4000)

    def test_golden_present_iff_target(self):
        corpus = synth_corpus(13, SynthParams(n_dialogs=50, n_candidates=4, vocab_size=32))
        for dialog in corpus.dialogs:
            assert (dialog.golden is not None) == dialog.target


class TestWriteCorpus:
    def test_round_trip_equality(self, tmp_path):
        corpus = synth_corpus(9, SynthParams(n_dialogs=30, n_candidates=4, vocab_size=32))
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(corpus, *paths)
        assert load_corpus(*paths) == corpus

    def test_write_without_labels_loads_unlabeled(self, tmp_path):
        corpus = synth_corpus(9, SynthParams(n_dialogs=10, n_candidates=4, vocab_size=32))
        write_corpus(corpus, tmp_path / "k.json", tmp_path / "l.json")
        loaded = load_corpus(tmp_path / "k.json", tmp_path / "l.json")
        assert all(not d.target for d in loaded.dialogs)
        assert [d.turns for d in loaded.dialogs] == [d.turns for d in corpus.dialogs]

    def test_response_survives_round_trip(self, tmp_path):
        corpus = synth_corpus(9, SynthParams(n_dialogs=30, n_candidates=4, vocab_size=32))
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(corpus, *paths)
        loaded = load_corpus(*paths)
        responses = [d.response for d in corpus.dialogs if d.target]
        assert responses == [d.response for d in loaded.dialogs if d.target]
        assert any(r for r in responses)


@st.composite
def corpora(draw):
    """Valid corpora over arbitrary Unicode ids and texts, labeled or not."""
    texts = st.text(max_size=12)
    snippets, names = {}, {}
    for domain in draw(st.lists(texts, min_size=1, max_size=3, unique=True)):
        for entity_id in draw(st.lists(texts, min_size=1, max_size=3, unique=True)):
            doc_ids = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
            snippets[(domain, entity_id)] = [
                KnowledgeSnippet(domain, entity_id, doc_id, draw(st.text(min_size=1, max_size=12)), draw(texts))
                for doc_id in doc_ids
            ]
            names[(domain, entity_id)] = draw(texts)
    refs = [s.ref for docs in snippets.values() for s in docs]
    turn_text = st.text(min_size=1, max_size=12).filter(str.strip)
    dialogs = []
    for index in range(draw(st.integers(0, 4))):
        history = draw(st.lists(st.tuples(st.sampled_from(Speaker), turn_text), max_size=3))
        turns = tuple(DialogTurn(speaker, text) for speaker, text in history)
        turns += (DialogTurn(Speaker.USER, draw(turn_text)),)
        target = draw(st.booleans())
        golden = draw(st.sampled_from(refs)) if target else None
        response = draw(st.none() | texts) if target else None
        dialogs.append(DialogInstance(f"d{index:04d}", turns, target, golden, response))
    return Corpus(snippets, dialogs, names)


class TestRoundTripProperty:
    @settings(deadline=None)
    @given(corpus=corpora())
    def test_write_then_load_is_equal(self, tmp_path_factory, corpus):
        paths = [tmp_path_factory.mktemp("round-trip") / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(corpus, *paths)
        loaded = load_corpus(*paths)
        assert loaded == corpus
        assert list(loaded.snippets) == list(corpus.snippets)
        for key, docs in corpus.snippets.items():
            assert [(s.ref, s.text) for s in loaded.snippets[key]] == [(s.ref, s.text) for s in docs]
            assert type(loaded.snippets[key]) is EntitySnippets
        again = [tmp_path_factory.mktemp("round-trip") / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(loaded, *again)
        assert [p.read_bytes() for p in again] == [p.read_bytes() for p in paths]
        assert load_corpus(*again) == loaded


snippet_lists = st.lists(
    st.builds(KnowledgeSnippet, st.text(max_size=3), st.text(max_size=3), st.text(max_size=3),
              st.text(min_size=1, max_size=6), st.text(max_size=6)),
    max_size=6,
)


class TestEntitySnippets:
    """An entity's stored rows behave as the list of snippets they were built from."""

    @given(snippets=snippet_lists)
    def test_behaves_as_the_list(self, snippets):
        stored = EntitySnippets(snippets)
        n = len(snippets)
        assert len(stored) == n
        for i in range(-n, n):
            assert stored[i] == snippets[i] and type(stored[i]) is KnowledgeSnippet
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                stored[i]
        assert list(stored) == snippets and all(type(s) is KnowledgeSnippet for s in stored)
        assert list(reversed(stored)) == snippets[::-1]
        assert stored[1:3] == snippets[1:3] and type(stored[1:3]) is EntitySnippets
        assert stored == snippets and snippets == stored and stored == tuple(snippets)
        assert stored == EntitySnippets(snippets)
        assert stored != snippets + [KnowledgeSnippet("x", "y", "z", "t", "b")]
        assert all(s in stored for s in snippets)

    @given(first=snippet_lists, second=snippet_lists)
    def test_equal_exactly_when_the_lists_are(self, first, second):
        assert (EntitySnippets(first) == EntitySnippets(second)) == (first == second)
        assert (EntitySnippets(first) == second) == (first == second)

    def test_rows_are_plain_tuples(self):
        stored = EntitySnippets([KnowledgeSnippet("d", "e", "0", "q?", "a.")])
        assert type(stored.rows) is tuple and [type(row) for row in stored.rows] == [tuple]

    def test_corpus_wraps_lists_and_keeps_stored_objects(self, hotel):
        assert all(type(docs) is EntitySnippets for docs in hotel.snippets.values())
        again = Corpus(hotel.snippets, [])
        assert candidate_set(again, ("hotel", "1")) is hotel.snippets[("hotel", "1")]


def tracked_rows(corpus) -> list:
    """Every stored row still tracked after one full collection, then every entity's tuple of rows still tracked after a second.

    A pass untracks a tuple whose items are all untracked when it reaches
    it; it may reach an entity's tuple of rows before the rows themselves,
    and then untracks that tuple on the next pass.
    """
    gc.collect()
    tracked = [row for docs in corpus.snippets.values() for row in docs.rows if gc.is_tracked(row)]
    gc.collect()
    return tracked + [docs.rows for docs in corpus.snippets.values() if gc.is_tracked(docs.rows)]


class TestNoTrackedObjectPerDocument:
    """After one collection no stored row is tracked, so a loaded knowledge base costs the collector one object per entity."""

    def test_loaded_corpus(self, tmp_path):
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(synth_corpus(4, SynthParams(n_dialogs=30, n_candidates=8)), *paths)
        assert tracked_rows(load_corpus(*paths)) == []

    def test_synthetic_corpus(self):
        assert tracked_rows(synth_corpus(4, SynthParams(n_dialogs=30, n_candidates=8))) == []

    def test_corpus_built_from_lists(self, hotel):
        assert tracked_rows(hotel) == []
        assert tracked_rows(Corpus({("d", "e"): [KnowledgeSnippet("d", "e", "0", "q?", "a.")]}, [])) == []

    def test_load_knowledge_adds_under_three_tracked_objects_per_entity(self, tmp_path):
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(synth_corpus(4, SynthParams(n_dialogs=400, n_candidates=32, vocab_size=128)), *paths)
        load_knowledge(paths[0])  # objects made once per process stay out of the count
        gc.collect()
        before = len(gc.get_objects())
        snippets, _ = load_knowledge(paths[0])
        gc.collect()
        assert len(gc.get_objects()) - before < 3 * len(snippets)


class TestSynthBytes:
    # The knowledge files synth wrote when each entity's snippets were a list of KnowledgeSnippet.
    @pytest.mark.parametrize("seed, params, digest", [
        (1, SynthParams(n_dialogs=20, n_candidates=4),
         "b044bec9e6b5e5d06378769b0c1bdaf706beae5914644fa162858a5e52220096"),
        (3, SynthParams(n_dialogs=12, n_candidates=64, vocab_size=288),
         "5a9ede27cdecbd40ec41e24b06bec8997c96114293681f9051510164541942cb"),
    ])
    def test_knowledge_file_is_unchanged(self, tmp_path, seed, params, digest):
        paths = [tmp_path / p for p in ("k.json", "l.json", "lb.json")]
        write_corpus(synth_corpus(seed, params), *paths)
        assert hashlib.sha256(paths[0].read_bytes()).hexdigest() == digest


class TestDomainTypes:
    def test_snippet_text_joins_title_and_body(self):
        snippet = KnowledgeSnippet("d", "e", "0", "q?", "a.")
        assert snippet.text == "q? a."
        assert snippet.ref == SnippetRef("d", "e", "0")

    def test_snippet_ref_is_a_snippet_ref(self):
        ref = KnowledgeSnippet("d", "e", "0", "q?", "a.").ref
        assert type(ref) is SnippetRef
        assert ref == SnippetRef("d", "e", "0") and hash(ref) == hash(SnippetRef("d", "e", "0"))
        assert ref._asdict() == {"domain": "d", "entity_id": "e", "doc_id": "0"}

    def test_snippet_is_an_immutable_tuple_of_its_fields(self):
        snippet = KnowledgeSnippet("d", "e", "0", "q?", "a.")
        assert snippet == ("d", "e", "0", "q?", "a.")
        assert hash(snippet) == hash(("d", "e", "0", "q?", "a."))
        assert snippet[3] == snippet.title
        with pytest.raises(AttributeError):
            snippet.title = "other?"

    def test_current_turn_is_last(self):
        dialog = DialogInstance(
            "d0000",
            (DialogTurn(Speaker.USER, "a"), DialogTurn(Speaker.SYS, "b"), DialogTurn(Speaker.USER, "c")),
        )
        assert dialog.current_turn.text == "c"

    def test_find_snippet(self, hotel):
        assert hotel.find_snippet(SnippetRef("hotel", "1", "3")).title.startswith("Is there a cost")
        assert hotel.find_snippet(SnippetRef("hotel", "1", "99")) is None
