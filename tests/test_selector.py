import json
import math
import re
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import embedding, selector
from kgdial.corpus import (
    Corpus,
    DialogInstance,
    DialogTurn,
    KnowledgeSnippet,
    SnippetRef,
    Speaker,
    SynthParams,
    labeled_candidates,
    synth_corpus,
)
from kgdial.embedding import MAX_KNOWLEDGE_TOKENS, FileVectors, HashedGaussianVectors, _unit_rows, embed_pair
from kgdial.fixtures import HOTEL_QUESTION, hotel_corpus
from kgdial.selector import (
    EXACT_MU,
    EXACT_SIGMA,
    KERNEL_EPS,
    MAX_KERNELS,
    KernelBank,
    SelectionDistribution,
    SelectorHyper,
    SelectorModel,
    cross_node_attention,
    default_kernel_bank,
    kernel_features,
    load_selector,
    loss_gradient,
    node_features,
    rank,
    readout,
    selection_distribution,
    save_selector,
    selection_instances,
    selection_loss,
    train_selector,
    translation_matrix,
    _batch,
    _cross_entropy,
    _shifted_scores,
)

from helpers import (
    EmbedTokensOnly,
    FixedProvider,
    RawVectors,
    ScaledProvider,
    as_array,
    count_calls,
    finite_difference_gradient,
    first_kernel_features,
    first_probability_rule,
    first_unit_rows,
    naive_node_features,
    straight_line_softmax,
    truncated,
    with_field,
    with_literal,
)


def snippet(doc_id, title, body=""):
    return KnowledgeSnippet("d", "e", doc_id, title, body)


def two_kernel_bank():
    return KernelBank(np.array([0.0, EXACT_MU]), np.array([0.1, EXACT_SIGMA]))


def pair_of(provider, question, title, body=""):
    return embed_pair(provider, question, [snippet("0", title, body)])


class TestKernelBank:
    def test_default_bank_layout(self):
        bank = default_kernel_bank(11)
        np.testing.assert_allclose(bank.mus[:-1], np.arange(-0.9, 1.0, 0.2), atol=1e-12)
        np.testing.assert_allclose(bank.sigmas[:-1], 0.1)
        assert bank.mus[-1] == EXACT_MU
        assert bank.sigmas[-1] == EXACT_SIGMA
        assert bank.size == 11

    def test_two_kernel_bank(self):
        bank = default_kernel_bank(2)
        np.testing.assert_allclose(bank.mus, [0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            KernelBank(np.array([1.0]), np.array([EXACT_SIGMA]))
        with pytest.raises(ValueError, match="positive"):
            KernelBank(np.array([0.0, 1.0]), np.array([0.0, EXACT_SIGMA]))
        with pytest.raises(ValueError, match="positive and finite"):
            KernelBank(np.array([0.0, 1.0]), np.array([np.inf, EXACT_SIGMA]))
        with pytest.raises(ValueError, match="lie in"):
            KernelBank(np.array([-np.inf, 1.0]), np.array([0.1, EXACT_SIGMA]))
        with pytest.raises(ValueError, match="lie in"):
            KernelBank(np.array([-1.5, 1.0]), np.array([0.1, EXACT_SIGMA]))
        with pytest.raises(ValueError, match="exact-match"):
            KernelBank(np.array([1.0, 0.0]), np.array([EXACT_SIGMA, 0.1]))
        with pytest.raises(ValueError, match="exact-match"):
            KernelBank(np.array([1.0, 1.0]), np.array([EXACT_SIGMA, EXACT_SIGMA]))
        with pytest.raises(ValueError, match="n_kernels"):
            default_kernel_bank(1)

    def test_size_cap(self):
        assert default_kernel_bank(MAX_KERNELS).size == MAX_KERNELS
        with pytest.raises(ValueError, match=f"^n_kernels must be <= {MAX_KERNELS}, got {MAX_KERNELS + 1}$"):
            default_kernel_bank(MAX_KERNELS + 1)
        with pytest.raises(ValueError, match=f"^need at most {MAX_KERNELS} kernels, got {MAX_KERNELS + 1}$"):
            KernelBank(np.array([0.0] * MAX_KERNELS + [EXACT_MU]), np.array([0.1] * MAX_KERNELS + [EXACT_SIGMA]))


# Vector entries of magnitude 1e-3 to 1e10, log-uniform: a 1e150 scale-up overflows many squared norms.
nonzero_entries = st.tuples(st.floats(-3.0, 10.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[1] * 10.0 ** t[0])
scale_exponents = st.one_of(st.just(150.0), st.floats(0.0, 150.0))


class TestTranslationMatrix:
    def test_identical_vectors_give_1(self):
        provider = FixedProvider({"a": [3.0, 4.0]})
        matrix = translation_matrix(pair_of(provider, "a", "a"))
        np.testing.assert_allclose(matrix, [[1.0]])

    def test_orthogonal_vectors_give_0(self):
        provider = FixedProvider({"q": [1.0, 0.0], "k": [0.0, 1.0]})
        matrix = translation_matrix(pair_of(provider, "q", "k"))
        np.testing.assert_allclose(matrix, [[0.0]])

    def test_45_degree_pair(self):
        provider = FixedProvider({"q": [1.0, 1.0], "k": [1.0, 0.0]})
        matrix = translation_matrix(pair_of(provider, "q", "k"))
        assert abs(matrix[0, 0] - 1.0 / math.sqrt(2.0)) < 1e-8

    def test_zero_norm_vector_gives_0_entries(self):
        provider = FixedProvider({"q": [1.0, 1.0]})
        matrix = translation_matrix(pair_of(provider, "q oov", "q oov"))
        np.testing.assert_allclose(matrix[0, 0], 1.0, atol=1e-12)
        np.testing.assert_array_equal([matrix[0, 1], matrix[1, 0], matrix[1, 1]], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("knowledge, cosine", [([1e200, 0.0], 1.0 / math.sqrt(2.0)), ([1.0, 1.0], 1.0)])
    def test_overflowing_norm_keeps_cosine(self, knowledge, cosine):
        provider = FixedProvider({"q": [1e200, 1e200], "k": knowledge})
        before = provider.embed_tokens(["q", "k"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = translation_matrix(pair_of(provider, "q", "k"))
        assert abs(matrix[0, 0] - cosine) <= 1e-12
        # The overflowing rows are rescaled in a copy: the provider's rows are unchanged, and a second call agrees.
        np.testing.assert_array_equal(provider.embed_tokens(["q", "k"]), before)
        np.testing.assert_array_equal(translation_matrix(pair_of(provider, "q", "k")), matrix)

    @settings(deadline=None, max_examples=60)
    @given(
        vectors=st.lists(st.lists(nonzero_entries, min_size=3, max_size=3), min_size=2, max_size=6),
        exponents=st.tuples(scale_exponents, scale_exponents),
    )
    def test_scaling_up_to_1e150_keeps_cosines(self, vectors, exponents):
        # Token "q" embeds to the first vector, knowledge tokens "k1", "k2", ... to the others.
        tokens = ["q"] + [f"k{i}" for i in range(1, len(vectors))]

        def matrix(question_scale, knowledge_scale):
            scales = [question_scale] + [knowledge_scale] * (len(vectors) - 1)
            provider = FixedProvider({t: np.array(v) * c for t, v, c in zip(tokens, vectors, scales)})
            return translation_matrix(pair_of(provider, "q", " ".join(tokens[1:])))

        scaled = matrix(10.0 ** exponents[0], 10.0 ** exponents[1])
        np.testing.assert_allclose(scaled, matrix(1.0, 1.0), rtol=0, atol=1e-12)

    def test_entries_bounded(self):
        provider = HashedGaussianVectors(seed=1, dim=6)
        rng = np.random.default_rng(4)
        tokens = [f"t{i}" for i in range(30)]
        for _ in range(25):
            question = " ".join(rng.choice(tokens, size=5))
            title = " ".join(rng.choice(tokens, size=6))
            matrix = translation_matrix(pair_of(provider, question, title))
            assert matrix.shape == (5, 6)
            assert np.all(np.abs(matrix) <= 1.0 + 1e-9)


@st.composite
def row_matrices(draw):
    """1-8 rows of 2-8 entries; each row zero, of norm below 1e-12, of norm near 1e-12, ordinary, or overflowing."""
    d = draw(st.integers(2, 8))

    def entries(elements):
        return st.lists(elements, min_size=d, max_size=d)

    def at_norm(direction, norm):
        direction = np.array(direction)
        return direction / np.linalg.norm(direction) * norm

    directions = entries(st.floats(-1.0, 1.0)).filter(lambda v: any(abs(x) > 1e-3 for x in v))
    rows = st.one_of(
        entries(st.sampled_from([0.0, -0.0])),
        entries(st.floats(-1e-13, 1e-13)),  # subnormals and -0.0 among them
        st.builds(at_norm, directions, st.floats(5e-13, 2e-12)),
        entries(st.floats(-1e3, 1e3)),
        entries(st.floats(-1.7e308, 1.7e308)),
        st.builds(lambda v, big: [big, *v[1:]], entries(st.floats(-1e300, 1e300)), st.floats(1e155, 1.7e308)),
    )
    return np.array(draw(st.lists(rows, min_size=1, max_size=8)), dtype=float).reshape(-1, d)


class TestUnitRows:
    @settings(deadline=None, max_examples=300)
    @given(vectors=row_matrices())
    def test_equals_the_first_formula_bit_for_bit(self, vectors):
        before = vectors.copy()
        assert _unit_rows(vectors).tobytes() == first_unit_rows(vectors).tobytes()
        assert vectors.tobytes() == before.tobytes()


class TestKernelFeatures:
    def test_exact_kernel_single_match(self):
        features = kernel_features(np.array([[1.0]]), two_kernel_bank())
        assert features[-1] == 0.0

    def test_exact_kernel_two_matches_log2(self):
        features = kernel_features(np.array([[1.0, 1.0]]), two_kernel_bank())
        assert abs(features[-1] - math.log(2.0)) < 1e-8

    def test_centered_kernel_zero_contribution(self):
        bank = KernelBank(np.array([0.5, EXACT_MU]), np.array([0.5, EXACT_SIGMA]))
        features = kernel_features(np.array([[0.5]]), bank)
        assert features[0] == 0.0

    def test_epsilon_clamp_far_from_center(self):
        features = kernel_features(np.array([[-1.0]]), two_kernel_bank())
        assert features[-1] == math.log(KERNEL_EPS)

    @pytest.mark.parametrize("starts", [(0, 3, 2), (0, 0, 2), (1, 2), (0, 9), (0, 4), (), np.array([0, 2, 2])])
    def test_bad_starts_rejected(self, starts):
        with pytest.raises(ValueError, match="starts must begin at 0, strictly increase and stay below 4 columns"):
            kernel_features(np.zeros((1, 4)), two_kernel_bank(), starts)

    def test_valid_starts_accepted(self):
        matrix = np.array([[1.0, 1.0, -1.0, 1.0]])
        for starts in [(0,), (0, 3), np.array([0, 1, 2, 3])]:
            features = kernel_features(matrix, two_kernel_bank(), starts)
            assert features.shape == (len(starts), 2)

    def test_mean_over_query_rows(self):
        matrix = np.array([[1.0], [-1.0]])
        features = kernel_features(matrix, two_kernel_bank())
        assert abs(features[-1] - (0.0 + math.log(KERNEL_EPS)) / 2.0) < 1e-12

    # Questions of 8 or more rows are where numpy's mean summed a lone candidate's column pairwise.
    @settings(deadline=None, max_examples=100)
    @given(m=st.integers(1, 64), widths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           n_kernels=st.integers(2, 11), seed=st.integers(0, 2**32 - 1))
    def test_a_candidates_row_does_not_depend_on_the_others(self, m, widths, n_kernels, seed):
        rng = np.random.default_rng(seed)
        bank = default_kernel_bank(n_kernels)
        matrix = rng.uniform(-1.0, 1.0, (m, sum(widths)))
        matrix[rng.random(matrix.shape) < 0.2] = 1.0  # exact matches
        bounds = [0, *accumulate(widths)]
        pooled = kernel_features(matrix, bank, bounds[:-1])
        assert pooled.shape == (len(widths), n_kernels) and pooled.flags.c_contiguous
        for row, (a, b) in enumerate(zip(bounds, bounds[1:])):
            assert kernel_features(matrix[:, a:b], bank).tobytes() == pooled[row].tobytes()
            assert kernel_features(matrix[:, a:b], bank, (0,)).tobytes() == pooled[row : row + 1].tobytes()

    @settings(deadline=None, max_examples=100)
    @given(m=st.integers(1, 8), widths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           soft=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0)), min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_a_bank_from_lists_equals_a_bank_from_arrays_and_the_first_formula(self, m, widths, soft, seed):
        mus = [mu for mu, _ in soft] + [EXACT_MU]
        sigmas = [sigma for _, sigma in soft] + [EXACT_SIGMA]
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-1.0, 1.0, (m, sum(widths)))
        matrix[rng.random(matrix.shape) < 0.2] = 1.0
        starts = [0, *accumulate(widths[:-1])]
        expected = first_kernel_features(matrix, mus, sigmas, starts).tobytes()
        for bank in (KernelBank(mus, sigmas), KernelBank(np.array(mus), np.array(sigmas))):
            assert kernel_features(matrix, bank, starts).tobytes() == expected
            assert kernel_features(matrix, bank).tobytes() == first_kernel_features(matrix, mus, sigmas, (0,))[0].tobytes()


class TestNodeFeatures:
    def test_single_candidate_shape(self, provider7, bank11):
        features = node_features("q", [snippet("0", "k")], provider7, bank11)
        assert features.shape == (1, 11)

    def test_permuted_candidates_permute_rows(self, provider7, bank11):
        candidates = [snippet(str(i), f"token{i} extra{i}") for i in range(4)]
        base = node_features("token0 token2", candidates, provider7, bank11)
        permuted = node_features("token0 token2", candidates[::-1], provider7, bank11)
        np.testing.assert_array_equal(permuted, base[::-1])

    def test_matches_naive_oracle_on_hotel_fixture(self, provider7, bank11):
        corpus = hotel_corpus()
        candidates = corpus.snippets[("hotel", "1")]
        ours = node_features(HOTEL_QUESTION, candidates, provider7, bank11)
        oracle = naive_node_features(HOTEL_QUESTION, candidates, provider7, bank11)
        np.testing.assert_allclose(ours, oracle, atol=1e-10)

    def test_empty_candidates_rejected(self, provider7, bank11):
        with pytest.raises(ValueError, match="non-empty"):
            node_features("q", [], provider7, bank11)


class TestCrossNodeAttention:
    def test_single_node_passthrough(self):
        features = np.array([[0.3, -1.2, 5.0]])
        np.testing.assert_array_equal(cross_node_attention(features), features)

    def test_equal_nodes_unchanged(self):
        features = np.tile([[1.0, 2.0]], (3, 1))
        np.testing.assert_allclose(cross_node_attention(features), features)

    def test_hand_computed_2x2_case(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        e = math.exp(1.0 / math.sqrt(2.0))
        a_same = e / (e + 1.0)
        a_other = 1.0 / (e + 1.0)
        expected = np.array([[a_same, a_other], [a_other, a_same]])
        np.testing.assert_allclose(cross_node_attention(features), expected, atol=1e-10)

    def test_output_rows_are_convex_combinations(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((5, 11))
        mixed = cross_node_attention(features)
        assert mixed.shape == features.shape
        assert mixed.min() >= features.min() - 1e-12
        assert mixed.max() <= features.max() + 1e-12


class TestReadout:
    def test_equal_features_give_uniform(self):
        features = np.tile([[1.0, 2.0]], (2, 1))
        model = SelectorModel(two_kernel_bank(), np.array([0.7, -0.2]))
        np.testing.assert_allclose(readout(features, model).probabilities, [0.5, 0.5])

    def test_ln3_scores_give_three_quarters(self):
        features = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
        model = SelectorModel(two_kernel_bank(), np.array([1.0, 0.0]))
        dist = readout(features, model)
        np.testing.assert_allclose(dist.probabilities, [0.75, 0.25], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((6, 2))
        model = SelectorModel(two_kernel_bank(), np.array([1.0, 0.0]))
        base = readout(features, model).probabilities
        for constant in (-3.0, 0.5, 40.0):
            shifted = features.copy()
            shifted[:, 0] += constant
            moved = readout(shifted, model).probabilities
            np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_attention_flag_changes_result(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((4, 2))
        weights = np.array([1.0, -0.5])
        plain = readout(features, SelectorModel(two_kernel_bank(), weights))
        attended = readout(features, SelectorModel(two_kernel_bank(), weights, True))
        assert not np.allclose(plain.probabilities, attended.probabilities)
        np.testing.assert_allclose(
            attended.probabilities,
            readout(cross_node_attention(features), SelectorModel(two_kernel_bank(), weights)).probabilities,
        )

    @settings(deadline=None, max_examples=150)
    @given(
        features=st.integers(1, 12).flatmap(
            lambda l: st.lists(st.lists(st.floats(-25.0, 5.0), min_size=11, max_size=11), min_size=l, max_size=l)
        ),
        weights=st.lists(st.floats(-1.0, 1.0), min_size=11, max_size=11).map(np.array),
        scale=st.sampled_from([0.01, 1.0, 1e3]),  # spread or nearly one-hot distributions
        attention=st.booleans(),
    )
    def test_equals_the_straight_line_softmax(self, bank11, features, weights, scale, attention):
        features, weights = np.array(features), weights * scale
        dist = readout(features, SelectorModel(bank11, weights, attention))
        scores = (cross_node_attention(features) if attention else features) @ weights
        assert dist.scores.tobytes() == scores.tobytes()
        assert dist.probabilities.tobytes() == straight_line_softmax(scores).tobytes()

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SelectionDistribution(np.array([0.4, 0.4]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            SelectionDistribution(np.array([1.5, -0.5]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="candidates length"):
            SelectionDistribution(np.array([1.0]), np.array([0.0]), candidates=())


class TestSelectionLoss:
    def make_dist(self, scores):
        scores = np.asarray(scores, dtype=float)
        shifted = np.exp(scores - scores.max())
        return SelectionDistribution(shifted / shifted.sum(), scores)

    def test_concentrated_scores_vanishing_loss(self):
        assert selection_loss(self.make_dist([100.0, 0.0]), 0) < 1e-40

    def test_uniform_4_is_ln4(self):
        assert abs(selection_loss(self.make_dist([0.0] * 4), 2) - 1.38629436) < 1e-8

    def test_uniform_8_is_ln8(self):
        assert abs(selection_loss(self.make_dist([0.0] * 8), 0) - 2.07944154) < 1e-8

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            selection_loss(self.make_dist([0.0, 0.0]), 2)
        with pytest.raises(IndexError):
            selection_loss(self.make_dist([0.0, 0.0]), -1)


class TestLossGradient:
    def test_equal_features_zero_gradient(self):
        features = np.tile([[2.0, -1.0]], (3, 1))
        model = SelectorModel(two_kernel_bank(), np.array([0.4, 0.1]))
        np.testing.assert_allclose(loss_gradient(features, model, 1), [0.0, 0.0], atol=1e-15)

    def test_hand_algebra_padded_second_kernel(self):
        a, b, w0 = 1.0, -0.5, 0.3
        features = np.array([[a, 0.0], [b, 0.0]])
        model = SelectorModel(two_kernel_bank(), np.array([w0, 0.0]))
        za, zb = w0 * a, w0 * b
        p0 = math.exp(za) / (math.exp(za) + math.exp(zb))
        p1 = 1.0 - p0
        expected = [(p0 - 1.0) * a + p1 * b, 0.0]
        np.testing.assert_allclose(loss_gradient(features, model, 0), expected, atol=1e-10)

    def test_matches_finite_differences_both_attention_modes(self, bank11):
        rng = np.random.default_rng(12)
        for attention in (False, True):
            for _ in range(10):
                l = int(rng.integers(2, 6))
                features = rng.standard_normal((l, 11))
                weights = rng.standard_normal(11)
                golden = int(rng.integers(l))
                model = SelectorModel(bank11, weights, attention)

                def loss_at(w):
                    return selection_loss(
                        readout(features, SelectorModel(bank11, w, attention)), golden
                    )

                numeric = finite_difference_gradient(loss_at, weights)
                analytic = loss_gradient(features, model, golden)
                np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_index_out_of_range(self, bank11):
        model = SelectorModel(bank11, np.zeros(11))
        with pytest.raises(IndexError):
            loss_gradient(np.zeros((2, 11)), model, 5)

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        widths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        attention=st.booleans(),
        scale=st.sampled_from([0.0, 1.0, 40.0]),
    )
    def test_given_log_probabilities_replace_the_forward_pass_bit_for_bit(
        self, bank11, seed, widths, attention, scale
    ):
        rng = np.random.default_rng(seed)
        feature_list = [rng.standard_normal((l, 11)) * rng.choice([0.1, 1.0, 10.0]) for l in widths]
        golden = np.array([int(rng.integers(l)) for l in widths])
        model = SelectorModel(bank11, scale * rng.standard_normal(11), attention)
        # A padded batch, whose features were attended when it was built.
        features, mask = _batch(feature_list, attention)
        shifted, log_z = _shifted_scores(features, mask, model.readout_weights)
        expected = loss_gradient(features, model, golden, mask)
        assert loss_gradient(features, model, golden, mask, shifted - log_z).tobytes() == expected.tobytes()
        # One instance, attended by loss_gradient itself when the model's flag is set.
        features, mask = _batch(feature_list[:1], attention)
        shifted, log_z = _shifted_scores(features, mask, model.readout_weights)
        expected = loss_gradient(feature_list[0], model, int(golden[0]))
        given = loss_gradient(feature_list[0], model, int(golden[0]), None, (shifted - log_z)[0])
        assert given.tobytes() == expected.tobytes()

    def test_log_probabilities_of_another_shape_rejected(self, bank11):
        model = SelectorModel(bank11, np.zeros(11))
        features, mask = _batch([np.zeros((3, 11)), np.zeros((2, 11))], False)
        with pytest.raises(ValueError, match=r"log_probabilities must have shape \(2, 3\), got \(3,\)"):
            loss_gradient(features, model, np.array([0, 1]), mask, np.zeros(3))


class TestTrainSelector:
    def test_zero_lr_uniform_distributions(self, small_corpus, provider7):
        model, losses = train_selector(small_corpus, provider7, SelectorHyper(lr=0.0, epochs=3))
        np.testing.assert_array_equal(model.readout_weights, np.zeros(11))
        np.testing.assert_allclose(losses, math.log(4.0))
        instances = selection_instances(small_corpus, provider7, model.kernels)
        dist = readout(instances[0].features, model)
        np.testing.assert_allclose(dist.probabilities, 0.25)

    def test_deterministic(self, small_corpus, provider7):
        hyper = SelectorHyper(epochs=5)
        a, losses_a = train_selector(small_corpus, provider7, hyper)
        b, losses_b = train_selector(small_corpus, provider7, hyper)
        np.testing.assert_array_equal(a.readout_weights, b.readout_weights)
        assert losses_a == losses_b

    def test_final_loss_below_initial(self, small_selector):
        _, losses = small_selector
        assert losses[-1] < losses[0]
        assert len(losses) == 61

    def test_line_search_monotone(self, small_corpus, provider7):
        _, losses = train_selector(
            small_corpus, provider7, SelectorHyper(epochs=20, line_search=True)
        )
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_attention_flag_recorded(self, small_corpus, provider7):
        model, _ = train_selector(
            small_corpus, provider7, SelectorHyper(epochs=2, attention_flag=True)
        )
        assert model.attention_enabled is True

    def test_no_labeled_dialogs_rejected(self, provider7):
        corpus = synth_corpus(
            1, SynthParams(n_dialogs=5, n_candidates=2, vocab_size=8, detect_marker_rate=1.0)
        )
        with pytest.raises(ValueError, match="no labeled"):
            train_selector(corpus, provider7)

    def test_confident_model_trains_without_underflow(self, provider7):
        corpus = synth_corpus(1, SynthParams(n_dialogs=100))
        model, losses = train_selector(corpus, provider7, SelectorHyper(lr=50, epochs=2000))
        assert np.all(np.isfinite(model.readout_weights))
        assert len(losses) == 2001
        assert all(math.isfinite(loss) for loss in losses)


class TestScorableWeights:
    """A weight vector whose score spread could overflow is rejected; any other scores every candidate."""

    def test_a_fit_past_the_bound_raises_when_it_returns(self, provider7):
        corpus = synth_corpus(1, SynthParams(n_dialogs=20, n_candidates=4))
        with pytest.raises(ValueError, match=r"^readout_weights too large to score candidates: 46\.05 \* sum \|w\| overflows "):
            train_selector(corpus, provider7, SelectorHyper(lr=1e308, line_search=True))

    def test_a_file_past_the_bound_is_rejected_at_load(self, bank11, provider7, tmp_path):
        path = tmp_path / "selector.json"
        save_selector(SelectorModel(bank11, np.full(11, 1e306)), provider7, path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: readout_weights too large to score candidates"):
            load_selector(path)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n_candidates=st.integers(1, 8), attention=st.booleans())
    def test_weights_within_the_bound_score_candidates_at_the_feature_extremes(self, bank11, seed, n_candidates,
                                                                               attention):
        rng = np.random.default_rng(seed)
        extremes = [math.log(KERNEL_EPS), math.log(MAX_KNOWLEDGE_TOKENS)]
        features = rng.choice(extremes, (n_candidates, 11))
        weights = rng.standard_normal(11) * rng.choice([1.0, 1e-300], 11)
        weights *= np.finfo(float).max / selector.SCORE_SPREAD / np.abs(weights).sum() * (1 - 1e-9)
        selector.check_scorable(weights)
        with np.errstate(over="raise", invalid="raise"):
            dist = readout(features, SelectorModel(bank11, weights, attention))
        assert np.isfinite(dist.scores).all()
        with pytest.raises(ValueError, match="^readout_weights too large"):
            selector.check_scorable(2.0 * weights)


class TestSelectorHyper:
    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"lr": -0.5}, "lr must be finite and >= 0"),
        ({"lr": math.nan}, "lr must be finite and >= 0"),
        ({"lr": -math.inf}, "lr must be finite and >= 0"),
        ({"epochs": 10**12}, "epochs must be <= 1000000"),
    ])
    def test_bad_schedule_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SelectorHyper(**kwargs)


class TestBatchCore:
    def test_padded_batch_matches_per_instance_loop(self, bank11):
        rng = np.random.default_rng(21)
        sizes = (1, 3, 8, 3)
        feature_list = [rng.standard_normal((l, 11)) for l in sizes]
        golden = np.array([int(rng.integers(l)) for l in sizes])
        weights = rng.standard_normal(11)
        for attention in (False, True):
            model = SelectorModel(bank11, weights, attention)
            features, mask = _batch(feature_list, attention)
            assert features.shape == (4, 8, 11)
            loss = _cross_entropy(*_shifted_scores(features, mask, weights), golden)
            gradient = loss_gradient(features, model, golden, mask)
            expected_loss = sum(
                selection_loss(readout(f, model), int(g)) for f, g in zip(feature_list, golden)
            ) / len(sizes)
            expected_gradient = sum(
                loss_gradient(f, model, int(g)) for f, g in zip(feature_list, golden)
            ) / len(sizes)
            assert abs(loss - expected_loss) <= 1e-12
            np.testing.assert_allclose(gradient, expected_gradient, rtol=0, atol=1e-12)


# Tokens of the property test below; the vector file leaves the last two out of its vocabulary.
WORDS = ["w0", "w1", "w2", "w3", "w4", "oov"]


@pytest.fixture(scope="module")
def vector_providers(tmp_path_factory):
    path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
    path.write_text("w0 1 0 0\nw1 0 1 0\nw2 0.5 0.5 1\nw3 -1 2 0.25\n")
    return [HashedGaussianVectors(seed=7, dim=4), FileVectors(path)]


class TestBatchedNodeFeatures:
    """One batched pass over all candidates against the oracle and a per-candidate loop."""

    def check(self, question, candidates, provider, bank):
        features = node_features(question, candidates, provider, bank)
        assert features.shape == (len(candidates), bank.size)
        oracle = naive_node_features(question, candidates, provider, bank)
        np.testing.assert_allclose(features, oracle, rtol=0, atol=1e-10)
        looped = np.concatenate([node_features(question, [c], provider, bank) for c in candidates])
        np.testing.assert_allclose(features, looped, rtol=0, atol=1e-12)

    def test_ragged_widths_with_one_token_and_truncated_snippets(self, provider7, bank11):
        long_body = " ".join(f"w{i % 40}" for i in range(150))
        candidates = [
            snippet("0", "parking"),
            snippet("1", "is parking free", "yes at night"),
            snippet("2", "w3 w7", long_body),
            snippet("3", "pool"),
        ]
        self.check("is parking free at night w3", candidates, provider7, bank11)

    def test_question_longer_than_64_tokens(self, provider7, bank11):
        question = " ".join(f"q{i}" for i in range(80))
        candidates = [snippet("0", "q1 q70"), snippet("1", "q5 q63 x"), snippet("2", "z")]
        self.check(question, candidates, provider7, bank11)

    def test_out_of_vocabulary_zero_rows_from_file_vectors(self, tmp_path, bank11):
        path = tmp_path / "vectors.txt"
        path.write_text("parking 1 0 0\nfree 0 1 0\npool 0.5 0.5 1\n")
        provider = FileVectors(path)
        candidates = [snippet("0", "parking oov"), snippet("1", "unknown words"), snippet("2", "pool free")]
        self.check("is parking free", candidates, provider, bank11)

    def test_64_candidates(self, provider7, bank11):
        rng = np.random.default_rng(64)
        words = [f"t{i}" for i in range(40)]
        candidates = [
            snippet(str(i), " ".join(rng.choice(words, size=int(rng.integers(1, 9)))))
            for i in range(64)
        ]
        self.check("t1 t2 t3 t4 t5", candidates, provider7, bank11)

    @settings(deadline=None, max_examples=25)
    @given(case=st.data())
    def test_matches_oracle_and_per_segment_pooling(self, vector_providers, bank11, case):
        def text(n_tokens):
            return " ".join(case.draw(st.lists(st.sampled_from(WORDS), min_size=n_tokens, max_size=n_tokens)))

        provider = case.draw(st.sampled_from(vector_providers))
        question = text(case.draw(st.one_of(st.integers(1, 8), st.integers(65, 80))))
        lengths = case.draw(st.lists(st.one_of(st.just(1), st.integers(2, 12), st.integers(129, 140)),
                                     min_size=1, max_size=8))
        candidates = [snippet(str(i), text(n)) for i, n in enumerate(lengths)]
        self.check(question, candidates, provider, bank11)
        pair = embed_pair(provider, question, candidates)
        matrix = translation_matrix(pair)
        bounds = [*pair.knowledge_starts, pair.p]
        pooled = kernel_features(matrix, bank11, pair.knowledge_starts)
        for row, (a, b) in enumerate(zip(bounds, bounds[1:])):
            np.testing.assert_array_equal(pooled[row], kernel_features(matrix[:, a:b], bank11))


# Tokens of the selection-instance property below: the vector file leaves "w4" and "oov" out of its
# vocabulary, and "big"'s squared norm overflows, which takes the rescaling branch.
BATCH_WORDS = ["w0", "w1", "w2", "w3", "w4", "oov", "big"]


@pytest.fixture(scope="module")
def batch_providers(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch") / "vectors.txt"
    path.write_text("w0 1 0 0\nw1 0 1 0\nw2 0.5 0.5 1\nw3 -1 2 0.25\nbig 1e200 -3e199 5e199\n")
    return [HashedGaussianVectors(seed=7, dim=4), FileVectors(path)]


def assert_instances_match_requests(corpus, provider, bank):
    """Every instance's features equal node_features of its dialog, bit for bit, in corpus order."""
    instances = selection_instances(corpus, provider, bank)
    targets = [d for d in corpus.dialogs if d.target]
    assert len(instances) == len(targets)
    for instance, dialog in zip(instances, targets):
        candidates = corpus.snippets[(dialog.golden.domain, dialog.golden.entity_id)]
        expected = node_features(dialog.current_turn.text, candidates, provider, bank)
        assert instance.features.shape == expected.shape
        assert np.array_equal(instance.features, expected)
        assert candidates[instance.golden_index].doc_id == dialog.golden.doc_id


class TestSelectionInstances:
    """A pass over a corpus is the request path, dialog by dialog, and fills and reads the knowledge index."""

    @settings(deadline=None, max_examples=40)
    @given(case=st.data())
    def test_each_row_equals_the_request_path(self, batch_providers, bank11, case):
        def text(n_tokens):
            return " ".join(case.draw(st.lists(st.sampled_from(BATCH_WORDS), min_size=n_tokens, max_size=n_tokens)))

        provider = case.draw(st.sampled_from(batch_providers))
        snippets, dialogs = {}, []
        for i in range(case.draw(st.integers(1, 10))):
            lengths = case.draw(st.lists(st.one_of(st.integers(1, 12), st.integers(129, 140)), min_size=1, max_size=5))
            entity = ("d", f"e{i}")
            snippets[entity] = [KnowledgeSnippet(*entity, str(j), text(n), "") for j, n in enumerate(lengths)]
            # Question lengths cross the 64-token cut; an unlabeled dialog is skipped.
            turn = (DialogTurn(Speaker.USER, text(case.draw(st.integers(1, 70)))),)
            if case.draw(st.booleans()):
                golden = SnippetRef(*entity, str(case.draw(st.integers(0, len(lengths) - 1))))
                dialogs.append(DialogInstance(f"d{i:04d}", turn, True, golden))
            else:
                dialogs.append(DialogInstance(f"d{i:04d}", turn))
        assert_instances_match_requests(Corpus(snippets, dialogs), provider, bank11)

    def test_unit_tables_give_the_rows_of_a_provider_without_one(self, tmp_path, provider7, bank11):
        corpus = synth_corpus(801, SynthParams(n_dialogs=60, n_candidates=8))
        # Odd tokens are out of the file's vocabulary; w00 overflows, w02 is zero and w04 underflows.
        path = tmp_path / "vectors.txt"
        path.write_text("w00 1e200 -3e199 5e199\nw02 0 0 0\nw04 1e-200 2e-200 -1e-200\n"
                        + "".join(f"w{j:02d} {1 + j % 5} {j % 7 - 3} {j % 3 - 1}\n" for j in range(6, 64, 2)))
        for provider in (provider7, FileVectors(path)):
            fake = EmbedTokensOnly(RawVectors(provider))
            pairs = zip(selection_instances(corpus, provider, bank11), selection_instances(corpus, fake, bank11))
            for table, gathered in pairs:
                assert table.features.tobytes() == gathered.features.tobytes()
            for dialog, candidates in zip(corpus.dialogs[:20], corpus.snippets.values()):
                expected = node_features(dialog.current_turn.text, candidates, fake, bank11)
                assert node_features(dialog.current_turn.text, candidates, provider, bank11).tobytes() == expected.tobytes()

    def test_one_embed_pair_per_dialog_and_a_second_pass_reads_the_index(self, monkeypatch, provider7, bank11):
        corpus = synth_corpus(801, SynthParams(n_dialogs=60, n_candidates=8))
        pairs = count_calls(monkeypatch, embedding, "embed_pair")
        products = count_calls(monkeypatch, selector, "translation_matrix")
        instances = selection_instances(corpus, provider7, bank11)
        assert len(pairs) == len(products) == len(instances) == len(list(labeled_candidates(corpus))) > 0
        # Every entity's snippets were tokenized on the first pass; the second tokenizes only questions.
        tokenized = count_calls(monkeypatch, embedding, "_knowledge_tokens")
        again = selection_instances(corpus, provider7, bank11)
        assert tokenized == []
        assert [i.features.tobytes() for i in again] == [i.features.tobytes() for i in instances]
        assert [i.golden_index for i in again] == [i.golden_index for i in instances]

    def test_non_finite_embedding_rejected(self, bank11):
        corpus = hotel_corpus()
        provider = FixedProvider({"parking": [np.inf, 1.0], "free": [1.0, 0.0]})
        for featurize in (lambda: selection_instances(corpus, provider, bank11),
                          lambda: node_features("is parking free", corpus.snippets[("hotel", "1")], provider, bank11)):
            with pytest.raises(ValueError, match="embedding entries must be finite"):
                featurize()


class TestRank:
    def test_single_candidate_probability_1(self, provider7):
        bank = two_kernel_bank()
        model = SelectorModel(bank, np.array([0.0, 1.0]))
        ranked = rank(model, provider7, "q", [snippet("0", "k")])
        assert ranked == [(snippet("0", "k").ref, 1.0)]

    def test_hotel_fixture_exact_match_weights_pick_duplicate(self, provider7, bank11):
        corpus = hotel_corpus()
        weights = np.zeros(11)
        weights[-1] = 1.0
        model = SelectorModel(bank11, weights)
        ranked = rank(model, provider7, HOTEL_QUESTION, corpus.snippets[("hotel", "1")])
        assert ranked[0][0].doc_id == "0"

    def test_permutation_invariance(self, provider7, bank11):
        rng = np.random.default_rng(3)
        candidates = [snippet(str(i), f"alpha{i} beta{i}") for i in range(6)]
        model = SelectorModel(bank11, rng.standard_normal(11))
        base = dict(rank(model, provider7, "alpha0 beta3", candidates))
        top = rank(model, provider7, "alpha0 beta3", candidates)[0][0]
        for _ in range(5):
            order = rng.permutation(6)
            shuffled = [candidates[i] for i in order]
            permuted = dict(rank(model, provider7, "alpha0 beta3", shuffled))
            assert permuted.keys() == base.keys()
            for ref, probability in base.items():
                assert abs(permuted[ref] - probability) < 1e-12
            assert rank(model, provider7, "alpha0 beta3", shuffled)[0][0] == top

    def test_probabilities_sum_to_1(self, provider7, bank11):
        model = SelectorModel(bank11, np.ones(11) * 0.1)
        candidates = [snippet(str(i), f"t{i}") for i in range(7)]
        ranked = rank(model, provider7, "t0 t3", candidates)
        assert abs(sum(p for _, p in ranked) - 1.0) < 1e-9

    def test_ties_keep_candidate_index_order(self, provider7, bank11):
        model = SelectorModel(bank11, np.zeros(11))
        candidates = [snippet(str(i), f"t{i}") for i in range(4)]
        ranked = rank(model, provider7, "q", candidates)
        assert [ref.doc_id for ref, _ in ranked] == ["0", "1", "2", "3"]

    def test_refs_are_the_candidates_snippet_refs(self, provider7, bank11):
        model = SelectorModel(bank11, np.zeros(11))
        candidates = [KnowledgeSnippet("hotel", "1", str(i), f"t{i}", "b") for i in range(3)]
        ranked = rank(model, provider7, "q", candidates)
        assert [ref for ref, _ in ranked] == [c.ref for c in candidates]
        assert all(type(ref) is SnippetRef for ref, _ in ranked)


# Entries at the edges of the float range, and ordinary ones.
edge_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1.0 + 1e-12, 1.0 - 1e-12,
                     2.0, 1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
)


@st.composite
def near_unit_sums(draw):
    """Vectors of entries >= 0 summing to 1, then moved so their sum lands within or just outside 1e-9 of 1."""
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)))
    p = raw / raw.sum() if raw.sum() > 0 else np.full(raw.size, 1.0 / raw.size)
    i = draw(st.integers(0, p.size - 1))
    p[i] = max(p[i] + draw(st.sampled_from([0.0, 5e-10, 9.99e-10, 1e-9, 1.001e-9, 2e-9, -5e-10, -1e-9, -1.001e-9])), 0.0)
    for _ in range(draw(st.integers(0, 3))):  # a few ulps either way, to straddle the bound
        p[i] = np.nextafter(p[i], draw(st.sampled_from([0.0, 2.0])))
    return p


class TestSelectionDistribution:
    @settings(deadline=None, max_examples=600)
    @given(p=st.one_of(st.lists(edge_entries, min_size=1, max_size=10).map(np.array), near_unit_sums()))
    def test_accepts_exactly_what_the_first_rule_accepted_without_a_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                SelectionDistribution(p, np.zeros(p.size))
                accepted = True
            except ValueError as error:
                assert "sum to 1" in str(error)
                accepted = False
        assert accepted == first_probability_rule(p)

    @pytest.mark.parametrize("p", [[1e308, 1e308], [1.7976931348623157e308] * 2, [0.25, 1e308, 0.25, 1e308]])
    def test_an_overflowing_sum_is_rejected_without_a_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to 1"):
                SelectionDistribution(np.array(p), np.zeros(len(p)))

    def test_an_entry_just_above_1_is_accepted(self):
        assert SelectionDistribution(np.array([1.0 + 1e-12]), np.zeros(1)).size == 1

    def test_carries_the_given_candidates_in_order(self, provider7, bank11):
        model = SelectorModel(bank11, np.linspace(-1.0, 1.0, 11))
        candidates = [snippet(str(i), f"t{i}") for i in (3, 0, 2, 1)]
        dist = selection_distribution(model, provider7, "t2 t1", candidates)
        assert dist.candidates == tuple(candidates)
        assert all(a is b for a, b in zip(dist.candidates, candidates))


class TestScaleInvariance:
    def test_scaled_embeddings_leave_probabilities_unchanged(self, bank11):
        base = HashedGaussianVectors(seed=2, dim=12)
        candidates = [snippet(str(i), f"w{i} v{i}") for i in range(5)]
        model = SelectorModel(bank11, np.linspace(-1.0, 1.0, 11))
        reference = readout(node_features("w0 v2", candidates, base, bank11), model).probabilities
        for factor in (1e-3, 1e3):
            scaled = ScaledProvider(base, factor)
            probabilities = readout(
                node_features("w0 v2", candidates, scaled, bank11), model
            ).probabilities
            np.testing.assert_allclose(probabilities, reference, atol=1e-9)


# A small alphabet, so that questions and snippets share tokens.
texts = st.lists(st.sampled_from(["room", "wifi", "free", "park", "pool", "pet"]), min_size=1,
                 max_size=6).map(" ".join)


@st.composite
def questions_and_candidates(draw):
    """A question, 1-12 snippets and a permutation of the snippets."""
    candidates = [snippet(str(i), draw(texts), draw(texts)) for i in range(draw(st.integers(1, 12)))]
    return draw(texts), candidates, draw(st.permutations(candidates))


def weight_vectors(bound):
    return st.lists(st.floats(-bound, bound), min_size=11, max_size=11).map(np.array)


@pytest.mark.parametrize("attention", [False, True])
class TestInvarianceProperties:
    @settings(deadline=None, max_examples=30)
    @given(case=questions_and_candidates(), weights=weight_vectors(3.0))
    def test_candidate_order(self, provider7, bank11, attention, case, weights):
        question, candidates, shuffled = case
        model = SelectorModel(bank11, weights, attention)
        base = dict(rank(model, provider7, question, candidates))
        permuted = dict(rank(model, provider7, question, shuffled))
        assert permuted.keys() == base.keys()
        for ref, probability in base.items():
            assert abs(permuted[ref] - probability) <= 1e-12

    @settings(deadline=None, max_examples=30)
    @given(case=questions_and_candidates(), factor=st.floats(1e-3, 1e3))
    def test_embedding_scale(self, provider7, bank11, attention, case, factor):
        question, candidates, _ = case
        reference = node_features(question, candidates, provider7, bank11)
        scaled = node_features(question, candidates, ScaledProvider(provider7, factor), bank11)
        np.testing.assert_allclose(scaled, reference, rtol=0, atol=1e-9)
        model = SelectorModel(bank11, np.linspace(-1.0, 1.0, 11), attention)
        np.testing.assert_allclose(
            readout(scaled, model).probabilities, readout(reference, model).probabilities,
            rtol=0, atol=1e-9,
        )

    @settings(deadline=None, max_examples=30)
    @given(
        features=st.integers(1, 12).flatmap(
            lambda l: st.lists(st.lists(st.floats(-25.0, 5.0), min_size=11, max_size=11),
                               min_size=l, max_size=l)
        ),
        weights=weight_vectors(1e3),
    )
    def test_readout_normalization(self, bank11, attention, features, weights):
        model = SelectorModel(bank11, weights, attention)
        probabilities = readout(np.array(features), model).probabilities
        assert np.all(np.isfinite(probabilities))
        assert np.all(probabilities >= 0.0)
        assert abs(probabilities.sum() - 1.0) <= 1e-9


class TestSelectorModelValidation:
    def test_weight_length_checked(self, bank11):
        with pytest.raises(ValueError, match="length"):
            SelectorModel(bank11, np.zeros(7))

    def test_finite_weights_required(self, bank11):
        with pytest.raises(ValueError, match="finite"):
            SelectorModel(bank11, np.full(11, np.nan))


class TestPersistence:
    def test_round_trip_with_hashed_provider(self, small_selector, provider7, tmp_path):
        model, _ = small_selector
        path = tmp_path / "selector.json"
        save_selector(model, provider7, path)
        loaded, loaded_provider = load_selector(path)
        np.testing.assert_array_equal(loaded.readout_weights, model.readout_weights)
        np.testing.assert_array_equal(loaded.kernels.mus, model.kernels.mus)
        np.testing.assert_array_equal(loaded.kernels.sigmas, model.kernels.sigmas)
        assert loaded.attention_enabled == model.attention_enabled
        np.testing.assert_array_equal(loaded_provider.embed("x"), provider7.embed("x"))

    def test_round_trip_with_file_provider(self, bank11, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat 1 0\ndog 0 1\n")
        provider = FileVectors(vectors)
        model = SelectorModel(bank11, np.arange(11, dtype=float))
        path = tmp_path / "selector.json"
        save_selector(model, provider, path)
        loaded, loaded_provider = load_selector(path)
        np.testing.assert_array_equal(loaded.readout_weights, model.readout_weights)
        np.testing.assert_array_equal(loaded_provider.embed("dog"), [0.0, 1.0])

    @pytest.mark.parametrize("name, stored", [
        pytest.param("vëctörs 東京.txt", "vëctörs 東京.txt", id="utf8"),
        pytest.param("v\udcff.txt", "v\\udcff.txt", id="byte-not-utf8"),
    ])
    def test_non_ascii_vectors_path_round_trips(self, bank11, tmp_path, name, stored):
        """A non-ASCII path is stored as UTF-8; a path byte that is not UTF-8, as the escape of its surrogate."""
        vectors = tmp_path / name
        vectors.write_text("cat 1 0\ndog 0 1\n")
        path = tmp_path / "selector.json"
        save_selector(SelectorModel(bank11, np.zeros(11)), FileVectors(vectors), path)
        assert f'"path": "{tmp_path}/{stored}"'.encode("utf-8") in path.read_bytes()
        _, loaded_provider = load_selector(path)
        assert loaded_provider.describe() == {"kind": "file-vectors", "path": str(vectors), "dim": 2}

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "selector.json"
        path.write_text(json.dumps({"mus": [0.0, 1.0]}))
        with pytest.raises(ValueError, match="missing field"):
            load_selector(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(as_array, "expected a JSON object", id="array"),
        pytest.param(with_field("attention_flag", "false"),
                     "'attention_flag' must be true or false, got 'false'", id="string-flag"),
        pytest.param(with_field("provider", "x"), "'provider' must be an object, got 'x'", id="provider"),
        pytest.param(with_field("sigmas", [-0.1] * 11), "sigmas must be positive", id="kernel-bank"),
        pytest.param(with_field("readout_weights", [0.0]),
                     "readout_weights must have length 11", id="selector-model"),
        pytest.param(with_field("provider", {"kind": "glove"}),
                     "unknown provider kind 'glove'", id="provider-kind"),
        pytest.param(with_field("provider", {"kind": "hashed-gaussian", "seed": "7", "dim": 32}),
                     "provider 'seed' must be an integer, got '7'", id="string-seed"),
        pytest.param(with_field("provider", {"kind": "hashed-gaussian", "seed": 7, "dim": 32.7}),
                     "provider 'dim' must be an integer, got 32.7", id="fraction-dim"),
        pytest.param(with_field("provider", {"kind": "hashed-gaussian", "seed": False, "dim": 32}),
                     "provider 'seed' must be an integer, got False", id="bool-seed"),
        pytest.param(with_field("provider", {"kind": "hashed-gaussian", "seed": 2**64, "dim": 32}),
                     "seed must lie in [-2**63, 2**63), got 18446744073709551616", id="65-bit-seed"),
        pytest.param(with_field("provider", {"kind": "file-vectors", "path": 0}),
                     "provider 'path' must be a string, got 0", id="descriptor-path"),
        pytest.param(with_field("provider", {"kind": "file-vectors", "path": "missing.txt", "dim": True}),
                     "provider 'dim' must be an integer, got True", id="bool-vectors-dim"),
        pytest.param(with_field("provider", {"kind": "file-vectors", "path": "missing.txt"}),
                     "missing field 'dim'", id="vectors-without-dim"),
        pytest.param(with_field("mus", ["0.1"] * 11), "'mus' must be an array of numbers", id="string-mus"),
        pytest.param(with_field("mus", [float("nan")] + [0.0] * 9 + [1.0]), "mus must lie in [-1, 1]", id="nan-mu"),
        pytest.param(with_field("sigmas", [float("nan")] * 10 + [1e-3]), "sigmas must be positive", id="nan-sigma"),
        pytest.param(with_field("sigmas", [True] * 11), "'sigmas' must be an array of numbers", id="bool-sigmas"),
        pytest.param(with_field("readout_weights", ["0"] * 10 + [False]),
                     "'readout_weights' must be an array of numbers", id="string-and-bool-weights"),
        pytest.param(with_field("readout_weights", 0.5),
                     "'readout_weights' must be an array of numbers", id="scalar-weights"),
        pytest.param(truncated, "parse error at line", id="truncated"),
        pytest.param(with_literal("sigmas", 0, "1e400"), "sigmas must be positive and finite", id="infinite-sigma"),
    ])
    def test_malformed_file_names_its_path(self, bank11, provider7, tmp_path, edit, message):
        path = tmp_path / "selector.json"
        save_selector(SelectorModel(bank11, np.zeros(11)), provider7, path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError) as info:
            load_selector(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
