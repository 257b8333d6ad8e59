"""The shared descent loop against the loop that runs every epoch.

``_descend`` stops at the first epoch that leaves the weights unchanged; its
weights and loss trajectory must be bit-equal to those of running all epochs.
A fixed step whose loss is not finite ends it with one ValueError, and so
does a line search that keeps no trial at epoch 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial import detection, selector
from kgdial.corpus import SynthParams, synth_corpus
from kgdial.descent import _descend
from kgdial.detection import train_detector
from kgdial.selector import SelectorHyper, train_selector

from helpers import naive_descend


def logistic_problem(seed: int, n: int, k: int):
    """Mean binary log loss and its gradient on random features and labels."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, k)) * rng.choice([0.1, 1.0, 10.0])
    labels = rng.integers(0, 2, n).astype(float)
    signs = 1.0 - 2.0 * labels

    def loss(weights):
        return float(np.logaddexp(0.0, signs * (features @ weights)).mean())

    def gradient(weights):
        z = features @ weights
        residual = np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z))) - labels
        return features.T @ residual / n

    return loss, gradient


class TestDescend:
    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        lr=st.sampled_from([0.0, 0.5, 1e6]),
        epochs=st.integers(0, 60),
        line_search=st.booleans(),
    )
    def test_matches_the_loop_that_runs_every_epoch(self, seed, n, k, lr, epochs, line_search):
        loss, gradient = logistic_problem(seed, n, k)
        w0 = np.zeros(k)
        expected_weights, expected_losses = naive_descend(loss, gradient, w0, lr, epochs, line_search)
        if line_search and epochs and expected_weights is w0:  # no trial kept at epoch 1, so none after it
            with pytest.raises(ValueError, match="^line search rejected all 60 steps at epoch 1"):
                _descend(loss, gradient, w0, lr, epochs, line_search)
            return
        weights, losses = _descend(loss, gradient, w0, lr, epochs, line_search)
        assert len(losses) == epochs + 1
        assert weights.tobytes() == expected_weights.tobytes()
        assert np.array(losses).tobytes() == np.array(expected_losses).tobytes()

    def test_a_step_that_rounds_away_ends_the_loop(self):
        loss, gradient = logistic_problem(1, 8, 3)
        calls = []
        weights, losses = _descend(loss, lambda w: calls.append(w) or gradient(w), np.zeros(3), 0.0, 50, False)
        assert len(calls) == 1
        assert losses == [loss(np.zeros(3))] * 51
        assert weights.tobytes() == np.zeros(3).tobytes()

    def test_a_line_search_that_rejects_every_try_at_epoch_1_raises(self):
        w0 = np.array([1.0, -2.0])
        trials = []

        def loss(weights):
            trials.append(weights)
            return float(weights @ weights)

        # Even the 60th halving of 2**70 moves the weights uphill, so every try is scored and rejected.
        with pytest.raises(ValueError, match=r"^line search rejected all 60 steps at epoch 1, down to lr / 2\*\*59; "
                                             r"lower the learning rate \(--lr\)$"):
            _descend(loss, lambda w: -2.0 * w, w0, 2.0**70, 30, True)
        assert len(trials) == 1 + 60

    def test_a_line_search_that_rejects_every_try_ends_the_loop(self):
        w0 = np.array([1.0, -2.0])
        calls = []

        def gradient(weights):
            # Epoch 1's step of 2**70 halves w0; from then on the direction points uphill, and even
            # the 60th halving of 2**70 moves the weights, so every try is scored and rejected.
            calls.append(weights)
            return weights * 2.0**-71 if weights @ weights > 2.0 else -2.0 * weights

        weights, losses = _descend(lambda w: float(w @ w), gradient, w0, 2.0**70, 30, True)
        assert len(calls) == 2
        assert weights.tolist() == [0.5, -1.0]
        assert losses == [5.0] + [1.25] * 30

    def test_a_fixed_step_that_overflows_raises_naming_the_epoch(self):
        loss, gradient = logistic_problem(1, 8, 3)
        with pytest.raises(ValueError, match=r"^training diverged at epoch 1: the loss is (nan|inf); lower "):
            _descend(loss, gradient, np.zeros(3), 1e308, 5, False)

    def test_a_fixed_step_that_diverges_later_raises_at_the_epoch_it_overflows(self):
        # Each step doubles |w| and flips its sign, so the loss 4**epoch overflows at epoch 512.
        quadratic = (lambda w: float(w @ w), lambda w: 2.0 * w)
        with pytest.raises(ValueError, match=r"^training diverged at epoch 512: the loss is inf; "):
            _descend(*quadratic, np.ones(1), 1.5, 600, False)
        _, losses = _descend(*quadratic, np.ones(1), 1.5, 600, True)
        assert losses[1] == 0.25 and all(b <= a for a, b in zip(losses, losses[1:]))

    def test_a_line_search_rejects_trials_whose_loss_is_not_finite(self):
        # From w = 1e150 (loss 1e300), the steps 2**20 down to 2**13 overshoot past 1e154 and the
        # loss overflows to inf; 2**12 down to 2 overshoot less and raise it; 1 gives -1e150.
        trial_losses = []

        def loss(weights):
            value = float(weights @ weights)
            trial_losses.append(value)
            return value

        weights, losses = _descend(loss, lambda w: 2.0 * w, np.array([1e150]), 2.0**20, 1, True)
        assert trial_losses[1:9] == [math.inf] * 8 and all(map(math.isfinite, trial_losses[9:]))
        assert len(trial_losses) == 1 + 21
        assert weights.tolist() == [-1e150]
        assert losses == [trial_losses[0]] * 2


class TestTrainersStopAtTheFixedPoint:
    """The default selector fit stops early; every trainer still returns what running all epochs returns."""

    @pytest.fixture(scope="class")
    def c6_corpus(self):
        return synth_corpus(42, SynthParams(n_dialogs=200, n_candidates=8))

    def test_default_selector_computes_at_most_two_gradients(self, c6_corpus, provider7, monkeypatch):
        calls = []
        gradient = selector.loss_gradient
        monkeypatch.setattr(selector, "loss_gradient", lambda *args: calls.append(args) or gradient(*args))
        _, losses = train_selector(c6_corpus, provider7)
        assert len(calls) <= 2
        assert len(losses) == SelectorHyper().epochs + 1

    def test_attention_line_search_fit_scores_each_weight_vector_once(self, c6_corpus, provider7, monkeypatch):
        """The forward pass runs once per loss evaluation; the gradient reuses the kept trial's."""
        forward_passes, loss_evaluations, gradients = [], [], []
        shifted_scores, descend, gradient = selector._shifted_scores, selector._descend, selector.loss_gradient
        monkeypatch.setattr(selector, "_shifted_scores", lambda *args: forward_passes.append(1) or shifted_scores(*args))
        monkeypatch.setattr(selector, "loss_gradient", lambda *args: gradients.append(1) or gradient(*args))
        monkeypatch.setattr(selector, "_descend", lambda loss, *rest: descend(
            lambda w: loss_evaluations.append(1) or loss(w), *rest))
        train_selector(c6_corpus, provider7, SelectorHyper(attention_flag=True, line_search=True))
        assert len(gradients) == SelectorHyper().epochs
        assert len(forward_passes) == len(loss_evaluations) > len(gradients)

    @pytest.mark.parametrize("module, train", [
        pytest.param(selector, lambda corpus, provider: train_selector(corpus, provider), id="selector-default"),
        pytest.param(selector, lambda corpus, provider: train_selector(
            corpus, provider, SelectorHyper(attention_flag=True, line_search=True)), id="selector-attention-ls"),
        pytest.param(detection, lambda corpus, provider: train_detector(corpus), id="detector-default"),
    ])
    def test_trainer_matches_the_loop_that_runs_every_epoch(self, c6_corpus, provider7, monkeypatch, module, train):
        model, losses = train(c6_corpus, provider7)
        monkeypatch.setattr(module, "_descend", naive_descend)
        expected_model, expected_losses = train(c6_corpus, provider7)
        weights = "readout_weights" if module is selector else "weights"
        assert getattr(model, weights).tobytes() == getattr(expected_model, weights).tobytes()
        assert np.array(losses).tobytes() == np.array(expected_losses).tobytes()
