import pytest
from hypothesis import settings

from kgdial.corpus import SynthParams, synth_corpus
from kgdial.detection import DetectorHyper, train_detector
from kgdial.embedding import HashedGaussianVectors
from kgdial.fixtures import hotel_corpus
from kgdial.selector import SelectorHyper, default_kernel_bank, train_selector

# Property tests draw the same examples on every run and machine, so that two
# runs of the suite (say, before and after a change) test the same cases.
settings.register_profile("kgdial", derandomize=True)
settings.load_profile("kgdial")


@pytest.fixture(scope="session")
def hotel():
    return hotel_corpus()


@pytest.fixture(scope="session")
def provider7():
    return HashedGaussianVectors(seed=7, dim=32)


@pytest.fixture(scope="session")
def bank11():
    return default_kernel_bank(11)


@pytest.fixture(scope="session")
def small_corpus():
    """60 dialogs, 4 candidates: quick to train on in non-acceptance tests."""
    return synth_corpus(5, SynthParams(n_dialogs=60, n_candidates=4, vocab_size=32))


@pytest.fixture(scope="session")
def small_selector(small_corpus, provider7):
    model, losses = train_selector(
        small_corpus, provider7, SelectorHyper(epochs=60)
    )
    return model, losses


@pytest.fixture(scope="session")
def small_detector(small_corpus):
    model, losses = train_detector(small_corpus, DetectorHyper(epochs=60))
    return model, losses
