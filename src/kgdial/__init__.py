"""Knowledge-grounded dialog toolkit.

Three stages over FAQ-style knowledge bases: detect whether the current user
turn needs external knowledge, select the matching snippet with Gaussian
kernel match features over question-knowledge cosine similarities, and
serialize the result for a downstream response generator. Ships corpus
loading and synthesis, a TF-IDF baseline, evaluation metrics, and a CLI.
"""

__version__ = "0.1.0"
