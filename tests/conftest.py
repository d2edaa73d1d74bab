import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ctxlens.dist import TokenDistribution

#: Property tests run a fixed example sequence and keep no example database.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def rand_dist(rng: np.random.Generator, vocab: int, zeros: bool = False) -> TokenDistribution:
    """Random point on the simplex; optionally with some zero entries."""
    w = rng.random(vocab)
    if zeros and vocab > 2:
        k = int(rng.integers(1, vocab - 1))
        idx = rng.choice(vocab, size=k, replace=False)
        w[idx] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return TokenDistribution.from_weights(w)


@st.composite
def dists(draw, max_vocab: int = 2000) -> TokenDistribution:
    """Distributions with zeros and exact ties, small or large.

    Small ones are drawn weight by weight from a few integer levels and free
    floats; large ones come from a drawn seed, with weights snapped to a
    drawn number of levels so that many entries tie.
    """
    if draw(st.booleans()):
        level = st.integers(0, 3).map(float)
        weights = draw(st.lists(st.one_of(level, st.floats(0.0, 1.0)), min_size=1, max_size=24))
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vocab = draw(st.integers(1, max_vocab))
        weights = gen.random(vocab) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
        levels = draw(st.sampled_from([0, 3, 50]))
        if levels:
            weights = np.floor(weights * levels)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    return TokenDistribution.from_weights(weights)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
