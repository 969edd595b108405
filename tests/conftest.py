import pytest
from hypothesis import settings

from qknot.braid import parse_braid
from qknot.cli import load_corpus

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def corpus_braids(corpus):
    return {e.name: parse_braid(e.word, strands=e.strands) for e in corpus}


# the seven knots of the benchmark workloads: 3_1, 4_1, 5_1, 5_2, 6_1, 6_2, 6_3
BENCHMARK_WORDS = (
    "1 1 1",
    "1 -2 1 -2",
    "1 1 1 1 1",
    "1 1 1 2 -1 2",
    "1 1 2 -1 -3 2 -3",
    "1 1 1 -2 1 -2",
    "1 1 -2 1 -2 -2",
)


@pytest.fixture(scope="session")
def benchmark_rotations():
    """Every cyclic rotation of every benchmark knot's word, as text."""
    out = []
    for word in BENCHMARK_WORDS:
        letters = word.split()
        out += [" ".join(letters[r:] + letters[:r]) for r in range(len(letters))]
    return out
