import ast
from pathlib import Path

import pytest
from hypothesis import settings

from qknot.braid import cyclic_rotations, parse_braid
from qknot.cli import load_corpus
from qknot.verma_oracle import _NumericTables

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
    """Every distinct cyclic rotation of every benchmark knot's word, as text."""
    return [w.to_text() for word in BENCHMARK_WORDS for w in cyclic_rotations(parse_braid(word))]


@pytest.fixture
def overflowing_float_sum(monkeypatch):
    """Scale every float braiding coefficient by 1e300, so that the float
    state sum of a braid of a few crossings overflows at small N."""
    coeff = _NumericTables.coeff
    monkeypatch.setattr(_NumericTables, "coeff",
                        lambda self, *args: tuple(1e300 * part for part in coeff(self, *args)))


@pytest.fixture(scope="session")
def package_imports():
    """The qknot modules that a source file imports, read from its syntax
    tree; it must import the package only relatively."""

    def read(path):
        local = set()
        for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                local.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom):
                assert node.module.split(".")[0] != "qknot", node.module
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "qknot" for a in node.names)
        return local

    return read
