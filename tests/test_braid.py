import pytest
from hypothesis import given, strategies as st

from qknot.braid import (
    BraidParseError,
    BraidWord,
    closure_is_knot,
    cyclic_rotations,
    markov_moves,
    parse_braid,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda i: i != 0)
words = st.lists(letters, min_size=1, max_size=10)


def braid_of(ls):
    return parse_braid(" ".join(str(i) for i in ls))


def closure_component_count(b):
    seen = set()
    components = 0
    for start in range(b.strands):
        if start in seen:
            continue
        components += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = b.permutation[i]
    return components


def test_parse_basic_fields():
    b = parse_braid("1 -2 1 -2")
    assert b.strands == 3
    assert b.length == 4
    assert b.writhe == 0
    assert b.signs == (1, -1, 1, -1)
    assert b.to_text() == "1 -2 1 -2"


def test_parse_explicit_strands():
    b = parse_braid("1 1 1", strands=4)
    assert b.strands == 4
    assert not closure_is_knot(b)


def test_parse_errors():
    with pytest.raises(BraidParseError):
        parse_braid("abc")
    with pytest.raises(BraidParseError):
        parse_braid("0")
    with pytest.raises(BraidParseError):
        parse_braid("3", strands=3)
    with pytest.raises(BraidParseError):
        parse_braid("")
    assert issubclass(BraidParseError, ValueError)


def test_empty_word_with_explicit_strands():
    b = parse_braid("", strands=1)
    assert b.length == 0
    assert closure_is_knot(b)


@given(words)
def test_parse_to_text_roundtrip(ls):
    b = braid_of(ls)
    assert parse_braid(b.to_text()) == b
    assert b.strands == max(abs(i) for i in ls) + 1
    assert b.writhe == sum(1 if i > 0 else -1 for i in ls)


def test_closure_knot_examples(corpus_braids):
    for b in corpus_braids.values():
        assert closure_is_knot(b)
    assert not closure_is_knot(parse_braid("1 1"))
    assert not closure_is_knot(parse_braid("1", strands=3))


@given(words)
def test_closure_knot_iff_permutation_is_single_cycle(ls):
    b = braid_of(ls)
    assert closure_is_knot(b) == (closure_component_count(b) == 1)


@given(words)
def test_permutation_is_a_permutation(ls):
    b = braid_of(ls)
    assert sorted(b.permutation) == list(range(b.strands))


@given(words, st.integers(min_value=1, max_value=2), st.sampled_from([1, -1]))
def test_markov_moves_preserve_closure_knot(ls, g, gsign):
    b = braid_of(ls)
    conj = markov_moves(b, "conjugate", gsign * min(g, b.strands - 1))
    assert closure_is_knot(conj) == closure_is_knot(b)
    assert conj.writhe == b.writhe
    assert conj.strands == b.strands
    assert conj.length <= b.length + 2
    for move, delta in (("stabilize_positive", 1), ("stabilize_negative", -1)):
        stab = markov_moves(b, move)
        assert closure_is_knot(stab) == closure_is_knot(b)
        assert stab.writhe == b.writhe + delta
        assert stab.strands == b.strands + 1
        assert stab.length == b.length + 1


@given(words)
def test_reversal_and_mirror_preserve_closure_knot(ls):
    b = braid_of(ls)
    assert closure_is_knot(b.reversed_word()) == closure_is_knot(b)
    assert closure_is_knot(b.mirror()) == closure_is_knot(b)
    assert b.reversed_word().writhe == b.writhe
    assert b.mirror().writhe == -b.writhe
    assert b.reversed_word().reversed_word() == b
    assert b.mirror().mirror() == b


def test_cyclic_rotations_are_distinct_and_start_with_the_word():
    def texts(word, strands=None):
        return [w.to_text() for w in cyclic_rotations(parse_braid(word, strands))]

    assert texts("1 1 2 -1") == ["1 1 2 -1", "1 2 -1 1", "2 -1 1 1", "-1 1 1 2"]
    assert texts("1 -2 1 -2") == ["1 -2 1 -2", "-2 1 -2 1"]
    assert texts("1 1 1") == ["1 1 1"]
    assert texts("", strands=1) == [""]


@given(words)
def test_rotations_keep_strands_writhe_and_closure(ls):
    b = braid_of(ls)
    rotations = cyclic_rotations(b)
    assert rotations[0] == b and len(set(rotations)) == len(rotations)
    assert {w.word for w in rotations} == {b.word[r:] + b.word[:r] for r in range(b.length)}
    for w in rotations:
        assert (w.strands, w.writhe) == (b.strands, b.writhe)
        assert closure_component_count(w) == closure_component_count(b)


def test_markov_moves_reject_bad_arguments():
    b = parse_braid("1 1 1")
    with pytest.raises(ValueError):
        markov_moves(b, "untwist")
    with pytest.raises(ValueError):
        markov_moves(b, "conjugate")
    with pytest.raises(ValueError):
        markov_moves(b, "conjugate", 0)
    with pytest.raises(ValueError):
        markov_moves(b, "conjugate", b.strands)


def test_stabilization_appends_new_generator():
    b = parse_braid("1 1 1")
    assert markov_moves(b, "stabilize_positive").to_text() == "1 1 1 2"
    assert markov_moves(b, "stabilize_negative").to_text() == "1 1 1 -2"
