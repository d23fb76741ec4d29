import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wedgedyn.words
from wedgedyn import Endomorphism, Letter, RankMismatch, Word


def test_module_doctests():
    result = doctest.testmod(wedgedyn.words)
    assert result.attempted > 0 and result.failed == 0


def test_letter_basics():
    a = Letter(0, 1)
    assert str(a) == "a" and str(a.inverse()) == "A"
    assert Letter(1, -1).inverse() == Letter(1, 1)


def test_parse_and_reduce():
    w = Word.parse("aA", 2)
    assert len(w.letters) == 0 and str(w) == "1"
    w = Word.parse("abBA", 2)
    assert str(w) == "1"
    w = Word.parse("aabAB", 2)
    assert str(w) == "aabAB"
    with pytest.raises(RankMismatch):
        Word.parse("abc", 2)


def test_word_group_ops():
    u = Word.parse("ab", 2)
    v = Word.parse("Ba", 2)
    assert str(u * v) == "aa"
    assert str(u.inverse()) == "BA"
    assert (u * u.inverse()).letters == ()
    assert u.abelian_vector(2) == (1, 1)
    assert Word.parse("aabAB", 2).abelian_vector(2) == (1, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), max_size=12))
def test_reduction_properties(pairs):
    letters = tuple(Letter(g, s) for g, s in pairs)
    w = Word(letters)
    # reduction is idempotent and w * w^-1 is trivial
    assert Word(w.letters).letters == w.letters
    assert (w * w.inverse()).letters == ()
    # abelian vector survives reduction
    vec = [0, 0, 0]
    for g, s in pairs:
        vec[g] += s
    assert w.abelian_vector(3) == tuple(vec)


def test_endomorphism_apply_and_power(phi2):
    e = phi2.endo
    assert str(e.apply(Word.parse("a", 2))) == "aaab"
    p2 = e.power(2)
    assert str(p2.images[0]) == "aaabaaabaaabbbba"
    assert str(p2.images[1]) == "bbbabbbabbbaaaab"
    assert e.power(0).images[0] == Word.parse("a", 2)
    assert e.power(1).images == e.images


def test_endomorphism_errors(phi2):
    a, b = Word.parse("a", 2), Word.parse("b", 2)
    with pytest.raises(RankMismatch, match="1 rules for rank 2"):
        Endomorphism(2, (a,))
    with pytest.raises(RankMismatch, match="generator outside the rank"):
        Endomorphism(1, (Word.parse("ab", 2),))
    assert Endomorphism(2, (b, a)).images == (b, a)
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        phi2.endo.power(-1)


def test_abelianize(phi1, phi2, phi3):
    assert phi2.endo.abelianize().rows == ((3, 1), (1, 3))
    assert phi3.endo.abelianize().rows == ((6, 1), (1, 6))
    assert phi1.endo.abelianize().rows == ((1, 0), (0, 1))


def test_uniform_expansion(phi1, phi2, phi3):
    assert phi2.endo.uniform_expansion() == 4
    assert phi3.endo.uniform_expansion() == 7
    assert phi1.endo.uniform_expansion() == 5
    ident = Endomorphism.from_strings(2, "a", "b")
    assert ident.uniform_expansion() is None  # M must exceed 1
    cancelling = Endomorphism.from_strings(2, "ab", "Ba")
    assert cancelling.uniform_expansion() is None
