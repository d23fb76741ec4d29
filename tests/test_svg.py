import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wedgedyn import (
    Endomorphism,
    TightMap,
    beta_breakpoints,
    beta_figure,
    rotation_set,
    rotset_figure,
)
from wedgedyn import svg
from wedgedyn.svg import _px

F = Fraction


def test_px_formatting():
    assert _px(1, 2) == "50"
    assert _px(0, 1) == "0"
    assert _px(-1, 1) == "-100"
    assert _px(1, 4) == "25"
    # 100/3 rounds at the fourth decimal, trailing zeros trimmed
    assert _px(1, 3) == "33.3333"
    assert _px(2, 3) == "66.6667"
    assert _px(-1, 3) == "-33.3333"
    assert _px(1, 800) == "0.125"
    assert _px(1, 1600) == "0.0625"
    # exact half-units round .5 up in magnitude of the scaled integer
    assert _px(1, 2000000) == "0.0001"


def _px_oracle(value):
    """Reference: the same half-up rounding done on a Fraction."""
    scaled = Fraction(value) * 100 * 10000
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:04d}".rstrip("0")


@given(st.integers(-10**12, 10**12),
       st.one_of(st.integers(1, 10**7), st.sampled_from([3, 7, 35, 1225, 3 * 2**20])))
# ties on the 4-decimal grid, in lowest terms and not
@example(1, 2_000_000)
@example(-1, 2_000_000)
@example(3, 2_000_000)
@example(-3, 2_000_000)
@example(2, 4_000_000)
@example(-5, 10_000_000)
@example(-14_000_001, 2_000_000)
def test_px_matches_fraction_oracle(num, den):
    assert _px(num, den) == _px_oracle(F(num, den))


# SHA-256 of two figures, pinned from the emitter that drew from Fractions:
# phi3's table has denominators 35^2, so its figure takes the 4-decimal
# rounding path that the power-of-two coordinates of phi2 never reach
BETA_PHI3_K2_SHA = "93af1a32933a86cb8e4ad7e02f4a3c5a4335924793313b7bb4fb58d49efaa38d"
ROTSET_PHI1_SHA = "671c53fa1a5ce58c37f5b73b0c3c3fe91d9afb9e7ae51bb8ddd0d1c7ff77ba2a"


def test_figure_pins(phi1, phi3):
    beta = beta_figure(beta_breakpoints(phi3, 2), window=1)
    assert "96.9796" in beta
    assert hashlib.sha256(beta.encode()).hexdigest() == BETA_PHI3_K2_SHA
    rotset = rotset_figure(rotation_set(phi1))
    assert hashlib.sha256(rotset.encode()).hexdigest() == ROTSET_PHI1_SHA


def test_beta_figure_window(phi2):
    no_deck = beta_figure(beta_breakpoints(phi2, 1), window=0)
    with_deck = beta_figure(beta_breakpoints(phi2, 1), window=1)
    assert 'class="deck"' not in no_deck
    assert 'class="deck"' in with_deck
    assert 'class="edge0"' in no_deck and 'class="edge1"' in no_deck
    assert 'class="alpha"' in no_deck
    # 8 deck offsets for window 1, 2 edges each
    assert with_deck.count('class="deck"') == 16


def test_beta_figure_rank_guard():
    m = TightMap(Endomorphism.from_strings(3, "aab", "bbc", "cca"))
    assert m.spectral.is_expanding
    with pytest.raises(ValueError):
        beta_figure(beta_breakpoints(m, 1))


def test_figures_deterministic(phi1, phi2):
    assert beta_figure(beta_breakpoints(phi2, 2)) == beta_figure(beta_breakpoints(phi2, 2))
    rep = rotation_set(phi1)
    assert rotset_figure(rep) == rotset_figure(rep)


def test_rotset_figure_marks(phi1):
    fig = rotset_figure(rotation_set(phi1))
    assert fig.count('class="fix"') == 6
    assert fig.count('class="per2"') == 4
    assert 'class="hull"' in fig


def test_render_formats_each_numerator_once(phi2, monkeypatch):
    # every deck translate shifts a numerator already drawn on another
    # polyline, so a numerator recurs across the canvas
    calls = []

    def counting_px(num, den):
        calls.append(num)
        return _px(num, den)

    monkeypatch.setattr(svg, "_px", counting_px)
    text = beta_figure(beta_breakpoints(phi2, 3), window=1)
    monkeypatch.undo()
    assert len(calls) == len(set(calls))
    assert text == beta_figure(beta_breakpoints(phi2, 3), window=1)
