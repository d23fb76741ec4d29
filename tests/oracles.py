"""Test oracles that the library itself has no use for."""

import itertools

from wedgedyn import BFElement, DimensionMismatch, TorusPoint


def elements(g):
    """All elements of the BF group g, in lexicographic order of their SNF
    coordinates."""
    for r in itertools.product(*(range(d) for d in g.diagonal)):
        yield BFElement(g, r)


def phi_apply(a, p):
    """The toral endomorphism induced by the integer matrix a, applied once
    to the torus point p."""
    if a.dim != len(p.coords):
        raise DimensionMismatch("matrix and point dimensions differ")
    return TorusPoint(a.apply(p.coords))
