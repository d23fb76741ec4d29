"""wedgedyn: exact homological invariants of expanding wedge-of-circles maps.

The package computes Bowen-Franks groups of integer matrices, realizes free
group endomorphisms as tight maps on a wedge of b circles, and certifies
shadowing and injectivity questions for the induced semiconjugacy onto the
torus, all in exact rational arithmetic.
"""

from .bf import BFElement, BFGroup, TorusPoint, enumerate_fixed, psi, upsilon
from .errors import (
    AdaptedNormUnavailable,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateRule,
    NotDivisible,
    NotExpanding,
    NontrivialHomologyAction,
    ParseError,
    RankMismatch,
    RootOfUnitySpectrum,
    SingularMatrix,
    UndeclaredGenerator,
    WedgedynError,
)
from .dsl import MapSpec, parse
from .graphmap import (
    Chart,
    CoverPoint,
    GraphPoint,
    PeriodicPoint,
    SigmaReport,
    TightMap,
    VERTEX,
    cover_point,
    graph_point,
    iota,
)
from .intmat import IntMatrix, SnfDecomposition, rat_inverse, snf
from .polys import char_poly, has_root_of_unity_factor
from .rotation import (
    Loop,
    RotationSetReport,
    hull_vertices,
    minimal_loops,
    rotation_set,
)
from .semiconj import (
    BetaApproximation,
    InjectivityCertificate,
    beta_breakpoints,
    holder_bound,
    shadow_pairs,
    tail_bound,
)
from .spectra import Eigenvalue, LipschitzNormData, SpectralReport, rational_sqrt_upper, spectral
from .svg import beta_figure, rotset_figure
from .words import Endomorphism, Letter, Word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
