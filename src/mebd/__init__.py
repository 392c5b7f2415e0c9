"""Minimal entanglement of bipartite decompositions (MEBD) for spin-1/2 chains."""

__version__ = "0.1.0"

from . import dynamics, entanglement, hilbert, linalg, model  # noqa: F401
from .entanglement import double_negativity, enumerate_bipartitions, mebd  # noqa: F401
from .hilbert import Bipartition, SiteSet  # noqa: F401
from .model import CouplingKind, build_hdz  # noqa: F401
