"""Awareness-logic model checking, quotient-structure construction, and
translation verification.

The package root holds the names of README's Python API; everything else
is imported from its module (``awb.model``, ``awb.hms``, ``awb.harness``,
``awb.oracles``, ...)."""

from .formula import atoms_of, parse_ail, translate
from .model import EpistemicModel, sat_ail
from .hms import sat_hms
from .transform import hms_transform
from . import fixtures

__version__ = "0.1.0"
