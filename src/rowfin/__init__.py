"""Exact arithmetic for row-finite infinite matrices over pluggable base rings."""

from .matrices import (FinVec, RowFiniteMap, add_maps, compose, first_mismatch,
                       from_rows, from_sparse, identity_map, matrix_unit,
                       same_map, scalar_map, to_sparse, zero_map)
from .rings import BaseRing, parse_ring_spec

__all__ = [
    "BaseRing", "FinVec", "RowFiniteMap", "add_maps", "compose",
    "first_mismatch", "from_rows", "from_sparse", "identity_map",
    "matrix_unit", "parse_ring_spec", "same_map", "scalar_map",
    "to_sparse", "zero_map",
]

__version__ = "0.1.0"
