"""Exact enumeration engine for Eulerian-Catalan numbers, Dyck permutations,
cyclic-shift exceedance equidistribution, and alcoved-polytope volumes."""

from .numbers import catalan, eulerian, fuss_eulerian_catalan

__all__ = [
    "catalan",
    "eulerian",
    "fuss_eulerian_catalan",
]
