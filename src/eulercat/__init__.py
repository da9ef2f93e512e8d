"""Exact enumeration engine for Eulerian-Catalan numbers, Dyck permutations,
cyclic-shift exceedance equidistribution, and alcoved-polytope volumes."""
