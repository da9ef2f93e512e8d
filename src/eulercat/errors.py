"""Shared exception types and the default scale caps they enforce."""

# Descent-word counting over S_m costs C(m-1, d) words times O(m^2); the worst d
# takes about one interpreter start-up at S_15 (CPython 3.11, one core, in-process):
# census --n 6 (S_13) 0.021 s, --n 7 (S_15) 0.079 s, --n 8 (S_17) 0.29 s;
# verify alcoved-vs-dyck --k 2 --n 6 (S_13) 0.03 s, --n 7 (S_15) 0.10 s
DEFAULT_FACTORIAL_CAP = 15

# Volumes up to 32 coordinates take at most ~0.1 s, one interpreter start-up: Delta(31, 32)
# 0.08 s, P_{2,15} 0.05 s; Delta(39, 40) takes 0.17 s (CPython 3.11, one core)
DEFAULT_AMBIENT_CAP = 32


class ScaleCapError(Exception):
    """A computation was refused because it exceeds the configured scale cap."""


class InvariantError(Exception):
    """An internal invariant failed: a bug in the package, not bad input."""
