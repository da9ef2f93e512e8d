"""Shared exception types and the default scale caps they enforce."""

# Descent-word counting over S_m costs C(m-1, d) words times O(m^2); the worst d
# takes about one interpreter start-up at S_15 (CPython 3.11, one core, in-process):
# census --n 6 (S_13) 0.021 s, --n 7 (S_15) 0.079 s, --n 8 (S_17) 0.29 s;
# verify alcoved-vs-dyck --k 2 --n 6 (S_13) 0.03 s, --n 7 (S_15) 0.10 s
DEFAULT_FACTORIAL_CAP = 15

# Volumes up to 43 coordinates take at most ~0.08 s, one interpreter start-up, on the
# banded lattice DP: the slowest shape at 43 is a middle level, Delta(16, 43) 0.07 s; at 32
# Delta(17, 32) 0.024 s and Delta(31, 32) 0.005 s; at 44 Delta(18, 44) takes 0.08-0.09 s
# (every level k of Delta(k, N) and every P_{k,n}, CPython 3.11, one core, best of 3)
DEFAULT_AMBIENT_CAP = 43


class ScaleCapError(Exception):
    """A computation was refused because it exceeds the configured scale cap."""


class InvariantError(Exception):
    """An internal invariant failed: a bug in the package, not bad input."""
