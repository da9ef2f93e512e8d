"""Shared exception types and the default scale caps they enforce."""

# Descent-word counting over S_m walks the words letter by letter and lists none of them:
# in-process, census --n 7 (S_15) takes about 1 ms and --by-position 3.4 ms.  The cap
# stays at S_15 because the costliest command it admits, verify census-vs-volumes --n 7,
# also computes 128 Ehrhart volumes and takes about 0.3 s end to end, a few interpreter
# start-ups (CPython 3.11, one core, best of 3)
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
