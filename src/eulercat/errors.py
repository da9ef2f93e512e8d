"""Shared exception types and the one work cap, counted in cells, that they enforce."""

# A cell is one entry that an engine fills: a rank-row entry of the descent-word walk, or
# a DP-row entry or band window of the Ehrhart count.  The cap sits between the largest
# Delta(k, 43), Delta(22, 43) with 419,122 cells (0.04-0.06 s), and Delta(22, 44) with
# 459,889, so `volume` admits every slice the old 43-coordinate cap did; census-vs-volumes
# fills 354k cells at --n 7 and 1.02M at --n 8.  The walk fills 3-5M cells/s and the DP
# 6-10M, so the walk's costliest admitted count, census --n 30 (399,775 cells), takes
# 0.08-0.13 s (CPython 3.11, shared 2-vCPU machine, in-process, best of 3)
WORK_CAP = 440_000


class ScaleCapError(Exception):
    """A computation was refused because it exceeds the work cap."""


class Budget:
    """The cells one command fills, over all its engine calls; past `limit` it refuses."""

    __slots__ = ("limit", "filled")

    def __init__(self, limit: int | None = WORK_CAP):
        self.limit = limit
        self.filled = 0

    def charge(self, cells: int) -> None:
        self.filled += cells
        if self.limit is not None and self.filled > self.limit:
            raise ScaleCapError(f"the work passes the cap of {self.limit} cells")


# the running command's budget, which cli.main sets and restores; outside a command it
# has no limit, so a library call is counted but never refused
budget = Budget(None)


def charge(cells: int) -> None:
    """Charge the running command's budget: every engine fills cells here."""
    budget.charge(cells)


class InvariantError(Exception):
    """An internal invariant failed: a bug in the package, not bad input."""


class DegenerateDimensionError(ValueError):
    """A polytope is empty or lower-dimensional, so it has no normalized volume."""
