"""The float layer's non-convergence, in a module that imports nothing.

``spectral`` and ``mero`` raise it; the command line maps it to exit 3
without loading numpy or scipy, which the exact commands never need.
"""


class NonConvergenceError(RuntimeError):
    """The extrapolation schedule did not settle within the requested bar,
    or a lattice column's tail quadrature did not converge."""
