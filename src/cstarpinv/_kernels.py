"""Name of the SVD routine behind every factorization.

All factors come from LAPACK through :func:`cstarpinv.pinv.svd_factor`;
there is no other kernel and no backend to select.
"""

__all__ = ["kernel_name", "orthogonalize_columns"]


def kernel_name():
    """Name of the SVD routine: always ``lapack``."""
    return "lapack"


def orthogonalize_columns(*args, **kwargs):
    """Placeholder for the removed Jacobi kernel; the package never calls it.

    It exists only because ``e2ebench/tracing.py`` installs a span on this
    name, until a benchmark change retargets the ``kernels.*`` layer metrics
    to ``pinv.svd_factor.*``.
    """
    raise NotImplementedError("no column kernel exists; SVDs come from pinv.svd_factor")
