"""Backend selection for the regular-subgroup search kernel.

The compiled Cython kernel and the pure-Python fallback keep one contract:
the same records in the same order, the same node count, and the same
partial result under a node budget (tests/test_kernel_backends.py checks
it, in full and under budgets).  Whichever is available is picked at import
time.  Set HOLOSCREEN_PURE=1 to force the fallback (useful for the
differential tests and the benchmark).
"""

import os

from . import pure

if os.environ.get("HOLOSCREEN_PURE") == "1":
    backend = pure
    HAVE_COMPILED = False
else:
    try:
        from . import _fiber as backend  # type: ignore[attr-defined]

        HAVE_COMPILED = True
    except ImportError:
        backend = pure
        HAVE_COMPILED = False

search_regular = backend.search_regular
BACKEND_NAME = "compiled" if HAVE_COMPILED else "pure"
