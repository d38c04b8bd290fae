"""The regular-subgroup search kernel.

``search_regular`` is looked up here at call time, so a tracer can wrap it
by name.  The search itself lives in :mod:`.pure`, whose notes describe it.
"""

from .pure import search_regular

# The benchmark reports these, and skips its compiled-versus-pure
# comparison when HAVE_COMPILED is false; there is one kernel, in pure.py.
BACKEND_NAME = "pure"
HAVE_COMPILED = False
