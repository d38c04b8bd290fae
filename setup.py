"""Build script for the optional compiled search kernel.

The package is pure Python except for one hot spot: the fiber-transversal
closure search used to enumerate regular subgroups of a holomorph.  That
kernel exists twice, once in Cython (holoscreen._kernel._fiber) and once in
plain Python (holoscreen._kernel.pure).  The two keep one contract, not one
set of statements: the same records in the same order, the same node count,
and the same partial result under a node budget, which
tests/test_kernel_backends.py checks.  If the extension cannot be built the
install still succeeds and the package falls back to the pure version at
import time.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print("=" * 70)
        print("WARNING: could not build the compiled search kernel:")
        print("  %s" % (exc,))
        print("holoscreen will use the pure-Python fallback (slower).")
        print("=" * 70)


ext_modules = []
if os.environ.get("HOLOSCREEN_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [
                Extension(
                    "holoscreen._kernel._fiber",
                    ["src/holoscreen/_kernel/_fiber.pyx"],
                )
            ],
            language_level="3",
        )
    except ImportError:
        print("Cython not available; skipping the compiled search kernel.")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
