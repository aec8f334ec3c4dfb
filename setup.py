"""Build script for the optional compiled kernel.

The package is fully functional without the extension (a pure-Python twin
of the kernel is selected at import time), so any failure while compiling
tripcon._kernels._fast downgrades to a warning instead of aborting the
install.  Set TRIPCON_REQUIRE_FAST=1 to turn build failures into errors.
The extension is the hand-written C99 file _fast.c and needs only a C
compiler.
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

REQUIRE_FAST = os.environ.get("TRIPCON_REQUIRE_FAST", "") not in ("", "0")


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing entirely
            self._downgrade(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._downgrade(exc)

    def _downgrade(self, exc):
        if REQUIRE_FAST:
            raise
        print(
            f"warning: building {exc.__class__.__name__}: {exc}\n"
            "warning: tripcon compiled kernel unavailable; "
            "falling back to the pure-Python backend",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("tripcon._kernels._fast",
                           ["src/tripcon/_kernels/_fast.c"],
                           extra_compile_args=["-O3"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
