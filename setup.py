"""Build script: compiles the optional C kernel extension.

The package works without the extension (the numpy kernel is selected at
import time), so the extension is marked optional: a missing compiler
degrades the install instead of failing it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "adaptive_kuramoto._kernels_c",
            ["src/adaptive_kuramoto/_kernels_c.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
