"""Build script: compiles the plain-C walk kernel `src/gwalk/_walk.c`.

The result is the shared library `gwalk/_walk<EXT_SUFFIX>`. It holds no
Python API: `gwalk.kernel` loads it through ctypes. In a source checkout,
build it in place with `python setup.py build_ext --inplace`. A failed compile
fails the build. Without the library the package still runs, on the
pure-Python kernel `_pykernel`, after one warning.

Keep -ffp-contract=off and add no -ffast-math or -march=native: the kernel
must turn a hash into a uniform and compare it against the step tables
exactly as `_pykernel` does, or bit-parity breaks.
"""

from setuptools import Extension, setup

COMPILE_ARGS = ["-O3", "-std=c99", "-ffp-contract=off"]

setup(
    ext_modules=[
        Extension(
            "gwalk._walk",
            ["src/gwalk/_walk.c"],
            extra_compile_args=COMPILE_ARGS,
        )
    ]
)
