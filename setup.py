"""Build script: compiles the plain-C walk kernel `src/gwalk/_walk.c`.

The result is the shared library `gwalk/_walk<EXT_SUFFIX>`. It holds no
Python API: `gwalk.kernel` loads it through ctypes. A failed compile fails
the build.

Build and run a source checkout from its root:

    python setup.py build_ext --inplace
    PYTHONPATH=src python -m gwalk.cli theorem2 --config configs/two_point_sub.json

or install the package (`pip install .`), which builds the library too. The
commands that run walks or read W (`theorem1`, `theorem2`, `theorem3`,
`corollary`, `lemma-moments`) stop with a message naming the build command
when the library is not built; the others run without it. The tests build
the library for their session when the checkout has none.

Keep -ffp-contract=off and add no -ffast-math or -march=native: the kernel
must turn a hash into a uniform and compare it against the step tables
exactly as the tests' Python reference `tests/pykernel.py` does, and sum
potentials exactly as the numpy reference of W does, or bit-parity breaks.
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
