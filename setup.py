"""Build script: compiles the plain-C kernel `src/gwalk/_walk.c`.

The result is the shared library `gwalk/_walk<EXT_SUFFIX>`. It holds no
Python API: `gwalk.kernel` loads it through ctypes. A failed compile fails
the build.

Build and run a source checkout from its root:

    python setup.py build_ext --inplace
    PYTHONPATH=src python -m gwalk.cli theorem2 --config configs/two_point_sub.json

or install the package (`pip install .`), which builds the library too.
Every command but `validate-law` walks, reads W, draws count trees or draws
discounted sums in the library, and stops with a message naming the build
command when it is not built. The tests build the library for their session
when the checkout has none.

Every draw of the package runs in the library, on its own PCG64 generator
(`gwalk.kernel.PCG64`), through numpy's own distributions, linked from the
static `libnpyrandom.a` that numpy ships in `numpy/random/lib` (found
without importing numpy): the count trees' gamma and Poisson
(`random_standard_gamma`, `random_poisson`), the discounted sums' uniforms
(`random_standard_uniform_fill`), and the bounded integers and multinomial
rows of the rest (`random_bounded_uint64_fill`, `random_multinomial`). The
generator's streams, numpy's SeedSequence and PCG64, are computed by the
package itself and equal numpy's on any numpy version, since numpy keeps
them fixed. The distributions' draws equal those of the numpy Generator
seeded alike only when the numpy the library was built against is the
numpy it runs with; rebuild after changing numpy.

On Linux the library is linked with `-Wl,--exclude-libs,ALL` (GNU ld and
lld accept it), which keeps the symbols of the static libraries it links
local: numpy's `random_*` functions stay inside, and the library exports
only its own entry points, the functions that `gwalk.kernel._ENTRY_POINTS`
binds. Elsewhere numpy's symbols are exported too, and ctypes' local
binding keeps them from clashing.

`-g0` comes last among the compile flags, so it overrides the `-g` that
sysconfig's CFLAGS add: nothing reads the library's debug information, and
leaving it out cuts gcc's CPU time on `_walk.c` from about 0.43 to 0.35 s
(median of 7, gcc 12.2, 2-vCPU VM). It does not change the code: the
`.text` sections of objects built with `-g` and with `-g -g0` are
byte-identical.

Keep -ffp-contract=off and add no -ffast-math or -march=native: the kernel
must turn a hash into a uniform and compare it against the step tables
exactly as the tests' Python reference `tests/pykernel.py` does, and sum
potentials, form Poisson rates and add spine increments exactly as the
numpy references do, or bit-parity breaks.
"""

import sys
from importlib.util import find_spec
from pathlib import Path

from setuptools import Extension, setup

COMPILE_ARGS = ["-O3", "-std=c99", "-ffp-contract=off", "-g0"]
NUMPY_RANDOM_LIB = Path(find_spec("numpy").submodule_search_locations[0], "random", "lib")
LINK_ARGS = ["-Wl,--exclude-libs,ALL"] if sys.platform == "linux" else []

setup(
    ext_modules=[
        Extension(
            "gwalk._walk",
            ["src/gwalk/_walk.c"],
            extra_compile_args=COMPILE_ARGS,
            library_dirs=[str(NUMPY_RANDOM_LIB)],
            libraries=["npyrandom", "m"],
            extra_link_args=LINK_ARGS,
        )
    ]
)
