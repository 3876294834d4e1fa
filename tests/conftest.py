"""Shared fixtures: the compiled walk kernel, built once per test session and
bound as `gwalk.kernel`'s one library, so every walk, every W, every count
tree and every discounted sum of the tests runs on the library that the
commands run.

When the package already carries a built library, the fixtures use it.
Otherwise (running from `PYTHONPATH=src` without building) `kernel_library`
compiles `src/gwalk/_walk.c` with the repo's own `setup.py` recipe into a
temporary directory, and the session binds it with the package's own
loader, `gwalk.kernel.load_kernel`. A compile error fails the tests.
Without a C compiler nothing is bound: the tests that ask for
`compiled_run_walk` skip, and a walk or a W through the kernel stops with
the package's build message.
"""

import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from gwalk import kernel

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def kernel_library(tmp_path_factory):
    """Path of a built walk-kernel library, or None without a C compiler."""
    if kernel.LIBRARY.is_file():
        return kernel.LIBRARY
    tmp = tmp_path_factory.mktemp("walk-kernel")
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return None
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "obj")],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"compiling the walk kernel failed:\n{proc.stderr}")
    return tmp / "lib" / "gwalk" / kernel.LIBRARY.name


@pytest.fixture(scope="session", autouse=True)
def production_kernel(kernel_library):
    """The built library bound through `kernel.load_kernel` for the whole
    session; returns `kernel.run_walk`, or None without a C compiler."""
    if kernel_library is not None:
        kernel.load_kernel(kernel_library)
        return kernel.run_walk


@pytest.fixture(scope="session")
def compiled_run_walk(production_kernel):
    if production_kernel is None:
        pytest.skip("no C compiler to build the walk kernel")
    return production_kernel
