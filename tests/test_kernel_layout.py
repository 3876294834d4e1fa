"""The ctypes binding in `gwalk.kernel` against the C declarations in
`_walk.c`, read as text: no library is loaded, so a mismatch fails here
instead of crashing the interpreter inside a kernel call. `_walk.c` also
compiles without a warning under -Wall -Wextra, and on Linux the built
library exports the functions of `kernel._ENTRY_POINTS`, which are those it
defines without `static`, and none of numpy's symbols."""

import ctypes
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from gwalk import kernel

SOURCE_PATH = Path(kernel.__file__).with_name("_walk.c")
SOURCE = SOURCE_PATH.read_text()


def _declared(decls: str):
    """(C type, name) per declarator of a comma/semicolon-separated list."""
    out = []
    for decl in filter(None, (d.strip() for d in decls.split(";"))):
        ctype = decl.split()[0]
        for name in decl[len(ctype):].split(","):
            name = name.strip()
            out.append((ctype + "*" * name.count("*"), name.lstrip("*")))
    return out


def _struct(name: str):
    body = re.search(r"typedef struct \{([^}]*)\}\s*" + name + ";", SOURCE)
    return _declared(body.group(1))


@pytest.mark.parametrize("struct, mirror", [("gw_node", kernel._Node),
                                            ("gw_arena", kernel._Arena),
                                            ("gw_stats", kernel._Stats),
                                            ("gw_count", kernel._Count),
                                            ("gw_pcg64", kernel._PCG64)])
def test_struct_fields_match(struct, mirror):
    assert [f for f, _ in mirror._fields_] == [name for _, name in _struct(struct)]


def test_node_record_is_48_bytes():
    assert ctypes.sizeof(kernel._Node) == 48


# name -> (return type, parameters) of each function `_walk.c` defines without `static`
EXPORTED = {name: (restype, params) for restype, name, params in re.findall(
    r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)\s*\{", SOURCE, re.M)}

SCALAR = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "int": ctypes.c_int, "void": None}


def test_entry_points_are_the_exported_functions():
    assert set(EXPORTED) == set(kernel._ENTRY_POINTS)


@pytest.mark.parametrize("name", list(kernel._ENTRY_POINTS))
def test_entry_point_types_match_the_declaration(name):
    restype, argtypes = kernel._ENTRY_POINTS[name]
    c_restype, params = EXPORTED[name]
    assert restype is SCALAR[c_restype]
    params = [" ".join(p.split()) for p in params.split(",")]
    assert len(params) == len(argtypes)
    for p, argtype in zip(params, argtypes):
        if "*" in p:
            assert argtype is ctypes.c_void_p or issubclass(argtype, ctypes._Pointer), p
        else:
            assert argtype is SCALAR[p.split()[0]], p


def test_walk_source_compiles_without_warnings():
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [*cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(SOURCE_PATH)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the link flag that hides numpy's symbols is Linux-only")
def test_library_exports_only_its_entry_points(kernel_library):
    if kernel_library is None:
        pytest.skip("no C compiler to build the walk kernel")
    lib = ctypes.CDLL(str(kernel_library))
    for name in kernel._ENTRY_POINTS:
        assert hasattr(lib, name), name
    for name in ("walk_one", "next64", "random_poisson", "random_standard_uniform_fill",
                 "random_multinomial"):
        assert not hasattr(lib, name), name
