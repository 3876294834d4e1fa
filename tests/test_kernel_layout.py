"""The ctypes binding in `gwalk.kernel` against the C declarations in
`_walk.c`, read as text: no library is loaded, so a mismatch fails here
instead of crashing the interpreter inside a kernel call."""

import ctypes
import re
from pathlib import Path

import pytest

from gwalk import kernel

SOURCE = (Path(kernel.__file__).with_name("_walk.c")).read_text()


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


@pytest.mark.parametrize("struct, mirror", [("gw_arena", kernel._Arena),
                                            ("gw_stats", kernel._Stats)])
def test_struct_fields_match(struct, mirror):
    assert [f for f, _ in mirror._fields_] == [name for _, name in _struct(struct)]


def test_walk_parameters_match_argtypes():
    params = re.search(r"\bint gw_walk\((.*?)\)\s*\{", SOURCE, re.S).group(1)
    params = [" ".join(p.split()) for p in params.split(",")]
    assert len(params) == len(kernel._WALK_ARGTYPES)
    scalar = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "int": ctypes.c_int}
    for p, argtype in zip(params, kernel._WALK_ARGTYPES):
        if "*" in p:
            assert argtype is ctypes.c_void_p or issubclass(argtype, ctypes._Pointer), p
        else:
            assert argtype is scalar[p.split()[0]], p
