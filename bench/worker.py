"""One sample in a fresh interpreter: import gwalk from a built package, then
time a single `gwalk.cli.main([...])` call and write a JSON record.

    python3 bench/worker.py --lib BUILD_LIB --record OUT.json [--trace SPANS.json] \
        [-- GWALK_ARGS...]

Without GWALK_ARGS it only times the first import (the set-up stage). The
record holds the import time and warnings, the kernel implementation, the
call's wall time, its exit code or traceback, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lib", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("gwalk_args", nargs="*")
    a = ap.parse_args()

    lib = os.path.abspath(a.lib)
    sys.path.insert(0, lib)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import gwalk.cli
        import gwalk.kernel
    import_s = time.perf_counter() - t0
    import numpy

    rec = {
        "import_s": import_s,
        "import_warnings": [
            str(w.message) for w in caught if os.path.abspath(w.filename).startswith(lib)
        ],
        "kernel_impl": gwalk.kernel.KERNEL_IMPL,
        "gwalk_file": gwalk.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if not os.path.abspath(gwalk.__file__).startswith(lib + os.sep):
        rec["error"] = f"gwalk imported from {gwalk.__file__}, not from {lib}"
    elif a.gwalk_args:
        tracer = None
        if a.trace:
            from tracing import ROOT, Tracer  # beside this script, on sys.path

            tracer = Tracer()
            tracer.install()
            root = tracer.open(ROOT)
        t = time.perf_counter()
        try:
            rec["rc"] = gwalk.cli.main(a.gwalk_args)
        except (Exception, SystemExit):
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.close(root)
            tracer.dump(a.trace)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(a.record, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
