"""Set-up cost: a fresh interpreter importing ``symdiag`` and ``symdiag.cli``.

Each measurement starts a new Python process with the checkout's ``src``
first on its path, so nothing is cached in the interpreter; one untimed
start first compiles the bytecode and fills the file cache.

Like the timings in ``reference.py``, set-up is reported in reference
seconds. A fresh interpreter importing a fixed set of standard-library
modules runs before and after every measured import. It does the same
kinds of work: process start, unmarshalling, module execution and
extension loading, none of it the program's. A measured import is scaled
by ``REF_IMPORT_S`` over the mean of its two neighbours. On a shared host
this cut the spread of 5-run medians from ~0.10 to ~0.03.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT = "import symdiag, symdiag.cli"
REFERENCE_IMPORT = ("import json, decimal, argparse, email.mime.text, "
                    "http.client, xml.dom.minidom, unittest, logging, asyncio")
# Duration of REFERENCE_IMPORT on a quiet 2-vCPU Intel Xeon host (Python
# 3.11.7), where the benchmark was written.
REF_IMPORT_S = 0.12
# -X importtime rows reported as import.<module>_s (cumulative seconds)
IMPORT_ROWS = ("symdiag", "symdiag.oracle", "scipy.optimize", "numpy")


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _run(args, src, root):
    return subprocess.run([sys.executable, *args], env=_env(src), cwd=root,
                          capture_output=True, text=True, timeout=60,
                          check=True)


def warm_up(src, root):
    """One untimed import of each kind; fails unless the first loads the
    checkout's package."""
    _run(["-c", REFERENCE_IMPORT], src, root)
    out = _run(["-c", IMPORT + "; print(symdiag.__file__)"], src, root)
    path = Path(out.stdout.strip()).resolve()
    if Path(src).resolve() not in path.parents:
        raise RuntimeError(f"symdiag imported from {path}, not from {src}")


def _timed(code, src, root):
    t0 = time.perf_counter()
    _run(["-c", code], src, root)
    return time.perf_counter() - t0


def setup_seconds(src, root, runs):
    """Median of ``runs`` fresh-interpreter imports in reference seconds,
    with the measured seconds of the imports and of the references."""
    ref = [_timed(REFERENCE_IMPORT, src, root)]
    measured, scaled = [], []
    for _ in range(runs):
        measured.append(_timed(IMPORT, src, root))
        ref.append(_timed(REFERENCE_IMPORT, src, root))
        scaled.append(measured[-1] * REF_IMPORT_S / (0.5 * sum(ref[-2:])))
    return statistics.median(scaled), {"import_s": measured,
                                       "reference_import_s": ref}


def import_times(src, root, runs):
    """Median cumulative import time per IMPORT_ROWS module, in seconds.

    A module the package no longer imports at start-up reads 0.
    """
    samples = {m: [] for m in IMPORT_ROWS}
    for _ in range(runs):
        err = _run(["-X", "importtime", "-c", IMPORT], src, root).stderr
        seen = {}
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for m in IMPORT_ROWS:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}
