"""Outside-in tracing: timing wrappers swapped in for module attributes.

``symdiag.eig3.diagonalize3``, ``_polish_angles`` and the CLI commands look
their helpers up as module globals at call time, so replacing those
globals for the length of a traced run makes the wrappers see the real
calls without any edit to the program.  Each span records a name, a
start, an end, its parent span and the id of the matrix (or CLI record)
being processed; spans stay in flat in-memory arrays until the run ends.
"""

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name is the layer's metric
# prefix; ``diagonalize3`` and friends are reached through ``symdiag.cli``
# as well when the CLI calls them.
EIG3_LAYERS = [
    ("symdiag.eig3", fn, "eig3." + fn) for fn in (
        "char_coeffs", "compute_pq", "eigenvalues3", "compute_v",
        "compute_w", "resolve_signs", "compose_rotation",
        "_reconstruction_residual", "_polish_angles", "degenerate_double",
        "diagonalize3")
]
CLI_LAYERS = [
    ("symdiag.cli", "main", "cli.main"),
    ("symdiag.cli", "cmd_solve", "cli.cmd_solve"),
    ("symdiag.cli", "cmd_verify", "cli.cmd_verify"),
    ("symdiag.cli", "parse_record", "cli.parse_record"),
    ("symdiag.cli", "solve_record", "cli.solve_record"),
    ("symdiag.cli", "_dumps", "cli._dumps"),
    ("symdiag.cli", "SymMat3", "core.SymMat3"),
    ("symdiag.cli", "diagonalize3", "eig3.diagonalize3"),
    ("symdiag.cli", "diagonalize2", "eig2.diagonalize2"),
    ("symdiag.cli", "residuals", "oracle.residuals"),
    ("symdiag.cli", "jacobi_eigen", "oracle.jacobi_eigen"),
]
# _dumps calls itself; only its outermost call is a span.
OUTERMOST_ONLY = {"cli._dumps"}
# Exceptions diagonalize3 catches from these layers to reroute a matrix
# to the double-root branch.
REROUTE_LAYERS = ("eig3.compute_v", "eig3.compute_w", "eig3.resolve_signs")
REROUTE_CAUSES = ("BothFVectorsZero", "DegenerateEigenvalues",
                  "DomainExcursion")


class Tracer:
    """Span store plus the event counts observed at layer boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.sid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors = []            # (span index, exception class name)
        self.stack = [-1]
        self.current_op = -1
        self.absent = []            # layers missing from the program
        self.branches = {}          # diagonalize3 result branch -> count
        self.near_ties = 0
        self.last_recon = math.nan  # latest _reconstruction_residual value
        self.polish_useful = 0
        self.jacobi_sweeps = 0
        self.observer_errors = 0    # observers that met an unexpected shape

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None, root=False):
        """A stand-in for ``fn`` that records one span per call.

        ``root`` marks the call that starts a new matrix; the CLI harness
        sets ``current_op`` per record instead.  ``observe(args, result)``
        sees every successful call.
        """
        nid = self.name_id(name)
        sid, t0, t1, parent, op = self.sid, self.t0, self.t1, \
            self.parent, self.op
        stack, errors = self.stack, self.errors
        outermost = name in OUTERMOST_ONLY
        active = [0]
        tracer = self

        def traced(*args, **kwargs):
            if outermost and active[0]:
                return fn(*args, **kwargs)
            if root:
                tracer.current_op += 1
            i = len(sid)
            sid.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            t1.append(math.nan)
            stack.append(i)
            active[0] += 1
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1[i] = perf_counter()
                stack.pop()
                active[0] -= 1
                errors.append((i, type(e).__name__))
                raise
            t1[i] = perf_counter()
            stack.pop()
            active[0] -= 1
            if observe is not None:
                try:
                    observe(args, result)
                except Exception:  # harness-side; must not reach the program
                    tracer.observer_errors += 1
            return result

        return traced

    # observers of layer results ------------------------------------------

    def _see_decomp(self, args, dec):
        b = dec.branch.value
        self.branches[b] = self.branches.get(b, 0) + 1
        self.near_ties += bool(dec.report.near_tie)

    def _see_recon(self, args, res):
        self.last_recon = res

    def _see_polish(self, args, result):
        # diagonalize3 keeps the polished angles iff abs_res / scale beats
        # the residual it computed just before calling polish
        scale = args[3]
        self.polish_useful += result[1] / scale < self.last_recon

    def _see_jacobi(self, args, result):
        self.jacobi_sweeps += result.sweeps

    def observer(self, name):
        return {"eig3.diagonalize3": self._see_decomp,
                "eig3._reconstruction_residual": self._see_recon,
                "eig3._polish_angles": self._see_polish,
                "oracle.jacobi_eigen": self._see_jacobi}.get(name)

    @contextmanager
    def patched(self, modules, layers):
        """Swap the listed module attributes for traced stand-ins.

        A layer missing from the program (renamed or deleted by a later
        refactor) is recorded in ``absent`` and reported as such.
        """
        saved = []
        try:
            for mod_name, attr, name in layers:
                mod = modules[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, self.observer(name)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # aggregation -----------------------------------------------------------

    def self_times(self, weights):
        """Total weighted self time per span name, and total root time.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap, since the run is single-threaded.
        ``weights`` (one per span) turns seconds into reference seconds.
        """
        sid = np.frombuffer(self.sid, dtype=np.int32)
        dur = (np.frombuffer(self.t1, dtype=np.float64)
               - np.frombuffer(self.t0, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        if not np.isfinite(dur).all():
            raise RuntimeError("a span was left open")
        covered = np.zeros(len(dur))
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        own = np.bincount(sid, weights=(dur - covered) * weights,
                          minlength=len(self.names))
        return (dict(zip(self.names, own.tolist())),
                float((dur * weights)[~child].sum()))

    def calls(self, name):
        if name not in self._ids:
            return 0
        sid = np.frombuffer(self.sid, dtype=np.int32)
        return int(np.count_nonzero(sid == self._ids[name]))

    def errors_in(self, names):
        """Exception class -> count, over spans with one of ``names``."""
        ids = {self._ids[n] for n in names if n in self._ids}
        out = {}
        for i, exc in self.errors:
            if self.sid[i] in ids:
                out[exc] = out.get(exc, 0) + 1
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 sid=np.frombuffer(self.sid, dtype=np.int32),
                 t0=np.frombuffer(self.t0, dtype=np.float64),
                 t1=np.frombuffer(self.t1, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 error_span=np.array([i for i, _ in self.errors], dtype=int),
                 error_class=np.array([e for _, e in self.errors], dtype=str))
