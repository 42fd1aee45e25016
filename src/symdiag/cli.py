"""JSON-lines command-line front end.

Three subcommands: ``solve`` streams decompositions, ``verify`` checks the
closed-form results against the Jacobi oracle, ``bench`` compares
closed-form and Jacobi throughput on a seeded random matrix stream.

Input records are one JSON object per line with keys a11, a22, a12 for a
2x2 matrix, plus a33, a13, a23 for a 3x3, and an optional id.  ``solve``
streams: each line is parsed, solved and written before the next is read.
All floats are serialized as ``"%.17g" % x``, the bytes of
``format(float(x), ".17g")``, so output is byte-reproducible.  The
eigenvectors are the decomposition's ``d_entries``, the fixed-order float
product ``rotation_entries`` (the entries of ``compose_rotation``), and the
residuals come from ``oracle.residuals``, which evaluates them on Python
floats in a fixed order; neither makes a BLAS call, so no byte of a result
depends on the BLAS kernel numpy picks for the CPU.  ``solve`` and
``verify`` build no array and never import numpy: ``verify`` and ``bench``
call the Jacobi oracle's float entry point, and only ``bench`` imports
numpy, for its random stream and percentiles.  Result records are written
by one ``%``-template per dimension; every other record by ``_dumps``, and
both give the same bytes for a result.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import time

from .core import NonFiniteInput, SymMat2, SymMat3
from .eig2 import diagonalize2
from .eig3 import diagonalize3, euler_angles
# jacobi_eigen is not called here: verify and bench call the float entry
# point.  It stays a name of this module, which the benchmark's layer trace
# (perfbench/spans.py) patches.
from .oracle import jacobi_eigen, jacobi_eigen_floats, residuals


class ParseError(ValueError):
    """A malformed input record (bad JSON, wrong keys, non-finite values)."""


_KEYS2 = ("a11", "a22", "a12")
_KEYS3 = ("a11", "a22", "a33", "a12", "a13", "a23")
_KEYSET2 = frozenset(_KEYS2)
_KEYSET3 = frozenset(_KEYS3)

# json.dumps(x) with default arguments is this encoder's encode(x).
_encode = json.JSONEncoder().encode


def _dumps(obj):
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, dict):
        return "{" + ", ".join([_encode(k) + ": " + _dumps(v)
                                for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_dumps(v) for v in obj]) + "]"
    return _encode(obj)


# _dumps(result) for a solve_record result, in its key order: id, the
# floats of eigenvalues through eigenvectors, branch, the residuals.
_RESULT_TEMPLATE = {
    3: ('{"id": %s, "dim": 3, "eigenvalues": [%.17g, %.17g, %.17g], '
        '"eigenvalues_sorted": [%.17g, %.17g, %.17g], '
        '"angles": [%.17g, %.17g, %.17g], '
        '"euler_angles": [%.17g, %.17g, %.17g], '
        '"eigenvectors": [[%.17g, %.17g, %.17g], [%.17g, %.17g, %.17g], '
        '[%.17g, %.17g, %.17g]], '
        '"branch": %s, "residuals": {"recon_rel": %.17g, '
        '"ortho": %.17g, "max_eigvec_res": %.17g}}'),
    2: ('{"id": %s, "dim": 2, "eigenvalues": [%.17g, %.17g], '
        '"eigenvalues_sorted": [%.17g, %.17g], "angles": [%.17g], '
        '"euler_angles": [%.17g], '
        '"eigenvectors": [[%.17g, %.17g], [%.17g, %.17g]], '
        '"branch": %s, "residuals": {"recon_rel": %.17g, '
        '"ortho": %.17g, "max_eigvec_res": %.17g}}'),
}


def _dump_result(result):
    """``_dumps(result)`` for a ResultRecord from ``solve_record``, without
    walking it: one template per dimension, a %.17g slot per float."""
    res = result["residuals"]
    return _RESULT_TEMPLATE[result["dim"]] % (
        _encode(result["id"]), *result["eigenvalues"],
        *result["eigenvalues_sorted"], *result["angles"],
        *result["euler_angles"], *itertools.chain(*result["eigenvectors"]),
        _encode(result["branch"]), res["recon_rel"], res["ortho"],
        res["max_eigvec_res"])


def parse_record(line):
    """One MatrixRecord from a JSON line; raises ParseError on anything bad."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integers past the digit
        # limit of int(str); RecursionError covers too deep nesting
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ParseError("record must be a JSON object")
    rec_id = data.get("id")
    if rec_id is not None and not isinstance(rec_id, str):
        raise ParseError("id must be a string")
    keys = set(data) - {"id"}
    if keys == _KEYSET3:
        dim, names = 3, _KEYS3
    elif keys == _KEYSET2:
        dim, names = 2, _KEYS2
    else:
        raise ParseError(f"unexpected keys {sorted(keys)}; want "
                         f"{list(_KEYS2)} or {list(_KEYS3)}")
    comps = []
    for k in names:
        v = data[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{k} must be a number")
        try:
            comps.append(float(v))
        except OverflowError as e:  # an integer beyond the double range
            raise ParseError(f"{k} is outside the float range") from e
    try:
        mat = SymMat2(*comps) if dim == 2 else SymMat3(*comps)
    except NonFiniteInput as e:
        raise ParseError(str(e)) from e
    return rec_id, dim, mat


def solve_record(rec_id, dim, mat):
    """One ResultRecord dict for a parsed matrix."""
    if dim == 2:
        dec = diagonalize2(mat)
        eig = [dec.lambda1, dec.lambda2]
        angles = [dec.phi]
        euler = [dec.phi]
        d11, d12, d21, d22 = dec.d_entries
        columns = [[d11, d21], [d12, d22]]
        branch = None
    else:
        dec = diagonalize3(mat)
        eig = list(dec.lambdas)
        angles = list(dec.angles.as_tuple())
        euler = list(euler_angles(dec).as_tuple())
        d11, d12, d13, d21, d22, d23, d31, d32, d33 = dec.d_entries
        columns = [[d11, d21, d31], [d12, d22, d32], [d13, d23, d33]]
        branch = dec.branch.value
    recon, ortho, eigvec = residuals(mat, dec)
    return {
        "id": rec_id,
        "dim": dim,
        "eigenvalues": eig,
        "eigenvalues_sorted": sorted(eig, reverse=True),
        "angles": angles,
        "euler_angles": euler,
        "eigenvectors": columns,
        "branch": branch,
        "residuals": {"recon_rel": recon, "ortho": ortho,
                      "max_eigvec_res": max(eigvec)},
    }, dec


def cmd_solve(in_stream, out_stream):
    """Stream MatrixRecords to ResultRecords, order preserved.

    Malformed records, and records the solver raises on, yield an inline
    error entry and processing continues.  Exit code 0 if any record
    succeeded (or the stream was empty), 2 if all records failed.
    """
    n_ok = n_fail = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            rec_id, dim, mat = parse_record(line)
        except ParseError as e:
            text = _dumps({"id": None, "error": str(e)})
            n_fail += 1
        else:
            try:
                result, _ = solve_record(rec_id, dim, mat)
            except (ArithmeticError, ValueError) as e:
                text = _dumps({"id": rec_id, "error": f"solver error: "
                               f"{type(e).__name__}: {e}"})
                n_fail += 1
            else:
                text = _dump_result(result)
                n_ok += 1
        out_stream.write(text + "\n")
    return 0 if n_ok > 0 or n_fail == 0 else 2


def cmd_verify(in_stream, out_stream, tol):
    """Check every record against the Jacobi oracle and report a summary.

    A record passes when the sorted-eigenvalue deviation from Jacobi and the
    reconstruction residual are both at most tol.  A malformed record fails
    and is also counted in parse_errors; a record the solver raises on fails
    and is also counted in solver_errors.  Exit code 0 iff all pass.
    """
    n = n_pass = n_fail = n_near_tie = n_errors = n_parse = 0
    max_dev = 0.0
    max_recon = 0.0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        n += 1
        try:
            rec_id, dim, mat = parse_record(line)
        except ParseError:
            n_fail += 1
            n_parse += 1
            continue
        try:
            result, dec = solve_record(rec_id, dim, mat)
        except (ArithmeticError, ValueError):
            n_fail += 1
            n_errors += 1
            continue
        jac = jacobi_eigen_floats(mat)
        dev = max(abs(x - y) for x, y in zip(
            sorted(jac.eigenvalues), sorted(result["eigenvalues"])))
        recon = result["residuals"]["recon_rel"]
        max_dev = max(max_dev, dev)
        max_recon = max(max_recon, recon)
        if dim == 3 and dec.report.near_tie:
            n_near_tie += 1
        if dev <= tol and recon <= tol:
            n_pass += 1
        else:
            n_fail += 1
    summary = {"records": n, "pass": n_pass, "fail": n_fail, "tol": tol,
               "max_eigenvalue_deviation": max_dev,
               "max_recon_residual": max_recon,
               "near_tie_warnings": n_near_tie, "solver_errors": n_errors,
               "parse_errors": n_parse}
    out_stream.write(_dumps(summary) + "\n")
    return 0 if n_fail == 0 else 1


def random_symmetric_stream(n, seed):
    """Deterministic stream of SymMat3 with entries uniform in [-1, 1]."""
    import numpy as np
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a11, a22, a33, a12, a13, a23 = rng.uniform(-1.0, 1.0, 6)
        yield SymMat3(a11, a22, a33, a12, a13, a23)


def cmd_bench(out_stream, n, seed):
    """Per-matrix latency of closed-form vs Jacobi on the same matrix stream."""
    import numpy as np
    mats = list(random_symmetric_stream(n, seed))

    def time_loop(fn):
        lat = np.empty(len(mats))
        for i, m in enumerate(mats):
            t0 = time.perf_counter()
            fn(m)
            lat[i] = time.perf_counter() - t0
        return lat

    lat_cf = time_loop(diagonalize3)
    lat_j = time_loop(lambda m: jacobi_eigen_floats(m, tol=1e-13))
    med_cf = float(np.median(lat_cf))
    med_j = float(np.median(lat_j))
    report = {
        "n": n,
        "seed": seed,
        "closed_form": {"median_us": med_cf * 1e6,
                        "p99_us": float(np.percentile(lat_cf, 99)) * 1e6,
                        "total_s": float(np.sum(lat_cf))},
        "jacobi": {"median_us": med_j * 1e6,
                   "p99_us": float(np.percentile(lat_j, 99)) * 1e6,
                   "total_s": float(np.sum(lat_j))},
        "throughput_ratio_closed_over_jacobi": med_j / med_cf,
    }
    out_stream.write(_dumps(report) + "\n")
    return 0


@functools.cache
def build_parser():
    """The ``symdiag`` argument parser, built on first use and then reused:
    building it costs about as much as solving several records."""
    parser = argparse.ArgumentParser(
        prog="symdiag",
        description="Closed-form diagonalization of 2x2/3x3 real symmetric "
                    "matrices (JSON-lines in, JSON-lines out).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="diagonalize a stream of matrices")
    p_solve.add_argument("--input", default="-", help="input path (default stdin)")
    p_solve.add_argument("--output", default="-", help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="check solutions against the Jacobi oracle")
    p_verify.add_argument("--input", default="-", help="input path (default stdin)")
    p_verify.add_argument("--tol", type=float, required=True,
                          help="pass/fail tolerance")

    p_bench = sub.add_parser("bench", help="closed-form vs Jacobi throughput")
    p_bench.add_argument("--n", type=int, required=True, help="matrix count")
    p_bench.add_argument("--seed", type=int, required=True, help="stream seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # every file opened here is closed on every way out, errors included
        with contextlib.ExitStack() as files:
            if args.command == "solve":
                fin = (sys.stdin if args.input == "-"
                       else files.enter_context(open(args.input)))
                fout = (sys.stdout if args.output == "-"
                        else files.enter_context(open(args.output, "w")))
                return cmd_solve(fin, fout)
            if args.command == "verify":
                if not 0.0 < args.tol < math.inf:
                    print("error: --tol must be positive and finite",
                          file=sys.stderr)
                    return 2
                fin = (sys.stdin if args.input == "-"
                       else files.enter_context(open(args.input)))
                return cmd_verify(fin, sys.stdout, args.tol)
            if args.command == "bench":
                if args.n < 1:
                    print("error: --n must be at least 1", file=sys.stderr)
                    return 2
                return cmd_bench(sys.stdout, args.n, args.seed)
            raise AssertionError(f"unknown command {args.command}")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
