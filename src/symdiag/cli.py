"""JSON-lines command-line front end.

Three subcommands: ``solve`` streams decompositions, ``verify`` checks the
closed-form results against the Jacobi oracle, ``bench`` compares
closed-form and Jacobi throughput on a seeded random matrix stream.

Input records are one JSON object per line with keys a11, a22, a12 for a
2x2 matrix, plus a33, a13, a23 for a 3x3, and an optional id.  ``solve``
streams: each line is parsed, solved and written before the next is read.
``parse_record`` decodes a line with the C scanner json.loads ends in, and
hands json.loads only what that scanner rejects or leaves unread, so every
error message is json.loads's.  It then fetches the entries with one
``operator.itemgetter`` call, which also checks the key set, tests their
types in one chain of ``is`` comparisons and builds the matrix with one
constructor call; only a record with an entry that is not a float goes
through the per-entry checks, which convert ints and word every error.
All floats are serialized as ``"%.17g" % x``, the bytes of
``format(float(x), ".17g")``, so output is byte-reproducible.  The
eigenvectors are the decomposition's ``d_entries``, the fixed-order float
product ``rotation_entries`` (the entries of ``compose_rotation``), and the
residuals come from ``oracle.residuals``, which evaluates them on Python
floats in a fixed order; neither makes a BLAS call, so no byte of a result
depends on the BLAS kernel numpy picks for the CPU.  ``solve`` and
``verify`` build no array and never import numpy: ``verify`` and ``bench``
call the Jacobi oracle's float entry point, and only ``bench`` imports
numpy, for its random stream and percentiles.  A result line is one
``%``-template fill per dimension, straight from the decomposition and its
residuals, with each distinct float formatted once: eigenvalues_sorted
reuses the eigenvalue strings and euler_angles the angle strings.  The id
goes in as ``null`` or as json's ``encode_basestring_ascii`` of the str,
the function ``json.dumps`` calls for a str, and the branch as a string
looked up by the member's name.  Every other record is written by
``_dumps``, which gives a result the same bytes.
"""

import argparse
import contextlib
import functools
import json
import math
import operator
import sys
import time
from json.encoder import encode_basestring_ascii

from .core import Branch, NonFiniteInput, SymMat2, SymMat3
from .eig2 import diagonalize2
from .eig3 import diagonalize3
# jacobi_eigen is not called here: verify and bench call the float entry
# point.  It stays a name of this module, which the benchmark's layer trace
# (perfbench/spans.py) patches.
from .oracle import jacobi_eigen, jacobi_eigen_floats, residuals


class ParseError(ValueError):
    """A malformed input record (bad JSON, wrong keys, non-finite values)."""


_KEYS2 = ("a11", "a22", "a12")
_KEYS3 = ("a11", "a22", "a33", "a12", "a13", "a23")
_GET2 = operator.itemgetter(*_KEYS2)
_GET3 = operator.itemgetter(*_KEYS3)

# The scanner json.loads decodes with (the C one where _json is built):
# one JSON value from a str at an index, and the index after it.
_scan_once = json.JSONDecoder().scan_once

# json.dumps(x) with default arguments is this encoder's encode(x).
_encode = json.JSONEncoder().encode

# Branch member name -> the member's value as JSON.  Keyed by the name, a
# str, so the lookup skips the .value property and Enum.__hash__, both
# Python-level.
_BRANCH_JSON = {member._name_: _encode(member.value) for member in Branch}


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


# The result line of a 3x3 and of a 2x2: the bytes _dumps gives the result
# record, with keys id, dim, eigenvalues, eigenvalues_sorted, angles,
# euler_angles, eigenvectors, branch and residuals.  The %s slots take
# floats formatted once each, since eigenvalues_sorted permutes the
# eigenvalues and the Euler angles are the angles (euler_angles); the %.17g
# slots take the rest.
_RESULT3 = ('{"id": %s, "dim": 3, "eigenvalues": [%s, %s, %s], '
            '"eigenvalues_sorted": [%s, %s, %s], "angles": [%s], '
            '"euler_angles": [%s], '
            '"eigenvectors": [[%.17g, %.17g, %.17g], [%.17g, %.17g, %.17g], '
            '[%.17g, %.17g, %.17g]], '
            '"branch": %s, "residuals": {"recon_rel": %.17g, '
            '"ortho": %.17g, "max_eigvec_res": %.17g}}\n')
_RESULT2 = ('{"id": %s, "dim": 2, "eigenvalues": [%s, %s], '
            '"eigenvalues_sorted": [%s, %s], "angles": [%s], '
            '"euler_angles": [%s], '
            '"eigenvectors": [[%.17g, %.17g], [%.17g, %.17g]], '
            '"branch": null, "residuals": {"recon_rel": %.17g, '
            '"ortho": %.17g, "max_eigvec_res": %.17g}}\n')


def parse_record(line):
    """One MatrixRecord from a JSON line; raises ParseError on anything bad.

    The line is decoded by the scanner json.loads ends in.  What that
    scanner raises on, leaves partly unread or cannot take (bytes) goes to
    json.loads itself, so padding, a BOM, bytes and every error message
    are json.loads's.
    """
    try:
        data, end = _scan_once(line, 0)
    except (StopIteration, ValueError, TypeError, RecursionError):
        end = -1
    if end != len(line):
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as e:
            # ValueError covers JSONDecodeError and integers past the digit
            # limit of int(str); RecursionError covers too deep nesting
            raise ParseError(f"invalid JSON: {e}") from e
    if type(data) is not dict:
        raise ParseError("record must be a JSON object")
    rec_id = data.pop("id", None)
    if type(rec_id) is not str and rec_id is not None:
        raise ParseError("id must be a string")
    # equal sizes and every key found: the key sets are equal
    size = len(data)
    try:
        if size == 6:
            dim, names = 3, _KEYS3
            a11, a22, a33, a12, a13, a23 = comps = _GET3(data)
            floats = (type(a11) is type(a22) is type(a33) is type(a12)
                      is type(a13) is type(a23) is float)
        elif size == 3:
            dim, names = 2, _KEYS2
            a11, a22, a12 = comps = _GET2(data)
            floats = type(a11) is type(a22) is type(a12) is float
        else:
            raise KeyError(size)
    except KeyError:
        raise ParseError(f"unexpected keys {sorted(data)}; want "
                         f"{list(_KEYS2)} or {list(_KEYS3)}") from None
    if not floats:
        comps = list(comps)
        for i, v in enumerate(comps):
            # json gives a number as float or int; true and false are bools
            if type(v) is not float:
                if type(v) is not int:
                    raise ParseError(f"{names[i]} must be a number")
                try:
                    comps[i] = float(v)
                except OverflowError as e:  # an integer beyond the doubles
                    raise ParseError(f"{names[i]} is outside the float "
                                     f"range") from e
    try:
        mat = SymMat3(*comps) if dim == 3 else SymMat2(*comps)
    except NonFiniteInput as e:
        raise ParseError(str(e)) from e
    return rec_id, dim, mat


def solve_record(dim, mat):
    """The decomposition of a parsed matrix and its residuals: (dec,
    (recon_rel, ortho, eigenvector residuals)), as ``oracle.residuals``
    gives them."""
    dec = diagonalize2(mat) if dim == 2 else diagonalize3(mat)
    return dec, residuals(mat, dec)


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
            out_stream.write(_dumps({"id": None, "error": str(e)}) + "\n")
            n_fail += 1
            continue
        try:
            dec, (recon, ortho, eigvec) = solve_record(dim, mat)
        except (ArithmeticError, ValueError) as e:
            out_stream.write(_dumps({"id": rec_id, "error": f"solver error: "
                                     f"{type(e).__name__}: {e}"}) + "\n")
            n_fail += 1
            continue
        # what json.dumps gives for the id: ParseError rules out the rest
        id_json = ("null" if rec_id is None
                   else encode_basestring_ascii(rec_id))
        # sorted(eigenvalues, reverse=True) is stable: equal eigenvalues,
        # 0.0 and -0.0 among them, keep their order.  No eigenvalue here is
        # NaN: where one leaves the double range, diagonalize3 and
        # diagonalize2 raise OverflowError.
        if dim == 3:
            l1, l2, l3 = dec.lambda1, dec.lambda2, dec.lambda3
            e1, e2, e3 = "%.17g" % l1, "%.17g" % l2, "%.17g" % l3
            if l1 < l2:
                if l2 < l3:
                    s1, s2, s3 = e3, e2, e1
                elif l1 < l3:
                    s1, s2, s3 = e2, e3, e1
                else:
                    s1, s2, s3 = e2, e1, e3
            elif l1 < l3:
                s1, s2, s3 = e3, e1, e2
            elif l2 < l3:
                s1, s2, s3 = e1, e3, e2
            else:
                s1, s2, s3 = e1, e2, e3
            angles = "%.17g, %.17g, %.17g" % dec.angles
            d11, d12, d13, d21, d22, d23, d31, d32, d33 = dec.d_entries
            text = _RESULT3 % (
                id_json, e1, e2, e3, s1, s2, s3, angles, angles,
                d11, d21, d31, d12, d22, d32, d13, d23, d33,
                _BRANCH_JSON[dec.branch._name_], recon, ortho, max(eigvec))
        else:
            l1, l2 = dec.lambda1, dec.lambda2
            e1, e2 = "%.17g" % l1, "%.17g" % l2
            s1, s2 = (e2, e1) if l1 < l2 else (e1, e2)
            angles = "%.17g" % dec.phi
            d11, d12, d21, d22 = dec.d_entries
            text = _RESULT2 % (
                id_json, e1, e2, s1, s2, angles, angles,
                d11, d21, d12, d22, recon, ortho, max(eigvec))
        out_stream.write(text)
        n_ok += 1
    return 0 if n_ok > 0 or n_fail == 0 else 2


def cmd_verify(in_stream, out_stream, tol):
    """Check every record against the Jacobi oracle and report a summary.

    A record passes when the sorted-eigenvalue deviation from Jacobi,
    relative to max(1, ||A||_2) with ||A||_2 the largest |eigenvalue|
    Jacobi returns, and the reconstruction residual are both at most tol.
    A malformed record fails and is also counted in parse_errors; a record
    the solver raises on fails and is also counted in solver_errors.  Exit
    code 0 iff all pass.
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
            dec, (recon, _, _) = solve_record(dim, mat)
        except (ArithmeticError, ValueError):
            n_fail += 1
            n_errors += 1
            continue
        lambdas = ((dec.lambda1, dec.lambda2) if dim == 2
                   else (dec.lambda1, dec.lambda2, dec.lambda3))
        jac = jacobi_eigen_floats(mat).eigenvalues
        dev = max(abs(x - y) for x, y in zip(sorted(jac), sorted(lambdas)))
        norm2 = max(map(abs, jac))
        if norm2 > 1.0:  # dev / max(1, ||A||_2)
            dev /= norm2
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
