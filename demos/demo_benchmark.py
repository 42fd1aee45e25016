"""Closed-form solver versus the iterative Jacobi oracle.

Verifies that both produce the same eigenvalues on a random stream, then
compares per-matrix latency with the timing loop of ``symdiag bench``.
The closed form executes a fixed operation count per matrix; Jacobi
iterates sweeps until the off-diagonal mass is gone.  Run with a larger
--n for steadier numbers.
"""

import argparse
import io
import json
import sys

import numpy as np

from symdiag import diagonalize3, jacobi_eigen
from symdiag.cli import cmd_bench, random_symmetric_stream


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000, help="matrix count")
    parser.add_argument("--seed", type=int, default=42, help="stream seed")
    args = parser.parse_args(argv)

    # agreement first: a speed contest is meaningless between solvers that
    # disagree
    n_check = min(2000, args.n)
    worst = 0.0
    for m in random_symmetric_stream(n_check, args.seed):
        dec = diagonalize3(m)
        jac = jacobi_eigen(m)
        worst = max(worst, float(np.max(np.abs(
            np.sort(dec.lambdas) - np.sort(jac.eigenvalues)))))
    print(f"eigenvalue agreement on {n_check} matrices: "
          f"worst deviation = {worst:.2e}")

    out = io.StringIO()
    cmd_bench(out, args.n, args.seed)
    report = json.loads(out.getvalue())
    print(f"\n{'':14s}{'median':>10s}{'p99':>10s}{'total':>10s}")
    for name, key in (("closed form", "closed_form"), ("jacobi", "jacobi")):
        row = report[key]
        print(f"{name:14s}{row['median_us']:9.1f}us{row['p99_us']:9.1f}us"
              f"{row['total_s']:9.2f}s")
    print(f"\nthroughput ratio (jacobi median / closed-form median): "
          f"{report['throughput_ratio_closed_over_jacobi']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
