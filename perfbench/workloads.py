"""Seeded input generators for the benchmark workloads.

Every generator draws from a numpy Generator handed in by the caller, so
one seed gives one input stream.  Generation happens outside the timed
region: the harness asks for a chunk, then times the calls on it.

Library chunks are ``(rows, bounds)``: ``rows`` is an ``(K, 6)`` array in
``SymMat3`` argument order (a11, a22, a33, a12, a13, a23) and ``bounds`` is
a ``(K, 3)`` array of (eigenvalue, reconstruction, orthogonality) limits
taken from the acceptance criterion that covers each row's input class.
"""

import json

import numpy as np

# Criterion 1 (uniform entries in [-1, 1]): orthogonality 1e-12,
# reconstruction 1e-10 relative, eigenvalues within 1e-10 absolute.  The
# eigenvalue check here is relative to max|lambda|, which is at most
# ||A||_F <= 3 for such entries, so 1e-10 / 3 is no looser than 1e-10.
UNIFORM_BOUNDS = (1e-10 / 3.0, 1e-10, 1e-12)
# Criterion 4: a separated double root reconstructs within 1e-8; gaps of
# 1e-3, 1e-6 and 1e-9 within 1e-6.  By Weyl's inequality an eigenvalue
# error is bounded by the reconstruction residual, so the same figure
# bounds the eigenvalues.
DOUBLE_ROOT_BOUNDS = (1e-8, 1e-8, 1e-12)
NEAR_DOUBLE_BOUNDS = (1e-6, 1e-6, 1e-12)
# Criterion 5 (2x2, entries in [-1, 1]): reconstruction and orthogonality
# 1e-14, eigenvalues within 1e-12 absolute, and max|lambda| <= 2.
TWO_BY_TWO_BOUNDS = (1e-12 / 2.0, 1e-14, 1e-14)

# lib-clustered gaps: an exact double root, a pair closer than the solver
# resolves (routed to DoubleRoot, then polished) and a separated spectrum.
CLUSTER_GAPS = (0.0, 1e-9, 1.0)
# Resolvable near-double gaps.  The solver fails on about 1 in 5e4 of these
# (see NOTES.md), so they are measured by the defect census, not timed.
NEAR_DOUBLE_GAPS = (1e-6, 1e-3)
SCALE_EXPONENTS = (-1000, 1000)


def uniform_chunk(rng, k):
    """lib-random: entries uniform in [-1, 1], as criterion 1 draws them."""
    rows = rng.uniform(-1.0, 1.0, (k, 6))
    return rows, np.tile(UNIFORM_BOUNDS, (k, 1))


def clustered_chunk(rng, k, gap_choices=CLUSTER_GAPS):
    """lib-clustered: Q . diag(lam, lam + g, lam + 2) . Q^T as criterion 4
    builds them, Q from the QR factor of a Gaussian matrix and g drawn from
    ``gap_choices``; symmetrized the way ``SymMat3.from_array`` does it."""
    lam = rng.uniform(-3.0, 3.0, k)
    gaps = np.asarray(gap_choices)[rng.integers(0, len(gap_choices), k)]
    q, _ = np.linalg.qr(rng.standard_normal((k, 3, 3)))
    diag = np.stack([lam, lam + gaps, lam + 2.0], axis=1)
    m = (q * diag[:, None, :]) @ np.swapaxes(q, 1, 2)
    rows = np.stack([m[:, 0, 0], m[:, 1, 1], m[:, 2, 2],
                     0.5 * (m[:, 0, 1] + m[:, 1, 0]),
                     0.5 * (m[:, 0, 2] + m[:, 2, 0]),
                     0.5 * (m[:, 1, 2] + m[:, 2, 1])], axis=1)
    bounds = np.where((gaps == 0.0)[:, None], DOUBLE_ROOT_BOUNDS,
                      np.where((gaps == 1.0)[:, None], UNIFORM_BOUNDS,
                               NEAR_DOUBLE_BOUNDS))
    return rows, bounds


def near_double_chunk(rng, k):
    """Census: lib-clustered's construction with NEAR_DOUBLE_GAPS."""
    return clustered_chunk(rng, k, NEAR_DOUBLE_GAPS)


def scaled_chunk(rng, k):
    """Census: lib-random rows times 2^j, j uniform in SCALE_EXPONENTS.

    Multiplying by a power of two is exact, every entry stays a finite
    double, and the accuracy expected is criterion 1's, scale-invariantly.
    """
    rows, bounds = uniform_chunk(rng, k)
    lo, hi = SCALE_EXPONENTS
    return np.ldexp(rows, rng.integers(lo, hi + 1, (k, 1))), bounds


LIB_WORKLOADS = {
    "lib-random": uniform_chunk,
    "lib-clustered": clustered_chunk,
}

# Input classes with known solver defects.  No operation of a timed
# workload may fail, so these are solved untimed, on a fixed number of
# seeded inputs per run, and their failures are reported as census
# metrics of the traced run.
CENSUS = {
    "lib-scaled": scaled_chunk,
    "near-double": near_double_chunk,
}
CENSUS_SIZE = 2000
# One reproducer per known clustered defect, each with its bounds
# (criterion 4c): a g = 1e-3 matrix routed to DoubleRoot, whose two close
# eigenvalues are averaged, and a g = 1e-6 matrix whose polish steps phi1
# across +-pi/2 so that d comes back wrong.
KNOWN_DEFECTS = (
    (2.745982163172557, 4.207897607975181, 3.140105309009707,
     0.2701192262718364, 0.14608790284171325, 0.8162368277531025),
    (1.6497928216124795, 0.7674019634813695, 0.21929287918095133,
     -0.8934358682923136, -0.10124845584288253, 0.06292232848062265),
)

# cli-stream record mix.  Extreme-scale records are left out: one of them
# ends a ``symdiag solve`` stream today, which would leave the CLI
# unmeasured; that defect is counted by the lib-scaled census instead.
CLI_SHARE_2X2 = 0.12
CLI_SHARE_MALFORMED = 0.03
KEYS3 = ("a11", "a22", "a33", "a12", "a13", "a23")
KEYS2 = ("a11", "a22", "a12")
MALFORMED = (
    '{"id": "bad-json", "a11": 1.0, "a22": ',
    '{"id": "bad-keys", "a11": 1.0, "a22": 2.0}',
    '{"id": "bad-type", "a11": "1", "a22": 2.0, "a12": 0.5}',
    '{"id": "bad-nan", "a11": NaN, "a22": 2.0, "a12": 0.5}',
    '[1.0, 2.0, 3.0]',
)


class CliRecord:
    """One corpus line and what the harness knows about it."""

    __slots__ = ("line", "rec_id", "dim", "entries")

    def __init__(self, line, rec_id=None, dim=0, entries=None):
        self.line = line
        self.rec_id = rec_id
        self.dim = dim          # 0 for a malformed line
        self.entries = entries  # components in KEYS3 / KEYS2 order


def cli_chunk(rng, k, first_index):
    """k JSON-lines records: mostly uniform 3x3, some 2x2, a few malformed."""
    kinds = rng.uniform(0.0, 1.0, k)
    values = rng.uniform(-1.0, 1.0, (k, 6)).tolist()
    bad = rng.integers(0, len(MALFORMED), k)
    out = []
    for i in range(k):
        rec_id = f"r{first_index + i}"
        if kinds[i] < CLI_SHARE_MALFORMED:
            out.append(CliRecord(MALFORMED[bad[i]]))
            continue
        if kinds[i] < CLI_SHARE_MALFORMED + CLI_SHARE_2X2:
            keys, entries = KEYS2, values[i][:3]
        else:
            keys, entries = KEYS3, values[i]
        rec = {"id": rec_id}
        rec.update(zip(keys, entries))
        out.append(CliRecord(json.dumps(rec), rec_id,
                             3 if keys is KEYS3 else 2, entries))
    return out
