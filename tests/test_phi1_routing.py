"""eig3._route_phi1 against the routing chain it folds (phi1_reference).

The fold must not move a bit: diagonalize3 with eig3's resolve_signs is
compared, field by field by repr, with diagonalize3 running the reference
version, on corpora that reach every branch, both routes and neither,
near-ties, (+,-) winners and the twin rule's flips.  The 102 000 rows are
the bit pin of every Generic, AlreadyDiagonal2D and TripleRoot result.
"""

import math

import numpy as np

from symdiag import Branch, SymMat3, diagonalize3, eig3, f_vectors
from symdiag.core import rotation_entries

import phi1_reference
from conftest import graded_rows
from perfbench.workloads import (clustered_chunk, near_double_chunk,
                                 scaled_chunk, uniform_chunk)


def _sym_rows(m):
    """(N, 6) unique entries of (N, 3, 3) matrices, symmetrized as
    SymMat3.from_array does."""
    return np.stack([m[:, 0, 0], m[:, 1, 1], m[:, 2, 2],
                     0.5 * (m[:, 0, 1] + m[:, 1, 0]),
                     0.5 * (m[:, 0, 2] + m[:, 2, 0]),
                     0.5 * (m[:, 1, 2] + m[:, 2, 1])], axis=1)


def _near_half_pi(rng, k):
    """D diag(l) D^T with phi2 = +-(pi/2 - 10^-j), j in 4..16, and phi1,
    phi3 and the eigenvalues uniform."""
    phi2 = np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0) * (
        0.5 * math.pi - 10.0 ** -rng.integers(4, 17, k))
    phi1, phi3 = rng.uniform(-1.5, 1.5, (2, k))
    d = np.array([rotation_entries(*p) for p in zip(phi1.tolist(),
                                                    phi2.tolist(),
                                                    phi3.tolist())])
    d = d.reshape(k, 3, 3)
    lams = rng.uniform(-3.0, 3.0, (k, 3))
    return _sym_rows((d * lams[:, None, :]) @ np.swapaxes(d, 1, 2))


def corpus():
    """About 102 000 rows, as lists of six floats."""
    rng = np.random.default_rng(2027)
    parts = [uniform_chunk(rng, 20000)[0],
             clustered_chunk(rng, 20000)[0],
             near_double_chunk(rng, 10000)[0],
             scaled_chunk(rng, 15000)[0]]
    # near-block: a12 and a13 times 10^-k, k in 4..16
    rows = rng.uniform(-1.0, 1.0, (8000, 6))
    rows[:, 3:5] *= 10.0 ** -rng.integers(4, 17, (8000, 1))
    parts.append(rows)
    parts.append(_near_half_pi(rng, 8000))
    parts.append(graded_rows(rng, 8000))
    # mean-shift: c I + 10^-i U, |c| in [1, 1e4], i in 1..5
    c = np.where(rng.uniform(size=8000) < 0.5, -1.0, 1.0) * 10.0 ** (
        rng.uniform(0.0, 4.0, 8000))
    rows = 10.0 ** -rng.integers(1, 6, (8000, 1)) * rng.uniform(
        -1.0, 1.0, (8000, 6))
    rows[:, :3] += c[:, None]
    parts.append(rows)
    parts.append(rng.integers(-3, 4, (5000, 6)).astype(float))
    return np.concatenate(parts).tolist()


def solve_all(rows):
    """repr of each decomposition's fields, or the exception raised."""
    out = []
    for row in rows:
        try:
            dec = diagonalize3(SymMat3(*row))
        except Exception as e:
            out.append((type(e), str(e)))
        else:
            out.append(repr((dec.lambdas, dec.angles, dec.d_entries,
                             dec.branch, dec.report)))
    return out


def test_fold_is_bit_identical_to_the_chain(monkeypatch):
    rows = corpus()
    assert len(rows) >= 100_000
    got = solve_all(rows)
    monkeypatch.setattr(eig3, "resolve_signs", phi1_reference.resolve_signs)
    want = solve_all(rows)
    bad = [(rows[i], g, w) for i, (g, w) in enumerate(zip(got, want))
           if g != w]
    assert not bad, (len(bad), bad[:3])
    # the corpus reaches what the fold has to keep
    seen = dict.fromkeys(Branch, 0)
    seen.update(near_tie=0, minus=0, flipped=0, one_route=0)
    for row in rows:
        dec = diagonalize3(SymMat3(*row))
        rep = dec.report
        seen[dec.branch] += 1
        seen["near_tie"] += rep.near_tie
        seen["flipped"] += rep.selected_signs[0] == -1
        seen["minus"] += len(rep.phi1_candidates) == 2 and (
            rep.selected_signs[0] * rep.selected_signs[1] == -1)
        seen["one_route"] += any(math.isnan(c[4])
                                 for c in rep.phi1_candidates)
    del seen[Branch.TRIPLE_ROOT]  # it runs no routing
    assert min(seen.values()) >= 5, seen


def test_f_norms_are_those_of_f_vectors():
    """resolve_signs (through the report) and the DoubleRoot and TripleRoot
    branches give f1_norm and f2_norm as math.hypot of the f_vectors
    entries, bit for bit, on matrices diagonalize3 solves unnormalized."""
    rng = np.random.default_rng(2028)
    rows = uniform_chunk(rng, 2000)[0].tolist()
    rows += clustered_chunk(rng, 2000)[0].tolist()
    # AlreadyDiagonal2D: f1 = 0
    rows += [row[:3] + [0.0, 0.0, row[5]]
             for row in uniform_chunk(rng, 200)[0].tolist()]
    # TripleRoot: c I with off-diagonal entries below its bound
    rows += [[c, c, c, x, y, z] for c, x, y, z in zip(
        rng.uniform(1.0, 3.0, 500).tolist(),
        *(rng.uniform(-1e-13, 1e-13, (3, 500)).tolist()))]
    seen = dict.fromkeys(Branch, 0)
    for row in rows:
        a = SymMat3(*row)
        dec = diagonalize3(a)
        a11, a22, a33, a12, a13, a23 = row
        fro2 = (a11 * a11 + a22 * a22 + a33 * a33
                + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23))
        t = a11 + a22 + a33
        if dec.branch is not Branch.TRIPLE_ROOT and not (
                1.0 <= fro2 <= 2.0 ** 320
                and t * t < 3.0 * (1.0 - 1.0 / 256.0) * fro2):
            continue  # scaled or shifted: the norms are mapped back
        seen[dec.branch] += 1
        f1, f2 = f_vectors(a)
        want = (math.hypot(*f1.tolist()), math.hypot(*f2.tolist()))
        assert repr((dec.report.f1_norm, dec.report.f2_norm)) == repr(
            want), row
    assert min(seen.values()) >= 5, seen
