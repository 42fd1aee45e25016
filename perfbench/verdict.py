"""Correctness checks on the program's outputs, outside the timed region.

Each output is compared with ``numpy.linalg.eigvalsh`` on the same input
and its reconstruction residual and orthogonality are checked.  A failure
is classified as one of ``raised:<ExceptionName>``, ``non-finite``,
``eigenvalue`` (mismatch) or ``residual``; ``None`` marks a pass.

All checks run on the input divided by the power of two nearest its
largest entry.  That division is exact, so the checks are the same at
every scale and cannot themselves overflow.
"""

import json

import numpy as np


def judge(a, lam, d, bounds):
    """Failure class per matrix (``None`` for a pass).

    ``a`` is ``(K, n, n)``, ``lam`` the reported eigenvalues ``(K, n)`` in
    any order, ``d`` the reported eigenvector matrices ``(K, n, n)`` and
    ``bounds`` the ``(K, 3)`` (eigenvalue, reconstruction, orthogonality)
    limits.  Eigenvalue error is relative to max|lambda|, reconstruction
    relative to ||A||_F.
    """
    n = a.shape[-1]
    big = np.max(np.abs(a), axis=(1, 2))
    s = np.ldexp(1.0, np.frexp(big)[1])
    a = a / s[:, None, None]
    with np.errstate(all="ignore"):
        lam = lam / s[:, None]
        finite = (np.isfinite(lam).all(axis=1)
                  & np.isfinite(d).all(axis=(1, 2)))
        lam = np.where(finite[:, None], lam, 0.0)
        d = np.where(finite[:, None, None], d, 0.0)
    ref = np.linalg.eigvalsh(a)
    ref_max = np.max(np.abs(ref), axis=1)
    eig_err = (np.max(np.abs(np.sort(lam, axis=1) - ref), axis=1)
               / np.where(ref_max > 0.0, ref_max, 1.0))
    a_norm = np.linalg.norm(a, axis=(1, 2))
    recon = (d * lam[:, None, :]) @ np.swapaxes(d, 1, 2)
    recon_err = (np.linalg.norm(recon - a, axis=(1, 2))
                 / np.where(a_norm > 0.0, a_norm, 1.0))
    ortho_err = np.linalg.norm(np.swapaxes(d, 1, 2) @ d - np.eye(n),
                               axis=(1, 2))
    verdict = np.where(~finite, "non-finite",
                       np.where(eig_err > bounds[:, 0], "eigenvalue",
                                np.where((recon_err > bounds[:, 1])
                                         | (ortho_err > bounds[:, 2]),
                                         "residual", "")))
    return [v or None for v in verdict.tolist()]


def full3(rows):
    """(K, 3, 3) symmetric matrices from (K, 6) SymMat3-ordered rows."""
    a11, a22, a33, a12, a13, a23 = rows.T
    return np.stack([np.stack([a11, a12, a13], axis=1),
                     np.stack([a12, a22, a23], axis=1),
                     np.stack([a13, a23, a33], axis=1)], axis=1)


def full2(rows):
    a11, a22, a12 = rows.T
    return np.stack([np.stack([a11, a12], axis=1),
                     np.stack([a12, a22], axis=1)], axis=1)


def check_lib(rows, bounds, outputs):
    """Verdicts for one chunk of ``diagonalize3`` results or exceptions."""
    verdicts = [None] * len(outputs)
    done = []
    for i, out in enumerate(outputs):
        if isinstance(out, BaseException):
            verdicts[i] = "raised:" + type(out).__name__
        else:
            done.append(i)
    if done:
        lam = np.array([outputs[i].lambdas for i in done], dtype=float)
        d = np.array([outputs[i].d for i in done], dtype=float)
        for i, v in zip(done, judge(full3(rows[done]), lam, d,
                                    bounds[done])):
            verdicts[i] = v
    return verdicts


def check_solve(records, text, bounds3, bounds2, missing="output-count"):
    """Verdicts for one ``symdiag solve`` output against its input records.

    A malformed line passes when an inline error record stands in its
    place; a well-formed one when its result names the same id and
    dimension and passes ``judge``.  Records with no output line get
    ``missing`` (the class of the exception that ended the stream).
    """
    lines = text.splitlines()
    if len(lines) > len(records):
        return ["output-count"] * len(records)
    verdicts = [None] * len(lines) + [missing] * (len(records) - len(lines))
    groups = {2: ([], [], [], []), 3: ([], [], [], [])}
    for i, (rec, line) in enumerate(zip(records, lines)):
        try:
            out = json.loads(line)
        except ValueError:
            verdicts[i] = "bad-output"
            continue
        if rec.dim == 0:
            if set(out) != {"id", "error"} or out["id"] is not None:
                verdicts[i] = "missing-error-record"
            continue
        if "error" in out:
            verdicts[i] = "raised:inline-error"
            continue
        if out.get("id") != rec.rec_id or out.get("dim") != rec.dim:
            verdicts[i] = "bad-output"
            continue
        idx, ents, lams, vecs = groups[rec.dim]
        idx.append(i)
        ents.append(rec.entries)
        lams.append(out["eigenvalues"])
        vecs.append(out["eigenvectors"])
    for dim, (idx, ents, lams, vecs) in groups.items():
        if not idx:
            continue
        rows = np.array(ents, dtype=float)
        a = full3(rows) if dim == 3 else full2(rows)
        # eigenvectors are written column by column
        d = np.swapaxes(np.array(vecs, dtype=float), 1, 2)
        bounds = np.tile(bounds3 if dim == 3 else bounds2, (len(idx), 1))
        for i, v in zip(idx, judge(a, np.array(lams, dtype=float), d,
                                   bounds)):
            verdicts[i] = v
    return verdicts


def check_verify(n_records, code, text):
    """Failed-record count of one ``symdiag verify`` run (0 when it passed).

    The summary must cover every record and agree with the exit code;
    otherwise no record can be trusted and all count as failed.
    """
    try:
        summary = json.loads(text)
    except ValueError:
        return n_records
    fail = summary.get("fail")
    if (summary.get("records") != n_records or not isinstance(fail, int)
            or (code == 0) != (fail == 0)):
        return n_records
    return fail
