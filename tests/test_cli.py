"""JSON-lines CLI: parsing, solve/verify/bench commands, golden corpus."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symdiag import EigenDecomp3, SymMat2, SymMat3, cli
from symdiag.cli import (
    ParseError,
    _dump_result,
    _dumps,
    cmd_bench,
    cmd_solve,
    cmd_verify,
    main,
    parse_record,
    random_symmetric_stream,
    solve_record,
)
from conftest import (
    clustered_sym3,
    random_sym2,
    random_sym3,
    structured_sym3,
)

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"
GOLDEN_INPUT = DATA / "golden_input.jsonl"
GOLDEN_EXPECTED = DATA / "golden_expected.jsonl"
# Three twin-rule reproducers, then 297 rows of
# numpy.random.default_rng(9).integers(-3, 4, (297, 6)).
INTEGER_INPUT = DATA / "integer_input.jsonl"
# Finite entries whose squares overflow a double: the solver raises on it.
HUGE_RECORD = json.dumps({"id": "huge", "a11": 1e200, "a22": 2e200,
                          "a33": 3e200, "a12": 1e199, "a13": 2e199,
                          "a23": 3e199})
NORMAL_RECORD = json.dumps({"id": "normal", "a11": 2.0, "a22": 1.0,
                            "a33": 0.5, "a12": 0.3, "a13": -0.2,
                            "a23": 0.1})
# Finite JSON integers no double holds: float() overflows on 400 digits and
# json.loads refuses 5000 (past the 4300-digit limit of int(str)).
LONG_INT_DIGITS = (400, 5000)


def long_int_record(digits):
    return ('{"id": "long", "a11": %s, "a22": 1, "a33": 1,'
            ' "a12": 0, "a13": 0, "a23": 0}' % ("9" * digits))


def corrupt_diagonalize3(monkeypatch):
    """Make the CLI's diagonalize3 return d with d[0, 0] off by 1e-3, so
    verify must fail every 3x3 record."""
    solve = cli.diagonalize3

    def corrupted(mat):
        dec = solve(mat)
        d = dec.d.copy()
        d[0, 0] += 1e-3
        return EigenDecomp3(*dec.lambdas, dec.angles, d, dec.branch,
                            dec.report)

    monkeypatch.setattr(cli, "diagonalize3", corrupted)


class TestParseRecord:
    def test_3x3(self):
        rec_id, dim, m = parse_record(
            '{"id": "x", "a11": 1, "a22": 2, "a33": 3,'
            ' "a12": 0.1, "a13": 0.2, "a23": 0.3}')
        assert rec_id == "x" and dim == 3
        assert (m.a11, m.a23) == (1.0, 0.3)

    def test_2x2_without_id(self):
        rec_id, dim, m = parse_record('{"a11": 1, "a22": 2, "a12": 0.5}')
        assert rec_id is None and dim == 2

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_record("{not json")

    def test_wrong_keys(self):
        with pytest.raises(ParseError):
            parse_record('{"a11": 1, "a22": 2}')
        with pytest.raises(ParseError):
            parse_record('{"a11": 1, "a22": 2, "a12": 0, "extra": 1}')

    def test_non_numeric_component(self):
        with pytest.raises(ParseError):
            parse_record('{"a11": "1", "a22": 2, "a12": 0}')
        with pytest.raises(ParseError):
            parse_record('{"a11": true, "a22": 2, "a12": 0}')

    def test_non_finite_component(self):
        with pytest.raises(ParseError):
            parse_record('{"a11": NaN, "a22": 2, "a12": 0}')

    def test_non_string_id(self):
        with pytest.raises(ParseError):
            parse_record('{"id": 7, "a11": 1, "a22": 2, "a12": 0}')

    def test_non_object(self):
        with pytest.raises(ParseError):
            parse_record("[1, 2, 3]")

    def test_too_deep_nesting(self):
        with pytest.raises(ParseError):
            parse_record("[" * 100_000 + "]" * 100_000)


def recursive_dumps(obj):
    """The formatter as first written, kept as the byte-for-byte reference."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {recursive_dumps(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(recursive_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    return json.dumps(obj)


class TestDumps:
    def test_special_values_match_the_reference(self):
        for obj in (-0.0, 0.0, np.float64(-0.0), np.float64(0.1), 1e-310,
                    -1.7976931348623157e308, math.nan, math.inf, -math.inf,
                    True, False, None, 0, -12, 2**70, "plain",
                    "\u00fcn\u00efc\u00f8d\u00e9 \"quoted\"\n",
                    {"k": [1.5, (2, np.float64(3.25)), {"n": None}],
                     "\u00e9": [], "e": {}},
                    [(), [[-0.0]], (True, None, "x")]):
            assert _dumps(obj) == recursive_dumps(obj), obj

    def test_solve_records_match_the_reference(self):
        rng = np.random.default_rng(61)
        mats = [(3, random_sym3(rng)) for _ in range(400)]
        mats += [(2, random_sym2(rng)) for _ in range(200)]
        mats += [(3, clustered_sym3(rng, (0.0, 1e-9)[i % 2]))
                 for i in range(400)]
        mats += [(3, structured_sym3(rng)) for _ in range(300)]
        records = [(f"\u00fc{i}", dim, m) for i, (dim, m) in enumerate(mats)]
        # a null id with -0 entries in both dimensions, a non-ASCII id
        records += [(None, 3, SymMat3(-0.0, 1.0, 2.0, -0.0, 0.0, 0.5)),
                    (None, 2, SymMat2(-0.0, -0.0, -0.0)),
                    ("\u4e2d\u6587 \"q\"\n", 3, SymMat3(*range(6)))]
        texts = []
        for rec_id, dim, m in records:
            result, _ = solve_record(rec_id, dim, m)
            texts.append(_dumps(result))
            assert texts[-1] == recursive_dumps(result), m
            assert _dump_result(result) == texts[-1], m
        assert texts[-2].startswith('{"id": null') and ", -0" in texts[-2]


class TestSolveRecord:
    def test_identity_3x3(self):
        rec_id, dim, m = parse_record(
            '{"a11": 1, "a22": 1, "a33": 1, "a12": 0, "a13": 0, "a23": 0}')
        result, _ = solve_record(rec_id, dim, m)
        assert result["eigenvalues"] == [1.0, 1.0, 1.0]
        assert result["branch"] == "TripleRoot"
        assert result["angles"] == [0.0, 0.0, 0.0]

    def test_diag_321_sorted_and_residuals(self):
        rec_id, dim, m = parse_record(
            '{"a11": 3, "a22": 2, "a33": 1, "a12": 0, "a13": 0, "a23": 0}')
        result, _ = solve_record(rec_id, dim, m)
        assert result["eigenvalues_sorted"] == pytest.approx([3.0, 2.0, 1.0])
        assert result["residuals"]["recon_rel"] <= 1e-14
        assert result["residuals"]["ortho"] <= 1e-14

    def test_2x2_has_null_branch(self):
        rec_id, dim, m = parse_record('{"a11": 2, "a22": 2, "a12": 1}')
        result, _ = solve_record(rec_id, dim, m)
        assert result["branch"] is None
        assert result["angles"] == [pytest.approx(0.25 * math.pi)]


class TestCmdSolve:
    def run(self, text):
        out = io.StringIO()
        rc = cmd_solve(io.StringIO(text), out)
        return rc, out.getvalue()

    def test_random_corpus_within_contract(self):
        lines = []
        for i, m in enumerate(random_symmetric_stream(1000, seed=7)):
            lines.append(json.dumps({
                "id": str(i), "a11": m.a11, "a22": m.a22, "a33": m.a33,
                "a12": m.a12, "a13": m.a13, "a23": m.a23}))
        rc, out = self.run("\n".join(lines) + "\n")
        assert rc == 0
        results = [json.loads(l) for l in out.splitlines()]
        assert len(results) == 1000
        assert all(r["residuals"]["recon_rel"] <= 1e-10 for r in results)

    def test_malformed_line_inline_error(self):
        rc, out = self.run('{"a11": 1, "a22": 2, "a12": 0}\n{bad\n')
        lines = out.splitlines()
        assert rc == 0 and len(lines) == 2
        assert "error" in json.loads(lines[1])

    def test_all_failures_exit_2(self):
        rc, _ = self.run("{bad\n")
        assert rc == 2

    def test_empty_stream_exit_0(self):
        rc, out = self.run("")
        assert rc == 0 and out == ""

    def test_blank_lines_skipped(self):
        rc, out = self.run('\n{"a11": 1, "a22": 2, "a12": 0}\n\n')
        assert rc == 0 and len(out.splitlines()) == 1

    def test_solver_error_inline_and_stream_continues(self):
        rc, out = self.run(HUGE_RECORD + "\n" + NORMAL_RECORD + "\n")
        lines = [json.loads(l) for l in out.splitlines()]
        assert rc == 0 and len(lines) == 2
        assert lines[0]["id"] == "huge" and "error" in lines[0]
        assert lines[1]["id"] == "normal" and lines[1]["branch"] == "Generic"

    @pytest.mark.parametrize("digits", LONG_INT_DIGITS)
    def test_long_integer_inline_error_and_stream_continues(self, digits):
        rc, out = self.run(long_int_record(digits) + "\n"
                           + NORMAL_RECORD + "\n")
        lines = [json.loads(l) for l in out.splitlines()]
        assert rc == 0 and len(lines) == 2
        assert lines[0]["id"] is None and "error" in lines[0]
        assert lines[1]["id"] == "normal" and lines[1]["branch"] == "Generic"


class TestCmdVerify:
    def corpus(self, n, seed):
        lines = []
        for m in random_symmetric_stream(n, seed):
            lines.append(json.dumps({
                "a11": m.a11, "a22": m.a22, "a33": m.a33,
                "a12": m.a12, "a13": m.a13, "a23": m.a23}))
        return "\n".join(lines) + "\n"

    def test_random_corpus_passes(self):
        out = io.StringIO()
        rc = cmd_verify(io.StringIO(self.corpus(500, 11)), out, tol=1e-9)
        summary = json.loads(out.getvalue())
        assert rc == 0
        assert summary["pass"] == 500 and summary["fail"] == 0
        assert summary["max_eigenvalue_deviation"] <= 1e-9

    def test_integer_corpus_passes(self):
        # the first three rows took the wrong twin rotation (residual ~1)
        out = io.StringIO()
        with open(INTEGER_INPUT) as fin:
            rc = cmd_verify(fin, out, tol=1e-10)
        summary = json.loads(out.getvalue())
        assert rc == 0
        assert summary["records"] == 300 and summary["pass"] == 300

    def test_double_root_corpus_passes(self):
        rng = np.random.default_rng(12)
        lines = []
        for _ in range(100):
            lam = rng.uniform(-2.0, 2.0)
            lam3 = lam + 1.5
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = (q * np.array([lam, lam, lam3])) @ q.T
            lines.append(json.dumps({
                "a11": a[0, 0], "a22": a[1, 1], "a33": a[2, 2],
                "a12": a[0, 1], "a13": a[0, 2], "a23": a[1, 2]}))
        out = io.StringIO()
        rc = cmd_verify(io.StringIO("\n".join(lines) + "\n"), out, tol=1e-7)
        assert rc == 0

    def test_solver_error_counts_as_failed(self):
        out = io.StringIO()
        rc = cmd_verify(io.StringIO(HUGE_RECORD + "\n" + NORMAL_RECORD + "\n"),
                        out, tol=1e-9)
        summary = json.loads(out.getvalue())
        assert rc == 1
        assert summary["records"] == 2
        assert summary["pass"] == 1 and summary["fail"] == 1
        assert summary["solver_errors"] == 1

    def test_malformed_line_counts_as_failed(self):
        out = io.StringIO()
        rc = cmd_verify(io.StringIO(NORMAL_RECORD + "\n{not json\n"
                                    + NORMAL_RECORD + "\n"), out, tol=1e-9)
        summary = json.loads(out.getvalue())
        assert rc == 1
        assert summary["records"] == 3
        assert summary["pass"] == 2 and summary["fail"] == 1
        assert summary["parse_errors"] == 1 and summary["solver_errors"] == 0

    @pytest.mark.parametrize("digits", LONG_INT_DIGITS)
    def test_long_integer_counts_as_parse_error(self, digits):
        out = io.StringIO()
        rc = cmd_verify(io.StringIO(long_int_record(digits) + "\n"
                                    + NORMAL_RECORD + "\n"), out, tol=1e-9)
        summary = json.loads(out.getvalue())
        assert rc == 1
        assert summary["records"] == 2
        assert summary["pass"] == 1 and summary["fail"] == 1
        assert summary["parse_errors"] == 1 and summary["solver_errors"] == 0

    def test_corrupt_hook_reports_failures(self, monkeypatch):
        corrupt_diagonalize3(monkeypatch)
        out = io.StringIO()
        rc = cmd_verify(io.StringIO(self.corpus(20, 13)), out, tol=1e-9)
        summary = json.loads(out.getvalue())
        assert rc == 1
        assert summary["fail"] > 0


class TestCmdBench:
    def test_smoke_n1(self):
        out = io.StringIO()
        assert cmd_bench(out, n=1, seed=0) == 0
        report = json.loads(out.getvalue())
        assert report["closed_form"]["median_us"] > 0
        assert report["jacobi"]["median_us"] > 0
        assert "throughput_ratio_closed_over_jacobi" in report

    def test_same_seed_same_stream(self):
        a = [m.to_array() for m in random_symmetric_stream(50, seed=42)]
        b = [m.to_array() for m in random_symmetric_stream(50, seed=42)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = [m.to_array() for m in random_symmetric_stream(50, seed=43)]
        assert not np.array_equal(a[0], c[0])


class TestMainEntry:
    def test_solve_files_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        rc = main(["solve", "--input", str(GOLDEN_INPUT),
                   "--output", str(out_path)])
        assert rc == 0
        assert len(out_path.read_text().splitlines()) == 12

    def test_missing_input_exit_2(self, capsys):
        assert main(["solve", "--input", "/nonexistent.jsonl"]) == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--input", str(GOLDEN_INPUT), "--output", "{missing}"],
        ["solve", "--input", str(GOLDEN_INPUT), "--output", "{ok}"],
        ["verify", "--input", str(GOLDEN_INPUT), "--tol", "1e-9"],
    ])
    def test_every_opened_file_is_closed(self, argv, tmp_path, monkeypatch,
                                          capsys):
        # the unwritable output is opened after the input, which must still
        # be closed when main reports the error and returns 2
        opened = []

        def tracking_open(*args, **kwargs):
            f = open(*args, **kwargs)
            opened.append(f)
            return f

        monkeypatch.setattr(cli, "open", tracking_open, raising=False)
        argv = [a.format(missing=tmp_path / "no-such-dir" / "out.jsonl",
                         ok=tmp_path / "out.jsonl") for a in argv]
        rc = main(argv)
        assert rc == (2 if "no-such-dir" in " ".join(argv) else 0)
        assert opened and all(f.closed for f in opened)

    def test_verify_requires_positive_tol(self, capsys):
        assert main(["verify", "--input", str(GOLDEN_INPUT), "--tol", "0"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_verify_rejects_non_finite_tol(self, tol, capsys):
        # a NaN tol failed every record and an infinite one passed them all
        rc = main(["verify", "--input", str(GOLDEN_INPUT), f"--tol={tol}"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "--tol must be positive and finite" in err

    def test_verify_self_test_corrupt(self, monkeypatch, capsys):
        corrupt_diagonalize3(monkeypatch)
        rc = main(["verify", "--input", str(GOLDEN_INPUT), "--tol", "1e-7"])
        capsys.readouterr()
        assert rc == 1

    def test_verify_malformed_line_still_summarizes(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(NORMAL_RECORD + "\n[1, 2]\n" + NORMAL_RECORD + "\n")
        rc = main(["verify", "--input", str(path), "--tol", "1e-9"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert summary["records"] == 3 and summary["parse_errors"] == 1

    def test_bench_rejects_n_zero(self, capsys):
        assert main(["bench", "--n", "0", "--seed", "1"]) == 2

    def test_parser_is_built_once_and_reused(self, tmp_path, monkeypatch,
                                             capsys):
        # a stream solved in chunks calls main per chunk; one call's
        # arguments must not leak into the next through the shared parser
        main(["verify", "--input", str(GOLDEN_INPUT), "--tol", "1e-9"])

        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
        out_path = tmp_path / "out.jsonl"
        assert main(["solve", "--input", str(GOLDEN_INPUT),
                     "--output", str(out_path)]) == 0
        assert out_path.read_text() == GOLDEN_EXPECTED.read_text()
        args = cli.build_parser().parse_args(["solve"])
        assert (args.input, args.output) == ("-", "-")
        assert not hasattr(args, "tol")


class TestGoldenCorpus:
    def test_byte_identical_to_frozen_output(self):
        with open(GOLDEN_INPUT) as fin:
            out = io.StringIO()
            rc = cmd_solve(fin, out)
        assert rc == 0
        assert out.getvalue() == GOLDEN_EXPECTED.read_text()

    def test_byte_identical_across_runs(self):
        outs = []
        for _ in range(2):
            with open(GOLDEN_INPUT) as fin:
                out = io.StringIO()
                cmd_solve(fin, out)
            outs.append(out.getvalue())
        assert outs[0] == outs[1]

    def test_corpus_covers_the_required_cases(self):
        records = [json.loads(l) for l in GOLDEN_INPUT.read_text().splitlines()]
        assert len(records) == 12
        results = [json.loads(l)
                   for l in GOLDEN_EXPECTED.read_text().splitlines()]
        branches = {r["branch"] for r in results}
        assert {"TripleRoot", "DoubleRoot", "Generic", None} <= branches
        assert sum(r["dim"] == 2 for r in results) >= 3


class TestBlasKernel:
    def test_solve_bytes_same_under_every_openblas_kernel(self):
        """Eigenvectors and residuals are plain-float arithmetic, so
        ``symdiag solve`` prints the same bytes whichever kernel OpenBLAS
        runs: the one it picks for the CPU, or one forced through
        OPENBLAS_CORETYPE."""
        outs = {}
        for core in (None, "Haswell", "Zen", "Nehalem", "Sandybridge"):
            env = dict(os.environ, PYTHONPATH=str(SRC))
            env.pop("OPENBLAS_CORETYPE", None)
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            outs[core] = subprocess.run(
                [sys.executable, "-m", "symdiag.cli", "solve",
                 "--input", str(INTEGER_INPUT)], env=env,
                capture_output=True, timeout=120, check=True).stdout
        assert outs[None].count(b"\n") == 300
        for core, out in outs.items():
            assert out == outs[None], core


class TestColdStart:
    def fresh(self, code, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, timeout=120)

    def test_import_loads_the_stdlib_only(self):
        """A fresh ``import symdiag, symdiag.cli`` must not pull in numpy
        or scipy, whose imports cost most of the start-up of ``symdiag
        solve``."""
        code = ("import sys; before = set(sys.modules); "
                "import symdiag, symdiag.cli; "
                "print(symdiag.__file__); "
                "print(*sorted({m.split('.')[0] for m in sys.modules} "
                "- {m.split('.')[0] for m in before} "
                "- set(sys.stdlib_module_names)))")
        run = self.fresh(code)
        assert run.returncode == 0, run.stderr
        path, loaded = run.stdout.decode().splitlines()
        assert Path(path).resolve().is_relative_to(SRC)
        assert loaded.split() == ["symdiag"]

    def test_solve_never_imports_numpy(self):
        """``symdiag solve`` runs from start to end on Python floats: the
        golden bytes come out and numpy is still not loaded."""
        code = ("import sys, symdiag.cli; "
                "rc = symdiag.cli.main(['solve', '--input', sys.argv[1]]); "
                "sys.stdout.flush(); "
                "print('numpy' in sys.modules, file=sys.stderr); "
                "sys.exit(rc)")
        run = self.fresh(code, str(GOLDEN_INPUT))
        assert run.returncode == 0, run.stderr
        assert run.stdout == GOLDEN_EXPECTED.read_bytes()
        assert run.stderr == b"False\n"

    def test_verify_never_imports_numpy(self):
        """``symdiag verify`` checks every record against the Jacobi
        oracle's float entry point, so numpy is not loaded either."""
        code = ("import sys, symdiag.cli; "
                "rc = symdiag.cli.main(['verify', '--input', sys.argv[1], "
                "'--tol', '1e-10']); "
                "sys.stdout.flush(); "
                "print('numpy' in sys.modules, file=sys.stderr); "
                "sys.exit(rc)")
        for path, n in ((GOLDEN_INPUT, 12), (INTEGER_INPUT, 300)):
            run = self.fresh(code, str(path))
            assert run.returncode == 0, run.stderr
            assert json.loads(run.stdout)["pass"] == n
            assert run.stderr == b"False\n"
