"""symdiag benchmark: library and CLI goodput, latency, set-up and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload lib-random --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with a single caller: the next
matrix (or CLI chunk) is submitted only after the previous one returned.
Inputs come from ``--seed`` and are generated outside the timed region;
every output is checked afterwards (see ``verdict.py``) and failures are
counted against attempts.  Timings are in reference seconds: measured
seconds scaled by a host-speed task timed beside every chunk (see
``reference.py``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs part of the time untraced and the rest with timing
wrappers swapped into the program's modules (see ``spans.py``) and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it holds the environment and the run's notes.
See ``NOTES.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import spans
import startup
import verdict
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("lib-random", "lib-clustered", "cli-stream")
LIB_CHUNK = 250
CLI_CHUNK = 50
VERIFY_TOL = 1e-10      # criterion 1's reconstruction and Jacobi bound
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WARMUP_SHARE = 0.1      # of --seconds, at most WARMUP_MAX_S
WARMUP_MAX_S = 1.0
UNTRACED_SHARE = 0.4    # of --seconds in a traced run
REF_MATRICES = 20_000
REF_REPEATS = 5

SELF_LAYERS = (
    "bench.call", "core.SymMat3", "eig3.char_coeffs", "eig3.compute_pq",
    "eig3.eigenvalues3", "eig3.compute_v", "eig3.compute_w",
    "eig3.resolve_signs", "eig3.compose_rotation",
    "eig3._reconstruction_residual", "eig3._polish_angles",
    "eig3.degenerate_double", "eig3.diagonalize3", "cli.main",
    "cli.cmd_solve", "cli.cmd_verify", "cli.parse_record",
    "cli.solve_record", "cli._dumps", "eig2.diagonalize2",
    "oracle.residuals", "oracle.jacobi_eigen")
BRANCHES = ("Generic", "TripleRoot", "DoubleRoot", "AlreadyDiagonal2D")
RAISED = ("OverflowError", "NonFiniteInput", "ValueError", "DomainExcursion",
          "NotDoubleRoot", "ZeroDivisionError")
# Failure classes the census reports one by one; the rest read as "other".
CENSUS_FAILURES = ("raised:OverflowError", "raised:NonFiniteInput",
                   "non-finite", "eigenvalue", "residual")


class Chunk:
    """One timed chunk: measured seconds, operations attempted and correct,
    per-call (CLI: per-record) latencies in seconds, the reference factor
    that turns its seconds into reference seconds, and its span range."""

    __slots__ = ("seconds", "attempted", "ok", "latency", "factor",
                 "spans")

    def __init__(self, seconds, attempted, ok, latency, factor, spans):
        self.seconds = seconds
        self.attempted = attempted
        self.ok = ok
        self.latency = latency
        self.factor = factor
        self.spans = spans


class Phase:
    """Counts and timings of one measured stretch of a workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0            # matrices, or CLI corpus records
        self.attempted = 0      # checked operations (CLI: solve + verify)
        self.failed = 0
        self.failures = {}      # failure class -> count
        self.busy = 0.0         # seconds inside timed regions
        self.chunks = []        # lib calls, or CLI solve runs
        self.verify_chunks = [] # CLI verify runs
        self.ref_rows = []      # 3x3 inputs kept for the yardsticks
        self.fp_warnings = 0
        self.other_warnings = 0
        self.reference = [reference.task_seconds()]
        self._span_mark = 0

    def count(self, verdicts):
        bad = [v for v in verdicts if v is not None]
        self.attempted += len(verdicts)
        self.failed += len(bad)
        for v in bad:
            self.failures[v] = self.failures.get(v, 0) + 1
        return len(verdicts) - len(bad)

    def close_chunk(self, into, seconds, attempted, ok, latency=()):
        """Record a timed chunk; the reference task runs right after it."""
        self.reference.append(reference.task_seconds())
        factor = reference.REF_TASK_S / (0.5 * sum(self.reference[-2:]))
        end = len(self.tracer.sid) if self.tracer is not None else 0
        into.append(Chunk(seconds, attempted, ok, array("d", latency),
                          factor, (self._span_mark, end)))
        self._span_mark = end
        self.busy += seconds

    def keep_ref(self, rows):
        if sum(len(r) for r in self.ref_rows) < REF_MATRICES:
            self.ref_rows.append(rows)


def goodput(chunks, ref=True):
    """Median over chunks of correct operations per (reference) second."""
    return statistics.median(
        c.ok / (c.seconds * (c.factor if ref else 1.0)) for c in chunks)


def latency_us(chunks, pct, ref=True):
    lat = np.concatenate([np.frombuffer(c.latency)
                          * (c.factor if ref else 1.0) for c in chunks])
    return float(np.percentile(lat, pct)) * 1e6


def ref_seconds(chunks):
    return sum(c.seconds * c.factor for c in chunks)


def ref_cost(ph):
    """Reference seconds per matrix, or per CLI record (solve + verify)."""
    cost = ref_seconds(ph.chunks) / ph.ops
    if ph.verify_chunks:
        cost += (ref_seconds(ph.verify_chunks)
                 / sum(c.attempted for c in ph.verify_chunks))
    return cost


class FpCounter:
    """numpy floating-point error callback that only counts."""

    def __init__(self):
        self.count = 0

    def __call__(self, kind, flag):
        self.count += 1


@contextmanager
def counted_warnings(phase):
    """Count floating-point warnings instead of printing them.

    numpy's 'warn' actions become 'call' into a counter; anything else
    that goes through ``warnings`` is recorded and counted too.
    """
    counter = FpCounter()
    modes = {k: ("call" if v == "warn" else v) for k, v in np.geterr().items()}
    old = np.seterrcall(counter)
    try:
        with np.errstate(**modes), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        np.seterrcall(old)
        rt = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        phase.fp_warnings += counter.count + rt
        phase.other_warnings += len(caught) - rt


def measure_lib(workload, rng, seconds, mods, tracer=None):
    make_chunk = wl.LIB_WORKLOADS[workload]
    make = mods["symdiag.core"].SymMat3
    diag = mods["symdiag.eig3"].diagonalize3  # the stand-in when traced
    if tracer is not None:
        make = tracer.wrap("core.SymMat3", make)

    def call(row):
        return diag(make(*row))

    if tracer is not None:
        call = tracer.wrap("bench.call", call, root=True)
    ph = Phase(tracer)
    with counted_warnings(ph):
        while ph.busy < seconds:
            rows, bounds = make_chunk(rng, LIB_CHUNK)
            outs = [None] * len(rows)
            lat = [0.0] * len(rows)
            start = perf_counter()
            for i, row in enumerate(rows):
                t0 = perf_counter()
                try:
                    outs[i] = call(row)
                except Exception as e:  # counted as a failure below
                    outs[i] = e
                lat[i] = perf_counter() - t0
            busy = perf_counter() - start
            ph.close_chunk(ph.chunks, busy, len(rows),
                           ph.count(verdict.check_lib(rows, bounds, outs)),
                           lat)
            ph.ops += len(rows)
            ph.keep_ref(rows)
    return ph


class TimedLines:
    """Stands in for stdin: yields lines, noting when each was read."""

    def __init__(self, lines, ids, tracer):
        self.lines, self.ids, self.tracer = lines, ids, tracer
        self.t_in = []

    def __iter__(self):
        for line, rec in zip(self.lines, self.ids):
            if self.tracer is not None:
                self.tracer.current_op = rec
            self.t_in.append(perf_counter())
            yield line


class TimedSink:
    """Stands in for stdout: keeps the text, noting when each write came."""

    def __init__(self):
        self.parts = []
        self.t_out = []

    def write(self, s):
        self.t_out.append(perf_counter())
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def run_main(cli, argv, lines, ids, tracer):
    """``symdiag.cli.main(argv)`` on ``lines`` as stdin, in-process.

    Returns (exit code or exception class name, stdin, stdout, seconds).
    """
    fin, fout = TimedLines(lines, ids, tracer), TimedSink()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = fin, fout
    try:
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # ends the stream; counted by the caller
            code = type(e).__name__
        dt = perf_counter() - t0
    finally:
        sys.stdin, sys.stdout = saved
    return code, fin, fout, dt


def measure_cli(rng, seconds, mods, tracer=None):
    cli = mods["symdiag.cli"]
    ph = Phase(tracer)
    first = 0
    with counted_warnings(ph):
        while ph.busy < seconds:
            records = wl.cli_chunk(rng, CLI_CHUNK, first)
            ids = range(first, first + len(records))
            first += len(records)

            code, fin, fout, dt = run_main(
                cli, ["solve"], [r.line for r in records], ids, tracer)
            missing = "raised:" + code if isinstance(code, str) \
                else "output-count"
            ok = ph.count(verdict.check_solve(
                records, fout.text(), wl.UNIFORM_BOUNDS,
                wl.TWO_BY_TWO_BOUNDS, missing))
            ph.close_chunk(ph.chunks, dt, len(records), ok, [
                b - a for a, b in zip(fin.t_in, fout.t_out)])
            ph.ops += len(records)

            good = [(i, r) for i, r in zip(ids, records) if r.dim]
            code, _, fout, dt = run_main(
                cli, ["verify", "--tol", repr(VERIFY_TOL)],
                [r.line for _, r in good], [i for i, _ in good], tracer)
            vfail = verdict.check_verify(
                len(good), code if isinstance(code, int) else -1,
                fout.text())
            ph.attempted += len(good)
            ph.failed += vfail
            if vfail:
                ph.failures["verify"] = ph.failures.get("verify", 0) + vfail
            ph.close_chunk(ph.verify_chunks, dt, len(good), len(good) - vfail)

            three = [r.entries for r in records if r.dim == 3]
            if three:
                ph.keep_ref(np.array(three))
    return ph


def solve_all(rows, make, diag):
    """``diag(make(*row))`` on every row, untimed; an exception stands in
    for its row's result."""
    outs = []
    for row in rows:
        try:
            outs.append(diag(make(*row)))
        except Exception as e:  # counted as a failure by the caller
            outs.append(e)
    return outs


def census(seq, mods):
    """Failures on the input classes kept out of the timed workloads.

    Each class in ``workloads.CENSUS`` is solved on ``CENSUS_SIZE`` inputs
    from its own child of ``seq``, so a seed gives the same census every
    run; the known-defect reproducers are solved as well.  The classes are
    solved with the ``eig3`` layers traced, for their routing shares.
    Returns the census metrics and the failure counts by class.
    """
    make = mods["symdiag.core"].SymMat3
    m, failures = {}, {}
    for (name, make_chunk), child in zip(wl.CENSUS.items(),
                                         seq.spawn(len(wl.CENSUS))):
        rows, bounds = make_chunk(np.random.default_rng(child),
                                  wl.CENSUS_SIZE)
        ph = Phase()
        tracer = spans.Tracer()
        with counted_warnings(ph), tracer.patched(mods, spans.EIG3_LAYERS):
            outs = solve_all(rows, make, mods["symdiag.eig3"].diagonalize3)
        ph.count(verdict.check_lib(rows, bounds, outs))
        m.update(routing(tracer, f"census.{name}.", ph.attempted))
        m[f"census.{name}.fail_share"] = (ph.failed / ph.attempted, "share")
        for f in CENSUS_FAILURES:
            m[f"census.{name}.{f.replace(':', '.')}"] = (
                ph.failures.get(f, 0) / ph.attempted, "share")
        m[f"census.{name}.other"] = (sum(
            v for k, v in ph.failures.items() if k not in CENSUS_FAILURES)
            / ph.attempted, "share")
        m[f"census.{name}.fp_warnings"] = (
            ph.fp_warnings / ph.attempted, "1/op")
        failures[name] = ph.failures
    rows = np.array(wl.KNOWN_DEFECTS)
    ph = Phase()
    with counted_warnings(ph):
        outs = solve_all(rows, make, mods["symdiag.eig3"].diagonalize3)
    ph.count(verdict.check_lib(
        rows, np.tile(wl.NEAR_DOUBLE_BOUNDS, (len(rows), 1)), outs))
    m["census.known_defects.failing"] = (ph.failed, "count")
    failures["known_defects"] = ph.failures
    return m, failures


def measure(workload, rng, seconds, mods, tracer=None):
    if workload == "cli-stream":
        return measure_cli(rng, seconds, mods, tracer)
    return measure_lib(workload, rng, seconds, mods, tracer)


def yardsticks(rows):
    """Batched numpy eigh / eigvalsh on the run's own 3x3 inputs, us/matrix."""
    a = verdict.full3(np.concatenate(rows)[:REF_MATRICES])
    out = {}
    for name, fn in (("ref.numpy_eigh_batched.us_per_matrix", np.linalg.eigh),
                     ("ref.numpy_eigvalsh_batched.us_per_matrix",
                      np.linalg.eigvalsh)):
        fn(a)
        times = []
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            fn(a)
            times.append(perf_counter() - t0)
        out[name] = statistics.median(times) / len(a) * 1e6
    return out


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": {
            "lib_chunk": LIB_CHUNK, "cli_chunk": CLI_CHUNK,
            "cluster_gaps": wl.CLUSTER_GAPS,
            "scale_exponents": wl.SCALE_EXPONENTS,
            "cli_share_2x2": wl.CLI_SHARE_2X2,
            "cli_share_malformed": wl.CLI_SHARE_MALFORMED,
            "verify_tol": VERIFY_TOL,
            "bounds": {"uniform": wl.UNIFORM_BOUNDS,
                       "double_root": wl.DOUBLE_ROOT_BOUNDS,
                       "near_double": wl.NEAR_DOUBLE_BOUNDS,
                       "two_by_two": wl.TWO_BY_TWO_BOUNDS},
        },
    }


def end_to_end(ph, setup):
    return {
        "setup_s": (setup, "s"),
        "goodput_ref_per_s": (goodput(ph.chunks), "1/s"),
        "call_ref_us_p50": (latency_us(ph.chunks, 50), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def share(x, of):
    return x / of if of else 0.0


def routing(tracer, prefix, n):
    """Reroute and branch shares over ``n`` matrices, named under ``prefix``."""
    causes = tracer.errors_in(spans.REROUTE_LAYERS)
    rerouted = sum(causes.get(c, 0) for c in spans.REROUTE_CAUSES)
    m = {prefix + "reroute_share": (share(rerouted, n), "share")}
    for c in spans.REROUTE_CAUSES:
        m[prefix + "reroute." + c] = (share(causes.get(c, 0), n), "share")
    for b in BRANCHES:
        m[f"{prefix}branch.{b}_share"] = (
            share(tracer.branches.get(b, 0), n), "share")
    return m


def per_layer(plain, traced, tracer, imports, refs):
    weights = np.zeros(len(tracer.sid))
    for c in traced.chunks + traced.verify_chunks:
        weights[c.spans[0]:c.spans[1]] = c.factor
    own, root = tracer.self_times(weights)
    ops = traced.ops
    m = {}
    for name in SELF_LAYERS:
        m[name + ".self_us"] = (own.get(name, 0.0) / ops * 1e6, "us")
    n_diag = tracer.calls("eig3.diagonalize3")
    m["eig3.compose_rotation.calls_per_matrix"] = (
        share(tracer.calls("eig3.compose_rotation"), n_diag), "count")
    n_polish = tracer.calls("eig3._polish_angles")
    m["eig3._polish_angles.fired_share"] = (share(n_polish, n_diag), "share")
    m["eig3._polish_angles.useful_share"] = (
        share(tracer.polish_useful, n_polish), "share")
    m.update(routing(tracer, "eig3.", n_diag))
    m["eig3.near_tie_share"] = (share(tracer.near_ties, n_diag), "share")
    raised = tracer.errors_in(["eig3.diagonalize3"])
    for r in RAISED:
        m["eig3.raised." + r] = (share(raised.get(r, 0), n_diag), "share")
    m["eig3.raised.other"] = (share(
        sum(v for k, v in raised.items() if k not in RAISED), n_diag),
        "share")
    m["numpy.fp_warnings"] = (share(traced.fp_warnings, ops), "1/op")
    m["oracle.jacobi_eigen.sweeps_per_call"] = (
        share(tracer.jacobi_sweeps, tracer.calls("oracle.jacobi_eigen")),
        "count")
    m["call_ref_us_p99"] = (latency_us(plain.chunks, 99), "us")
    m["cli.verify_ref_records_per_s"] = (
        goodput(plain.verify_chunks) if plain.verify_chunks else 0.0,
        "1/s")
    for mod, secs in imports.items():
        m[f"import.{mod}_s"] = (secs, "s")
    for name, us in refs.items():
        m[name] = (us, "us")
    m["fail_share"] = (share(plain.failed + traced.failed,
                             plain.attempted + traced.attempted), "share")
    m["trace.overhead_share"] = (
        ref_cost(traced) / ref_cost(plain) - 1.0, "share")
    m["trace.unattributed_share"] = (
        1.0 - root / ref_seconds(traced.chunks + traced.verify_chunks),
        "share")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "symdiag" / "__init__.py").is_file():
        print(f"error: no symdiag package under {SRC}", file=sys.stderr)
        return 2

    # set-up first, in fresh interpreters, before this one imports symdiag
    startup.warm_up(SRC, ROOT)
    if args.trace:
        imports = startup.import_times(SRC, ROOT, IMPORTTIME_RUNS)
    else:
        setup, setup_all = startup.setup_seconds(SRC, ROOT, SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import symdiag
    import symdiag.cli
    if SRC.resolve() not in Path(symdiag.__file__).resolve().parents:
        print(f"error: symdiag imported from {symdiag.__file__}",
              file=sys.stderr)
        return 2
    mods = {name: sys.modules[name] for name in
            ("symdiag.core", "symdiag.eig3", "symdiag.cli")}

    main_seq, warm_seq, census_seq = np.random.SeedSequence(
        [args.seed, WORKLOADS.index(args.workload)]).spawn(3)
    warm = min(WARMUP_MAX_S, WARMUP_SHARE * args.seconds)
    measure(args.workload, np.random.default_rng(warm_seq), warm, mods)
    rng = np.random.default_rng(main_seq)

    notes = {"env": environment(args)}
    if not args.trace:
        ph = measure(args.workload, rng, args.seconds, mods)
        metrics = end_to_end(ph, setup)
        notes["setup_measured"] = setup_all
        notes["measured"] = {
            "goodput_per_s": goodput(ph.chunks, ref=False),
            "call_us_p50": latency_us(ph.chunks, 50, ref=False),
            "call_us_p99": latency_us(ph.chunks, 99, ref=False)}
        if ph.verify_chunks:
            notes["measured"]["verify_records_per_s"] = goodput(
                ph.verify_chunks, ref=False)
            notes["verify_ref_records_per_s"] = goodput(ph.verify_chunks)
        phases = [ph]
    else:
        plain = measure(args.workload, rng, UNTRACED_SHARE * args.seconds,
                        mods)
        tracer = spans.Tracer()
        layers = spans.EIG3_LAYERS + spans.CLI_LAYERS
        with tracer.patched(mods, layers):
            traced = measure(args.workload, rng,
                             (1.0 - UNTRACED_SHARE) * args.seconds, mods,
                             tracer)
        refs = yardsticks(plain.ref_rows)
        metrics = per_layer(plain, traced, tracer, imports, refs)
        census_metrics, notes["census_failures"] = census(census_seq, mods)
        metrics.update(census_metrics)
        unattributed = metrics["trace.unattributed_share"][0]
        if not 0.0 <= unattributed < 0.2:
            print(f"error: layer self times cover {1 - unattributed:.3f} "
                  "of the traced wall time", file=sys.stderr)
            return 1
        notes["absent_layers"] = tracer.absent
        notes["observer_errors"] = tracer.observer_errors
        notes["spans"] = len(tracer.sid)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        phases = [plain, traced]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = {}
    for p in phases:
        for k, v in p.failures.items():
            failures[k] = failures.get(k, 0) + v
    task = [t for p in phases for t in p.reference]
    notes.update({
        "reference_task_s": {"nominal": reference.REF_TASK_S,
                             "median": statistics.median(task),
                             "min": min(task), "max": max(task)},
        "ops": sum(p.ops for p in phases),
        "busy_s": sum(p.busy for p in phases),
        "fail_share": failed / attempted,
        "failures": failures,
        "numpy_fp_warnings": sum(p.fp_warnings for p in phases),
        "other_warnings": sum(p.other_warnings for p in phases),
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
