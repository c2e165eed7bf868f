"""phibvp benchmark: end-to-end timings with correctness checks, and a
traced run for per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

Workloads (``workloads.WORKLOADS`` records why each exists):

* ``cli-shipped``  -- ``cli.main`` on every shipped problem file;
* ``crosscheck``   -- solve plus ``shooting_oracle`` on the acceptance
  battery's six families;
* ``fine-grid``    -- Dirichlet and singular solves at grid_n 20001;
* ``certify``      -- growth and sign certificates, winding numbers and
  Newton sign sums.

The package is imported from ``src/`` of the checkout this file sits in,
in one single-threaded process (BLAS and OpenMP pinned to one thread).
A run sets up ``SETUP_REPS`` times (re-importing phibvp and parsing the
inputs into specs each time), warms up on the workload's tiny operation,
then runs passes of the workload's fixed batch for ``--seconds`` (at
least ``MIN_PASSES``).  Every operation's output is checked against the
acceptance gate's tolerances and against its own first run; a mismatch
counts as a failed operation and is never retried.

``--trace 0`` prints the ``end_to_end`` metrics of BENCHMARK.json:
``setup_s`` (median set-up), ``wall_s`` (mean over passes of the summed
wall time of the program calls in one pass, i.e. the inverse of the run's
throughput) and ``peak_rss_mb``.  ``wall_s`` is a mean, not a median: on a
host whose cores are shared, the per-pass times can be bimodal (a fast and
a slow state up to 1.6x apart on a 2-vCPU Xeon virtual machine), and a
median then jumps between the two modes from run to run while the mean
follows the share of slow time smoothly.

``--trace 1`` alternates untraced and traced passes and prints the
``per_layer`` metrics: each is one traced set-up plus one pass (counts
must repeat exactly between passes; times take the median pass).  The
spans are written to ``bench/out/trace-<workload>-seed<seed>.npz``.

The last line of standard output is the JSON result; the lines before it,
starting with ``#``, are the human-readable report.
"""

import os

# single-threaded numerics; these must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MODULES = ("expr", "homeomorphism", "function_space", "operators", "solver",
           "certificates", "cli")
PHASES = ("solve", "oracle", "certify", "qphi")
SETUP_REPS = 15
MIN_PASSES = 2

# solver stall warnings and other log records go here, not to the terminal
LOG = io.StringIO()


def load_phibvp() -> SimpleNamespace:
    """Import phibvp afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "phibvp"]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"phibvp.{m}") for m in MODULES}
    where = Path(sys.modules["phibvp"].__file__).resolve().parent
    if where != ROOT / "src" / "phibvp":
        raise ImportError(f"phibvp imported from {where}, not from this checkout")
    return SimpleNamespace(**mods)


def set_up(workload, seed: int, tmp: Path):
    t0 = time.perf_counter()
    api = load_phibvp()
    ops = workload.build(api, seed, tmp)
    return time.perf_counter() - t0, api, ops


class Runner:
    """Runs passes over a fixed list of operations and keeps the records."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.reference: dict[str, str] = {}
        self.op_table: list[tuple[int, str]] = [(tracing.SETUP, "setup")]

    def run_pass(self, key: int, traced: bool) -> dict:
        tr = self.tracer if traced else None
        rec = {"key": key, "traced": traced, "wall": 0.0,
               "phase": collections.Counter(), "samples": [], "attempted": 0,
               "failed": 0, "problems": [], "gaps": [], "errs": [],
               "counts": collections.Counter()}
        state: dict = {}
        if tr:
            tr.install()
        t_pass = time.perf_counter()
        try:
            for op in self.ops:
                self._run_op(op, state, rec, tr, key)
        finally:
            if tr:
                tr.uninstall()
        rec["elapsed"] = time.perf_counter() - t_pass
        if tr:
            rec["counts"].update(tr.take_counts())
        return rec

    def _run_op(self, op, state, rec, tr, key) -> None:
        if op.prepare:
            op.prepare()
        if tr:
            tr.op_id = len(self.op_table)
            self.op_table.append((key, op.name))
            span = tr.open(op.span)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed operation is data, not a crash
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tr:
            tr.close(span)
        LOG.seek(0)
        LOG.truncate()
        rec["attempted"] += 1
        rec["wall"] += dt
        if error is not None:
            out = Outcome(problems=[f"raised {type(error).__name__}: {error}"])
        else:
            try:
                out = op.check(result, state)
            except Exception as exc:
                out = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
            ref = self.reference.setdefault(op.name, out.digest)
            out.require(out.digest == ref,
                        "output differs from this operation's first run")
        rec["counts"].update(out.counts)
        if out.gap is not None:
            rec["gaps"].append(out.gap)
        if out.err is not None:
            rec["errs"].append(out.err)
        if out.problems:
            rec["failed"] += 1
            rec["problems"] += [f"{op.name}: {p}" for p in out.problems]
        else:
            rec["phase"][op.phase] += dt
            rec["samples"].append((op.name, op.phase, dt))


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def describe(samples: list[float], unit_scale: float = 1.0) -> str:
    med = statistics.median(samples) * unit_scale
    t = tail(samples)
    extra = f" p{t[0]}={t[1] * unit_scale:.4g}" if t else ""
    return f"median={med:.4g}{extra} n={len(samples)}"


def environment() -> str:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level}={size}")
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} cores={os.cpu_count()} "
            f"caches={','.join(caches) or 'unknown'}")


def measure(workload, seed: int, seconds: float, trace: bool, tmp: Path,
            report, cold_s: float) -> tuple[Runner, list[dict], dict]:
    setup_times = []
    for _ in range(SETUP_REPS):
        dt, api, ops = set_up(workload, seed, tmp)
        setup_times.append(dt)
    report(f"setup: cold={cold_s:.4f}s reps={SETUP_REPS} "
           f"median={statistics.median(setup_times):.4f}s "
           f"min={min(setup_times):.4f}s max={max(setup_times):.4f}s")

    tracer = setup_counts = None
    if trace:
        api = load_phibvp()
        tracer = tracing.Tracer(api)
        tracer.op_id = 0
        tracer.install()
        ops = workload.build(api, seed, tmp)
        tracer.uninstall()
        setup_counts = tracer.take_counts()

    warm = Runner(workload.build(api, seed, tmp, tiny=True)).run_pass(-1, False)
    runner = Runner(ops, tracer)
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(runner.run_pass(len(passes), traced))
        done = [p for p in passes if p["traced"] == traced]
        others = [p for p in passes if p["traced"] != traced]
        enough = len(done) >= MIN_PASSES and (not trace or len(others) >= MIN_PASSES)
        longest = max(p["elapsed"] for p in passes)
        if enough and time.perf_counter() + longest > deadline:
            break
    return runner, passes, {"setup_times": setup_times, "warm": warm,
                            "setup_counts": setup_counts}


def layer_metrics(runner: Runner, passes: list[dict], setup_counts: dict,
                  units: dict[str, str]) -> tuple[dict, list[str]]:
    tr = runner.tracer
    pass_of_op = np.array([k for k, _ in runner.op_table], dtype=np.int64)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        m = tracing.pass_metrics(tr, pass_of_op, p["key"])
        m["trace.unclaimed_s"] = p["elapsed"] - m.pop("_root_s")
        m.update({k: p["counts"].get(k, 0) for k in
                  ("solver.lambda_stages", "cli.bytes_written",
                   "function_space.integral.calls")})
        per_pass.append(m)
    setup = tracing.pass_metrics(tr, pass_of_op, tracing.SETUP)
    setup.pop("_root_s")
    setup.update(setup_counts)
    values, unsteady = tracing.combine(setup, per_pass, units)
    calls = values["expr.eval_many.calls"]
    values["expr.eval_many.us_per_call"] = (
        1e6 * values["expr.eval_many.self_s"] / calls if calls else 0.0)
    values["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced) - 1.0)
    for ph in PHASES:
        values[f"phase.{ph}_s"] = statistics.median(p["phase"][ph] for p in untraced)
    values["check.oracle_gap_max"] = max(
        (g for p in passes for g in p["gaps"]), default=0.0)
    values["check.exact_err_max"] = max(
        (e for p in passes for e in p["errs"]), default=0.0)
    return values, unsteady


def run(args, tmp: Path, bench_spec: dict, cold_s: float) -> dict:
    workload = WORKLOADS[args.workload]

    def report(text: str) -> None:
        print("# " + text, flush=True)

    report(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
           f"trace={args.trace}")
    report(f"why: {workload.why}")
    report(f"env: {environment()}")
    runner, passes, extra = measure(workload, args.seed, args.seconds,
                                    bool(args.trace), tmp, report, cold_s)
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [x for p in passes for x in p["problems"]]
    warm = extra["warm"]
    problems += [f"warm-up {x}" for x in warm["problems"]]

    walls = [p["wall"] for p in untraced]
    report(f"passes: {len(untraced)} untraced, {len(passes) - len(untraced)} "
           f"traced; wall_s mean={statistics.fmean(walls):.4g} {describe(walls)}")
    for ph in PHASES:
        per_op = [dt for p in untraced for _, kind, dt in p["samples"]
                  if kind == ph]
        if per_op:
            report(f"{ph}_s per pass {describe([p['phase'][ph] for p in untraced])};"
                   f" per call ms {describe(per_op, 1e3)}")
    by_op = collections.defaultdict(list)
    for p in untraced:
        for name, _, dt in p["samples"]:
            by_op[name].append(dt)
    for name, times in by_op.items():
        report(f"op {name}: ms {describe(times, 1e3)}")
    gaps = [g for p in passes for g in p["gaps"]]
    errs = [e for p in passes for e in p["errs"]]
    report(f"checks: attempted={attempted} failed={failed} "
           f"fail_frac={failed / attempted:.4g}"
           + (f" oracle_gap_max={max(gaps):.3e}" if gaps else "")
           + (f" exact_err_max={max(errs):.3e}" if errs else ""))
    for text in problems[:10]:
        report(f"problem: {text}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench_spec["per_layer"]}
        values, unsteady = layer_metrics(runner, passes, extra["setup_counts"],
                                         units)
        for name in unsteady:
            problems.append(f"count {name} differs between traced passes")
            report(f"problem: count {name} differs between traced passes")
        for name, value in sorted(values.items()):
            report(f"layer {name} = {value:.6g}")
        path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
        runner.tracer.write(path, runner.op_table)
        report(f"spans: {len(runner.tracer.start)} written to "
               f"{path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {
            "setup_s": statistics.median(extra["setup_times"]),
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench_spec["end_to_end"]}
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        load_phibvp()
    except ImportError as exc:
        print(f"error: cannot import phibvp from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    cold_s = time.perf_counter() - t0
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = logging.getLogger("phibvp")
    log.addHandler(logging.StreamHandler(LOG))
    log.propagate = False

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = run(args, Path(tmp), bench_spec, cold_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
