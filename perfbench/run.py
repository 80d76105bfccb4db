"""Benchmark of the lifshitz-fidelity engine: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client; see BENCHMARK.json for why each exists):

    cli-oneshot      each request is a fresh ``python -m lifshitz_fidelity <sub>``
                     process, rotating boundary, bulk, match and verify
    sweep-boundary   in-process ``cli.main(["sweep", "--axis", "H", ...])``
    sweep-bulk-fine  in-process Qt log sweep on a 2*65536 + 1 point grid
    verify           in-process ``verification.run_all()``

Sweeps run with LF_WORKERS = the number of usable cores. Every request's
artifacts are checked against references the program does not produce
(workloads.py); a sweep.csv that differs from the same sweep at one worker
is a failed request. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, measured with no tracing. With
``--trace 1`` every other round over the request pool runs with every
public layer function wrapped (tracing.py), so each request runs both
ways, and the last line carries the per-layer metrics; layer figures are
per traced request. Layers the workload never calls are taken
from a census of one request of each other kind, so every per-layer metric
is measured in every traced run. Lines before the last give machine facts,
the tail percentile and its sample count, and every failure.

Nothing is pinned and no file cache is dropped; only this process and its
children are measured. Artifacts go to .perfbench_work/ under the
repository root, which is removed on exit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads
from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters started per run to measure setup_s.
SETUP_RUNS = 5
#: -X importtime runs per traced run.
IMPORT_RUNS = 3
#: A CLI process that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 120.0
#: The request loop may overrun --seconds by this factor to reach a tail.
OVERRUN = 3.0

CLI_SUBCOMMANDS = ("boundary", "bulk", "match", "verify")
#: Fixed-size kernel micro-benchmark: grid points and calls per timing.
KERNEL_BENCH_POINTS = 8193
KERNEL_BENCH_REPEATS = 200
MEASUREMENT_NOTE = ("nothing is pinned, no file cache is dropped; only this process "
                    "and its children are measured")


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's timestamp
    # can be subtracted from the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def remove_workdir(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        WORK.rmdir()


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pythonpath_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------- executing requests ----------

class Executor:
    """Runs requests of one workload and times them."""

    def __init__(self, workload: str, workdir: Path, in_process: bool = False):
        self.workload = workload
        self.workdir = workdir
        self.subprocess = workload == "cli-oneshot" and not in_process
        self.workers = usable_cores()
        self._devnull = open(os.devnull, "w")
        if not self.subprocess:
            from lifshitz_fidelity import cli, verification

            self.cli, self.verification = cli, verification

    def close(self):
        self._devnull.close()

    def fresh_outdir(self) -> Path:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def run(self, req, workers=None):
        """(seconds, Outcome) of one request; the clock covers the call only."""
        out = self.fresh_outdir()
        if self.workload == "verify":
            return self._run_all()
        if self.subprocess:
            return self._run_process(req, out)
        os.environ["LF_WORKERS"] = str(workers or self.workers)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._devnull):
                code = self.cli.main([*req.argv, "--out", str(out)])
        except Exception as exc:  # a traceback is a failed request, not a crash
            return time.perf_counter() - t0, Outcome(False, None, f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        return dt, req.check(out, code)

    def _run_all(self):
        t0 = time.perf_counter()
        try:
            results = self.verification.run_all()
        except Exception as exc:
            return time.perf_counter() - t0, Outcome(False, None, f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        failed = [c.name for c in results if not c.passed]
        return dt, Outcome(not failed and bool(results), None,
                           f"failed checks: {failed}" if failed else "")

    def _run_process(self, req, out):
        cmd = [sys.executable, "-m", "lifshitz_fidelity", *req.argv, "--out", str(out)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=pythonpath_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, Outcome(False, None, "timed out")
        dt = time.perf_counter() - t0
        outcome = req.check(out, proc.returncode)
        if proc.returncode != 0:
            outcome.note += f": {proc.stderr.strip()[-300:]}"
        return dt, outcome


class Tally:
    """Attempted and failed requests, with the worst relative error seen."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.worst_rel = 0.0

    def add(self, what: str, outcome: Outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failures.append(f"{what}: {outcome.note}")
        if outcome.worst_rel is not None:
            self.worst_rel = max(self.worst_rel, outcome.worst_rel)


# ---------- setup ----------

def setup_probe(workload: str, seed: int, workdir: Path) -> int:
    """Child side of setup_s: import, run the first request in-process, report the time."""
    pool = workloads.make_pool(workload, seed)
    ex = Executor(workload, workdir, in_process=True)
    _, outcome = ex.run(pool[0])
    ex.close()
    print(json.dumps({"done": _now(), "ok": outcome.ok, "note": outcome.note}))
    return 0


def measure_setup(args, tally: Tally):
    """Median seconds from a fresh interpreter to the package imported and one request done."""
    times = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
        t0 = _now()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"ok": False, "note": f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}"}
        tally.add(f"setup {i}", Outcome(report["ok"], None, report.get("note", "")))
        if "done" in report:
            times.append(report["done"] - t0)
    return statistics.median(times) if times else 0.0


# ---------- layer probes (traced run only) ----------

def import_times():
    """Median cumulative import seconds of numpy, scipy.linalg and the package, from -X importtime."""
    wanted = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
              "lifshitz_fidelity": "import.lifshitz_fidelity_s"}
    samples = {m: [] for m in wanted.values()}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lifshitz_fidelity"],
                              cwd=ROOT, env=pythonpath_env(), capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in wanted and parts[1].strip().isdigit():
                seen.setdefault(wanted[parts[2].strip()], int(parts[1]) * 1e-6)
        for metric in samples:
            samples[metric].append(seen.get(metric, 0.0))  # 0: not imported at start-up
    return {m: statistics.median(v) for m, v in samples.items()}


def kernel_bench():
    """Best-of-5 ns per point of each kernel on fixed 8193-point inputs (was bench_kernels.py)."""
    import numpy as np

    from lifshitz_fidelity import kernels

    n = KERNEL_BENCH_POINTS
    s = np.linspace(0.0, 1.0, n)
    u = np.linspace(np.log(1e-3), np.log(0.5), n)
    x = np.linspace(-12.0, 12.0, n)
    y = 1.0 / (1.0 + s * s)
    cases = {
        "blackening_vals": (s + 0.5, 0.3, -1.0, -1.3, 1.0, 3.0),
        "volume_integrand_r": (s, 1.0, 99.0, 2, 0.3, -1.0, -1.3, 1.0, 3.0, 0.25),
        "wform_integrand_top": (s, 0.5, 2, 0.0, -0.3, -1.0, 3.0, 0.44),
        "wform_integrand_log": (u, 0.0, -0.3, -1.0, 3.0),
        "gaussian_product": (x, 1.0, 0.0, 2.0, 0.3),
        "simpson": (y, 1e-4),
    }
    out = {}
    for name, args in cases.items():
        fn = getattr(kernels, name, None)
        if fn is None:
            continue
        fn(*args)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(KERNEL_BENCH_REPEATS):
                fn(*args)
            best = min(best, (time.perf_counter() - t0) / KERNEL_BENCH_REPEATS)
        out[f"kernels.{name}.fixed_ns_per_point"] = best / n * 1e9
    return out


def census(workload: str, seed: int, workdir: Path, tally: Tally):
    """Layer figures for what the workload itself never calls, so that every
    per-layer metric is measured in every traced run: the first request of
    each other in-process workload (untraced, traced, and for sweeps at one
    worker), and for in-process workloads one CLI process per subcommand."""
    from tracing import Tracer

    layers, traced_s, untraced_s, serial_points, serial_s = {}, 0.0, 0.0, 0, 0.0

    def run(ex, req, what, **kw):
        dt, outcome = ex.run(req, **kw)
        tally.add(f"census {what}", outcome)
        return dt

    for other in ("verify", "sweep-bulk-fine", "sweep-boundary"):
        if other == workload:
            continue
        req = workloads.make_pool(other, seed)[0]
        ex = Executor(other, workdir / other)
        tracer = Tracer()
        try:
            if other.startswith("sweep"):
                serial_s += run(ex, req, f"{other} serial", workers=1)
                serial_points += req.points
            untraced_s += run(ex, req, other)
            tracer.install()
            try:
                traced_s += run(ex, req, f"{other} traced")
            finally:
                tracer.uninstall()
        finally:
            ex.close()
        for name, value in layer_values(tracer, 1).items():
            layers.setdefault(name, value)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    if serial_s:
        layers["sweep.points_per_s.serial"] = serial_points / serial_s
    if workload != "cli-oneshot":
        ex = Executor("cli-oneshot", workdir / "cli")
        for req in workloads.make_pool("cli-oneshot", seed)[:len(CLI_SUBCOMMANDS)]:
            layers[f"cli.{req.sub}.wall_s"] = run(ex, req, f"cli {req.sub}")
        ex.close()
    return layers


def layer_values(tracer, traced_requests: int):
    """Per traced request: calls, total_s, self_s, errors, and for kernels points,
    bytes_computed and ns_per_point (computed from array sizes)."""
    per = max(traced_requests, 1)
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls / per
        out[f"{name}.total_s"] = st.total_s / per
        out[f"{name}.self_s"] = st.self_s / per
        out[f"{name}.errors"] = st.errors / per
        if st.points:
            out[f"{name}.points"] = st.points / per
            out[f"{name}.bytes_computed"] = st.bytes_computed / per
            out[f"{name}.ns_per_point"] = st.total_s / st.points * 1e9
    if tracer.quad_ratios:
        out["quad.useful_point_ratio"] = statistics.fmean(tracer.quad_ratios)
    return out


# ---------- facts ----------

def machine_facts():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    try:
        from lifshitz_fidelity import kernels

        backend = getattr(kernels, "ACTIVE_NAME", "unrecorded")
    except ImportError as exc:
        backend = f"import failed: {exc}"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "kernel_backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "platform": platform.platform(),
        "measurement": MEASUREMENT_NOTE,
    }


# ---------- the run ----------

def request_loop(ex, pool, seconds, tally, serial_bytes=None, tracer=None):
    """Closed loop over the pool for ``seconds``. With a tracer, every other
    round over the pool runs traced, so each request runs both ways.
    Returns [stats.Sample]."""
    done = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(done) > stats.TAIL_BEYOND
        if elapsed >= seconds and (enough or elapsed >= OVERRUN * max(seconds, 1)):
            break
        slot = i % len(pool)
        req = pool[slot]
        traced = tracer is not None and (i // len(pool)) % 2 == 1
        if traced:
            tracer.install()
        try:
            dt, outcome = ex.run(req)
        finally:
            if traced:
                tracer.uninstall()
        if outcome.ok and serial_bytes is not None:
            got = (ex.workdir / "out" / "sweep.csv").read_bytes()
            if got != serial_bytes[slot]:
                outcome = Outcome(False, outcome.worst_rel,
                                  f"sweep.csv differs between 1 and {ex.workers} workers")
        tally.add(f"request {i} ({req.sub})", outcome)
        done.append(stats.Sample(slot, req.points, dt, traced, outcome.ok))
        i += 1
    return done


def serial_references(ex, pool, tally):
    """Each sweep of the pool at one worker: the bytes the timed sweeps must match."""
    refs, secs, points = [], 0.0, 0
    for j, req in enumerate(pool):
        dt, outcome = ex.run(req, workers=1)
        tally.add(f"serial reference {j}", outcome)
        path = ex.workdir / "out" / "sweep.csv"
        refs.append(path.read_bytes() if path.exists() else b"")
        secs += dt
        points += req.points
    return refs, points / secs if secs > 0 else 0.0


def run(args, spec) -> dict:
    workdir = WORK / f"run-{os.getpid()}"
    tally = Tally()
    facts = machine_facts()
    print("perfbench facts:", json.dumps(facts, sort_keys=True))
    layers = {}
    if args.trace:
        layers.update(import_times())

    pool = workloads.make_pool(args.workload, args.seed)
    ex = Executor(args.workload, workdir)
    try:
        if args.trace:
            layers.update(kernel_bench())
        serial_bytes = None
        if args.workload.startswith("sweep"):
            serial_bytes, serial_pps = serial_references(ex, pool, tally)
            layers["sweep.points_per_s.serial"] = serial_pps
        else:
            _, outcome = ex.run(pool[0])  # warm-up, untimed
            tally.add("warm-up", outcome)
        tracer = None
        if args.trace and not ex.subprocess:
            from tracing import Tracer

            tracer = Tracer()
        done = request_loop(ex, pool, args.seconds, tally, serial_bytes, tracer)
        # Read before the setup probes and census, which are children too and
        # not processes of the workload.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if ex.subprocess
                                   else resource.RUSAGE_SELF)
        census_layers = census(args.workload, args.seed, workdir, tally) if args.trace else {}
    finally:
        ex.close()
        remove_workdir(workdir)
    setup_s = None if args.trace else measure_setup(args, tally)

    if args.workload == "verify":
        for err in workloads.verify_fit_errors():
            tally.worst_rel = max(tally.worst_rel, err)

    untraced = [s.seconds for s in done if not s.traced]
    try:
        tail_value, tail_pct, samples = stats.tail(untraced)
    except ValueError:
        tail_value, tail_pct, samples = max(untraced), 100.0, len(untraced)
    failed = len(tally.failures)
    end_to_end = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(untraced),
        "latency_tail_s": tail_value,
        "points_per_s": stats.good_points_per_s([s for s in done if not s.traced]),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ok_frac": (tally.attempted - failed) / tally.attempted,
        "err_digits": stats.err_digits(tally.worst_rel),
    }

    if args.trace:
        overhead = stats.trace_overhead(done)
        if overhead is not None:
            layers["trace.overhead_frac"] = overhead
        if ex.subprocess:
            for sub in CLI_SUBCOMMANDS:
                walls = [s.seconds for s in done if pool[s.slot].sub == sub]
                if walls:
                    layers[f"cli.{sub}.wall_s"] = statistics.median(walls)
        else:
            layers.update(layer_values(tracer, sum(s.traced for s in done)))
        print("perfbench layers:", json.dumps(layers, sort_keys=True))
        from_census = {k: v for k, v in census_layers.items() if k not in layers}
        layers.update(from_census)
        print("perfbench census:", json.dumps(from_census, sort_keys=True))
        # 0 below: a function the package no longer has, so no request reached it
        print("perfbench unmeasured:", json.dumps({
            "metrics": [m["name"] for m in spec["per_layer"] if m["name"] not in layers],
            "absent": tracer.absent if tracer else []}))

    print("perfbench workload:", json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), ""),
        "pool": [" ".join(r.argv) for r in pool], "requests": len(done),
        "workers": ex.workers if args.workload.startswith("sweep") else None,
        "latency_tail_percentile": tail_pct, "latency_tail_samples": samples,
        "attempted": tally.attempted, "failed": failed, "worst_rel_err": tally.worst_rel,
    }, sort_keys=True))
    for note in tally.failures:
        print("perfbench FAILED:", note)
        print("perfbench FAILED:", note, file=sys.stderr)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else end_to_end
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"  {m['name']:<52} {metrics[m['name']]['value']:>14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lifshitz_fidelity" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: run from a repository checkout; {SRC / 'lifshitz_fidelity'} "
              f"or {SPEC_FILE.name} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workdir = WORK / f"probe-{os.getpid()}"
        try:
            return setup_probe(args.workload, args.seed, workdir)
        finally:
            remove_workdir(workdir)
    result = run(args, json.loads(SPEC_FILE.read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
