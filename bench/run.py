"""rowcover benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload mc_cover --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --record        # re-record bench/reference.json

Each run imports the package from `src/`, builds the workload's inputs from
`--seed`, and runs whole cycles of calls until the next cycle would end
past `--seconds` (at least one).  Every result is checked (see
workloads.py); at the default seed it must also match the digest recorded
in reference.json.  Times are scaled to a reference host speed measured
by a calibration kernel around every call (see `measure`).  Stdout carries a `provenance` line, a `summary` line
with every end-to-end number (trials_per_s and error_rate included), and,
last, the result object: end-to-end metrics with `--trace 0`, per-layer
metrics from a traced run with `--trace 1`.  The same record, with
provenance, is written to bench/out/, and a traced run also writes its
spans there.  See bench/README.md for what each workload and metric is for.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REQUIRED = (SRC / "rowcover" / "__init__.py", REFERENCE, ROOT / "tests" / "data" / "expect.golden")

WORKLOAD_NAMES = ("mc_cover", "mc_coverage", "analytic", "cli")
DEFAULT_SEED = 0
SETUP_PROBES = 5
# Cycles recorded at the default seed: about twice what one run uses here.
REFERENCE_CYCLES = {"mc_cover": 10, "mc_coverage": 64, "analytic": 2, "cli": 8}
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (used for setup_s)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from this checkout at the default seed")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def build(name: str, seed: int, traced: bool):
    from workloads import WORKLOADS

    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "cli":
        return WORKLOADS[name](seed, out_dir, child_env(), traced)
    return WORKLOADS[name](seed, out_dir)


def reference_key(op, cycle: int) -> str:
    return f"{cycle}/{op.label}" if op.keyed else f"*/{op.label}"


def verify(op, result, expected_digest) -> bool:
    from workloads import digest

    try:
        ok = bool(op.check(result))
        if ok and expected_digest is not None:
            ok = digest(op.digest_of(result)) == expected_digest
    except Exception:  # a crashing check is a failed operation, not a crashed run
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"rowcover benchmark: check failed for {op.label}", file=sys.stderr)
    return ok


def compute_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work rowcover does in-process.

    Float loops over libm (the tail and phase sums), stream construction
    and small-array numpy calls (sampling), a small QR (instances) and
    float formatting and parsing (instance files, CLI records), in roughly
    equal parts.  The kernel uses no rowcover code, so no change to the
    package moves it: it measures only the speed the host currently gives
    this process.  The faster of two passes is taken, which drops most
    interrupt noise.
    """
    import numpy as np

    passes = []
    for _ in range(2):
        begin = time.perf_counter()
        total = math.fsum(math.expm1(-i * 1e-3) + 1e-9 * math.lgamma(i) for i in range(1, 1500))
        for i in range(20):
            stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(i, spawn_key=(1,))))
            total += float(stream.geometric(0.3, size=4).max())
            total += float((stream.random((20, 20)) < 0.1).any(axis=1).all())
        matrix = np.random.Generator(np.random.Philox(7)).standard_normal((12, 12))
        for _ in range(20):
            total += float(np.linalg.qr(matrix)[1][0, 0])
        text = " ".join(repr(float(v)) for v in matrix.ravel().tolist() * 8)
        total += sum(float(token) for token in text.split())
        passes.append(time.perf_counter() - begin)
    return min(passes)


def libm_kernel() -> float:
    """Seconds for a pure-Python float loop over libm, the faster of two passes.

    The analytic workload is nearly all such loops (tail and phase sums),
    and on a busy host they slow down less than compute_kernel's mix does;
    this kernel tracks them about twice as closely.
    """
    passes = []
    for _ in range(2):
        begin = time.perf_counter()
        math.fsum(math.expm1(-i * 1e-3) + 1e-9 * math.lgamma(i) + math.log1p(i * 1e-4)
                  for i in range(1, 4000))
        passes.append(time.perf_counter() - begin)
    return min(passes)


def process_kernel() -> float:
    """Seconds to start and stop a bare interpreter, the faster of two runs.

    Whole-process calls slow down differently from in-process work when
    the host is busy (process creation, page faults), and this tracks them
    about twice as closely as compute_kernel does.
    """
    passes = []
    for _ in range(2):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], stdout=subprocess.DEVNULL, check=True)
        passes.append(time.perf_counter() - begin)
    return min(passes)


# Calibration kernel per workload, with its seconds at the reference host's
# nominal speed.
CALIBRATIONS = {"analytic": (libm_kernel, 0.0015), "cli": (process_kernel, 0.012)}
DEFAULT_CALIBRATION = (compute_kernel, 0.002)


def measure(workload, seed: int, seconds: float, reference: dict, tracer, probe=None) -> dict:
    """Closed loop over whole cycles; one latency sample per call.

    Each sample is also scaled to the reference host speed: multiplied by
    the workload's nominal kernel seconds over the mean of the calibration
    kernel's times just before and just after the call.  `probe`, when given, runs between
    cycles once per fifth of the run, and at the end until it has run
    SETUP_PROBES times; the set-up seconds it returns are scaled the same way.
    """
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    scales: list[float] = []  # host-speed factor of each call, in order
    trials: dict[str, int] = {}
    failed = cycles = 0
    probes = []
    kernel, nominal_s = CALIBRATIONS.get(workload.name, DEFAULT_CALIBRATION)
    kernel()  # warm up
    before = kernel()

    def timed(call):
        nonlocal before
        begin = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - begin
            after = kernel()
            timed.raw, timed.scaled = elapsed, elapsed * 2.0 * nominal_s / (before + after)
            before = after

    started = time.perf_counter()
    while True:
        for op in workload.ops(cycles):
            key = reference_key(op, cycles)
            expected = reference.get(key) if (seed == DEFAULT_SEED or not op.keyed) else None
            try:
                result = timed(lambda: tracer.run(op.label, op.call) if tracer else op.call())
                ok = True
            except Exception:  # count it and keep the loop running
                traceback.print_exc()
                ok = False
            samples.setdefault(op.label, []).append(timed.scaled)
            scales.append(timed.scaled / timed.raw)
            raw.setdefault(op.label, []).append(timed.raw)
            trials[op.label] = op.trials
            failed += not (ok and verify(op, result, expected))
        cycles += 1
        elapsed = time.perf_counter() - started
        if probe and len(probes) < SETUP_PROBES and elapsed >= seconds * len(probes) / SETUP_PROBES:
            probes.append(timed(probe) * timed.scaled / timed.raw)
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    wall_s = time.perf_counter() - started
    while probe and len(probes) < SETUP_PROBES:
        probes.append(timed(probe) * timed.scaled / timed.raw)
    return {"samples": samples, "raw": raw, "scales": scales, "trials": trials, "failed": failed,
            "cycles": cycles, "wall_s": wall_s, "probes": probes}


def end_to_end(run: dict, peak_rss_kb: int, key: str = "samples") -> dict:
    """Rates and percentiles over one cycle's calls, each at its median sample."""
    typical = sorted(statistics.median(values) for values in run[key].values())
    deciles = statistics.quantiles(typical, n=10, method="inclusive") if len(typical) > 1 \
        else typical * 9
    return {
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_p50_ms": (1e3 * deciles[4], "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the package and build the inputs."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def layer_metrics(tracer, workload, run: dict) -> dict:
    """Per-layer numbers from a traced run, per cycle where they are totals."""
    cycles = run["cycles"]
    busy_s = sum(sum(values) for values in run["samples"].values())
    stats = tracer.stats()
    counters = tracer.counters

    def get(name: str, kind: str) -> float:
        return stats.get(name, {}).get(kind, 0)

    def ms(name: str, kind: str):
        return (1e3 * get(name, kind) / cycles, "ms/cycle")

    def count(name: str):
        return (get(name, "calls") / cycles, "count/cycle")

    sampling_s = (get("sample_cover_time", "self") + get("estimate_coverage_probability", "self")
                  + get("sample_indicator_pattern", "self"))
    thresholds = get("coverage_threshold", "calls")
    under_threshold = stats.get("coverage_probability", {}).get("parents", {}).get(
        "coverage_threshold", 0)
    results = counters["exact_expected_cover_time.results"]
    writes = get("write_instance", "calls")
    children = getattr(workload, "child_timings", [])  # one per call, like run["scales"]

    def child_ms(key: str):
        values = [1e3 * t[key] * scale for t, scale in zip(children, run["scales"])]
        return (statistics.median(values) if values else 0.0, "ms")

    for timing in children:
        timing["interpreter_s"] = timing["started"] - timing["spawned"]
    streams_s = get("spawn_generator", "busy") + get("derive_seed", "busy")
    return {
        "spawn_generator.calls": count("spawn_generator"),
        "spawn_generator.busy_ms": ms("spawn_generator", "busy"),
        "spawn_generator.share": (get("spawn_generator", "busy") / busy_s, "ratio"),
        "derive_seed.calls": count("derive_seed"),
        "derive_seed.busy_ms": ms("derive_seed", "busy"),
        "streams.share": (streams_s / busy_s, "ratio"),
        "sample_cover_time.busy_ms": ms("sample_cover_time", "busy"),
        "estimate_expected_cover_time.self_ms": ms("estimate_expected_cover_time", "self"),
        "estimate_coverage_probability.self_ms": ms("estimate_coverage_probability", "self"),
        "phase_sweep.self_ms": ms("phase_sweep", "self"),
        "draws_per_s": (counters["draws"] / sampling_s if sampling_s else 0.0, "1/s"),
        "exact_expected_cover_time.self_ms": ms("exact_expected_cover_time", "self"),
        "tail_terms": (counters["tail_terms"] / results if results else 0.0, "count/call"),
        "phase_sum_raw.busy_ms": ms("phase_sum_raw", "busy"),
        "phase_sum_raw.log_branch_calls": (
            get("_inner_complement_log", "distinct_parents") / cycles, "count/cycle"),
        "coverage_probability.calls_per_threshold": (
            under_threshold / thresholds if thresholds else 0.0, "count/call"),
        "bound_report.self_ms": ms("bound_report", "self"),
        "random_orthogonal.busy_ms": ms("random_orthogonal", "busy"),
        "sample_sparse_matrix.busy_ms": ms("sample_sparse_matrix", "busy"),
        "assemble_instance.self_ms": ms("assemble_instance", "self"),
        "row_coverage_check.busy_ms": ms("row_coverage_check", "busy"),
        "write_instance.busy_ms": ms("write_instance", "busy"),
        "read_instance.busy_ms": ms("read_instance", "busy"),
        "write_instance.bytes": (
            counters["write_instance.bytes"] / writes if writes else 0.0, "bytes/call"),
        "cli.interpreter_ms": child_ms("interpreter_s"),
        "cli.import_ms": child_ms("import_s"),
        "cli.handler_ms": child_ms("handler_s"),
        "cli.emit_ms": child_ms("emit_s"),
        "cli.stdout_bytes": (run["stdout_bytes"] / cycles, "bytes/cycle"),
        "traced.ops_per_s": (end_to_end(run, 0)["ops_per_s"][0], "1/s"),
        "trace.spans": (tracer.span_count() / cycles, "count/cycle"),
    }


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), platform.processor() or cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "rowcover").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "blas_threads": os.environ[BLAS_THREAD_VARIABLES[0]],
        "streams": "numpy Philox keyed by SeedSequence(entropy=seed, spawn_key=path)",
    }


def record() -> None:
    """Write the default-seed digests of REFERENCE_CYCLES cycles per workload."""
    from workloads import digest

    reference = {}
    for name in WORKLOAD_NAMES:
        workload = build(name, DEFAULT_SEED, traced=False)
        digests = {}
        for cycle in range(REFERENCE_CYCLES[name]):
            for op in workload.ops(cycle):
                result = op.call()
                key = reference_key(op, cycle)
                value = digest(op.digest_of(result))
                if not op.check(result) or digests.setdefault(key, value) != value:
                    raise SystemExit(f"rowcover benchmark: cannot record {name} {key}")
        reference[name] = digests
        print(f"recorded {len(digests)} digests for {name}", flush=True)
    REFERENCE.write_text(json.dumps(
        {"default_seed": DEFAULT_SEED, "cycles": REFERENCE_CYCLES, "digests": reference},
        indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"rowcover benchmark: run from a rowcover checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Pin BLAS to one thread before numpy loads: one client, no helper threads.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    # Run on one CPU, children included, so that the calibration kernel
    # measures the CPU every timed call runs on.  Children run while this
    # process waits, so they do not compete with it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0

    workload = build(args.workload, args.seed, traced=bool(args.trace))
    if args.setup_only:
        print(time.perf_counter() - STARTED)
        return 0
    reference = json.loads(REFERENCE.read_text())["digests"][args.workload]

    tracer = None
    if args.trace and args.workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = None if args.trace else (lambda: setup_probe(args.workload, args.seed))
    try:
        run = measure(workload, args.seed, args.seconds, reference, tracer, probe)
    finally:
        if tracer:
            tracer.uninstall()
    # The cli workload's memory is that of the rowcover processes it runs.
    peak_rss_kb = getattr(workload, "peak_rss_kb", None) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run["stdout_bytes"] = getattr(workload, "stdout_bytes", 0)

    attempted = sum(len(values) for values in run["samples"].values())
    all_s = sum(sum(values) for values in run["raw"].values())
    typical_s = sum(statistics.median(values) for values in run["samples"].values())
    summary = {name: value for name, (value, _) in end_to_end(run, peak_rss_kb).items()}
    summary.update(
        ops=attempted, failed=run["failed"], error_rate=run["failed"] / attempted,
        cycles=run["cycles"], calls_per_cycle=len(run["samples"]),
        trials_per_s=sum(run["trials"].values()) / typical_s if any(run["trials"].values()) else None,
        unscaled_ops_per_s=end_to_end(run, 0, "raw")["ops_per_s"][0],
        busy_s=all_s, wall_s=run["wall_s"],
    )
    if args.trace:
        if tracer is None:
            from tracer import Tracer

            tracer = Tracer()
        tracer.op_scales = run["scales"]
        metrics = layer_metrics(tracer, workload, run)
        if tracer.span_count():
            tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end(run, peak_rss_kb)
        metrics["setup_s"] = (statistics.median(run["probes"]), "s")
        summary["setup_s"] = metrics["setup_s"][0]
        summary["setup_probes_s"] = run["probes"]

    result = {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    facts = provenance(args)
    latency_ms = {kind: {label: [1e3 * v for v in values] for label, values in run[kind].items()}
                  for kind in ("raw", "samples")}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": facts, "summary": summary, **result, "latency_ms": latency_ms},
                   indent=1) + "\n")
    print("provenance " + json.dumps(facts))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
