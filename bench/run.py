"""claimforge benchmark: one workload, measured or traced, from a seed.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline-small --seed 0 --seconds 20 --trace 0

Workloads are defined in workloads.py; BENCHMARK.json names the metrics.
Every run first reproduces tests/data/golden_report.jsonl byte for byte.

``--trace 0`` times the set-up in fresh interpreters, then repeats the
workload in pairs until ``--seconds`` have passed (at least one pair), checks
that every repeat gives the same output hash, and reports the end-to-end
metrics. BLAS runs on one thread.
``--trace 1`` alternates untraced repeats with repeats that record a span at
every wrapped layer boundary (spans.py), at least two of each, checks that
all give the same output and the traced ones the same counters, writes the
spans of the first traced repeat to .bench_work/, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the metrics that
BENCHMARK.json lists; the lines before it are readable detail: environment,
output hashes, and every metric the run produces, by name and unit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread. The workload is one sequential caller on a host of few
# shared cores; there a second BLAS thread that waits for a busy core made
# the paper geometry up to 2.5x slower, so the figure measured the scheduler.
# Set before numpy is first imported, here and in the set-up probes, which
# inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes: at least SETUP_PROBES_MIN, then more until SETUP_PROBES_MAX
# or SETUP_PROBE_SECONDS of probing, so a slow set-up does not crowd out the
# measured repeats within the run's time limit.
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_PROBE_SECONDS = 5, 15, 6.0


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_program():
    """Import workloads, and so claimforge, from this checkout's src/."""
    if not (ROOT / "src" / "claimforge" / "__init__.py").is_file():
        _fail(f"no claimforge sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "data" / "golden_report.jsonl").is_file():
        _fail("golden fixtures missing under tests/data")
    import workloads
    import claimforge
    if Path(claimforge.__file__).resolve().parent != ROOT / "src" / "claimforge":
        _fail(f"claimforge imported from {claimforge.__file__}, not this checkout")
    return workloads


def _blas() -> tuple[str, int | None]:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _environment(seed: int) -> dict:
    import hashlib
    import numpy as np
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas, threads = _blas()
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _setup_seconds(name: str, seed: int, work: Path) -> list[float]:
    """Set-up time of the workload in fresh interpreters, one sample each."""
    samples = []
    start = time.perf_counter()
    for i in range(SETUP_PROBES_MAX):
        if i >= SETUP_PROBES_MIN and time.perf_counter() - start >= SETUP_PROBE_SECONDS:
            break
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(work),
             str(work / f"probe{i}")],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pairwise_best(runs: list[list[float]]) -> list[float]:
    """Per operation: the median, over consecutive pairs of repeats, of the faster time.

    The slower of two repeats is the one a slow spell of a shared machine
    hit, so best-of-two drops it. Taking the best over fixed pairs, not over
    all repeats, keeps the figure from falling only because a faster program
    fits more repeats into a run.
    """
    pairs = list(zip(runs[0::2], runs[1::2]))
    count = min(len(r) for r in runs)
    return [statistics.median(min(a[i], b[i]) for a, b in pairs) for i in range(count)]


def measure(workload, seed: int, seconds: float, work: Path, inputs) -> tuple[dict, list, list[str]]:
    """Untraced repeats; returns (end-to-end metrics, repeats, readable lines).

    Every repeat runs the same operations in the same order; see
    _pairwise_best for how the repeats' times of one operation are combined.
    """
    from spans import Tracer
    from workloads import run_repeat

    setup = _setup_seconds(workload.name, seed, work)
    tracer = Tracer(traced=False)
    tracer.install()
    repeats = []
    try:
        start = time.perf_counter()
        # Whole pairs only: an unpaired last repeat would not count.
        while len(repeats) % 2 or len(repeats) < 2 or time.perf_counter() - start < seconds:
            repeats.append(run_repeat(workload, seed, inputs, work / "out", tracer))
    finally:
        tracer.close()
    per_op = _pairwise_best([r.op_times for r in repeats])
    gap = _pairwise_best([[r.busy_s - sum(r.op_times)] for r in repeats])[0]
    metrics = {
        "ops_per_s": len(per_op) / (sum(per_op) + gap),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
    }
    lines = [f"repeats {len(repeats)}, operations per repeat {len(per_op)}",
             f"setup samples s: {' '.join(f'{s:.4f}' for s in setup)}",
             "throughput of each repeat 1/s: "
             + " ".join(f"{len(r.op_times) / r.busy_s:.4f}" for r in repeats)]
    if workload.kind == "pipeline":
        named = {"docs_per_s": (metrics["ops_per_s"], "1/s"),
                 "doc_latency_p50_s": (statistics.median(per_op), "s")}
        if len(per_op) * 0.2 >= 10:  # at least ten samples beyond p80
            named["doc_latency_p80_s"] = (
                statistics.quantiles(per_op, n=5, method="inclusive")[-1], "s")
    else:
        named = {}
        for trainer in repeats[0].step_times:
            steps = _pairwise_best([r.step_times[trainer] for r in repeats])
            if steps:
                named[f"{trainer}_step_s"] = (statistics.median(steps), "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    named["setup_s"] = (metrics["setup_s"], "s")
    lines += [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in named.items()]
    return metrics, repeats, lines


def traced(workload, seed: int, seconds: float, work: Path, inputs
           ) -> tuple[dict, list, list[str], object]:
    """Alternating untraced and traced repeats; returns (per-layer metrics, repeats, lines, tracer).

    Pairs of one untraced and one traced repeat are taken until ``seconds``
    have passed, at least two pairs. The layer metrics come from the first
    traced repeat; every later traced repeat must give the same exact
    counters. ``trace_overhead_ratio`` is the fastest traced wall time over
    the fastest untraced one, so one repeat that a slow spell of the machine
    hit does not decide it.
    """
    from spans import Tracer
    from workloads import run_repeat

    repeats, tracers = [], []
    start = time.perf_counter()
    while len(repeats) < 4 or time.perf_counter() - start < seconds:
        for is_traced in (False, True):
            tracer = Tracer(traced=is_traced)
            tracer.install()
            try:
                repeats.append(run_repeat(workload, seed, inputs, work / "out", tracer))
            finally:
                tracer.close()
            tracers.append(tracer)
    plain, with_trace = repeats[0::2], repeats[1::2]
    tracer = tracers[1]
    metrics = tracer.layer_metrics()
    best_plain = min(r.wall_s for r in plain)
    best_traced = min(r.wall_s for r in with_trace)
    metrics["trace_overhead_ratio"] = best_traced / best_plain
    lines = ["untraced wall s: " + " ".join(f"{r.wall_s:.4f}" for r in plain),
             "traced wall s: " + " ".join(f"{r.wall_s:.4f}" for r in with_trace)]
    counters = tracer.exact_counters()
    for i, other in enumerate(tracers[3::2], start=1):
        if other.exact_counters() != counters:
            repeats[2 * i + 1].errors.append(
                f"traced repeat {i} counters {other.exact_counters()} differ from {counters}")
            repeats[2 * i + 1].failed = repeats[2 * i + 1].attempted
    self_times = tracer.self_times()
    for name, total in sorted(tracer.total_times().items()):
        lines.append(f"span {name}: calls {len(tracer.by_name(name))}, "
                     f"total {total:.4f} s, self {self_times[name]:.4f} s")
    lines += [f"unmeasured {name}: {why}" for name, why in sorted(tracer.unmeasured.items())]
    lines.append("counters " + json.dumps(counters, sort_keys=True))
    lines += [f"layer {name} = {value}" for name, value in sorted(metrics.items())]
    return metrics, repeats, lines, tracer


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _require_program()
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(_environment(args.seed), sort_keys=True), flush=True)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        golden_ok, golden_sha = workloads.check_golden(work / "golden")
        print(f"check golden_report: {'ok' if golden_ok else 'MISMATCH'} sha256={golden_sha}",
              flush=True)
        inputs = workloads.write_inputs(workload, args.seed, work)
        if args.trace:
            metrics, repeats, lines, tracer = traced(workload, args.seed, args.seconds, work,
                                                     inputs)
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
            wanted = spec["per_layer"]
        else:
            metrics, repeats, lines = measure(workload, args.seed, args.seconds, work, inputs)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A repeat whose output differs from the first, or a run that does not
    # reproduce the golden report, fails every operation it attempted.
    kind = "report_sha256" if workload.kind == "pipeline" else "loss_history_sha256"
    attempted = failed = 0
    for i, r in enumerate(repeats):
        same = r.digest == repeats[0].digest
        print(f"check {kind} repeat {i}: {r.digest} {'ok' if same else 'MISMATCH'}")
        for error in r.errors:
            print(f"check repeat {i}: {error}")
        attempted += r.attempted
        failed += r.failed if same and golden_ok else r.attempted
    for line in lines:
        print(line)
    print(f"metric fail_ratio = {failed / attempted:.6g} (failed {failed} of {attempted})")

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted if m["name"] in metrics}
    print(json.dumps({"correct": golden_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
