"""chowcert benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify_n30 --seed 1 --seconds 10 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (call_s, setup_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of a separate traced pass.  The line before it is a
JSON record with the environment, per-call timings and the list of failed
checks.  The exit status is 0 only when every check passed.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, Gate, check_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "data" / "reference_certificate_n5.txt"
OUT = HERE / "out"

SETUP_PROBES = 11
# chowcert.matrix.DEFAULT_BLOCK: the inner size of the elimination's
# trailing update, and of the reference dgemm below
BLOCK = 64
DGEMM_REPEATS = 5


def pin_blas_threads() -> int:
    """Fix the BLAS thread count at the CPUs this process may use.

    Must run before numpy is imported; child processes inherit it.
    """
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_chowcert():
    """Import chowcert from this checkout's sources, never from elsewhere."""
    package = SRC / "chowcert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no chowcert sources at {package}")
    sys.path.insert(0, str(SRC))
    import chowcert

    if Path(chowcert.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported chowcert from {chowcert.__file__}")
    return chowcert


def setup_seconds(seed: int) -> float:
    """Median over fresh processes of start until ready (import + warm-up)."""
    probe = HERE / "setup_probe.py"
    times = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), str(SRC), str((seed + i) % 2**64)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if status != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with status {status}")
        times.append(elapsed)
    return statistics.median(times)


def timed(call, arg):
    t0 = time.perf_counter()
    out = call(arg)
    return arg, out, time.perf_counter() - t0


def run_calls(workload, seconds: float):
    """Closed loop, one call at a time, in whole passes of the workload
    until `seconds` have gone by.  Returns (input, output, wall seconds)
    per call."""
    records = []
    start = time.perf_counter()
    i = 0
    while not (i and i % workload.unit == 0 and time.perf_counter() - start >= seconds):
        records.append(timed(workload.call, workload.input(i)))
        i += 1
    return records


def run_traced(cc, workload, tracer: Tracer):
    """The workload's fixed traced pass, each call also run untraced.

    Which side runs first alternates from call to call, so that drift
    does not land on one side of the overhead.  Returns the untraced and
    the traced records.
    """
    plain, traced = [], []
    for i in range(workload.trace_calls):
        arg = workload.input(i)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(timed(workload.call, arg))
                continue
            tracer.install(cc)
            try:
                traced.append(
                    timed(lambda a: tracer.root("op", workload.call, a), arg)
                )
            finally:
                tracer.uninstall()
    return plain, traced


def summary(values) -> dict:
    """Median and maximum, plus the highest percentile of 90 or above
    with at least ten samples beyond it, when there are enough samples."""
    values = sorted(values)
    out = {"count": len(values), "median": statistics.median(values), "max": values[-1]}
    q = math.floor(100 * (len(values) - 10) / len(values))
    if q >= 90:
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def rref_flops(rows: int, cols: int, rank: int) -> int:
    """Computed flop count of a reduced echelon form, multiply and add
    counted apart: 2 m n p - (m + n) p^2 + 2p^3/3 for the row echelon
    phase plus n p^2 - 2p^3/3 for clearing above the pivots."""
    return 2 * rows * cols * rank - rows * rank * rank


def dgemm_gflops(np, rows: int, cols: int) -> float:
    """Bare float64 (rows x BLOCK) @ (BLOCK x cols): the elimination's
    trailing-update shape at the full Terracini size."""
    gen = np.random.default_rng(0)
    a = gen.integers(0, 20201, (rows, BLOCK)).astype(np.float64)
    b = gen.integers(0, 20201, (BLOCK, cols)).astype(np.float64)
    times = []
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        np.dot(a, b)
        times.append(time.perf_counter() - t0)
    return 2 * rows * cols * BLOCK / statistics.median(times) / 1e9


def openblas_runtime(np) -> dict:
    """Thread count and build string from the loaded OpenBLAS, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            config = getattr(lib, f"{prefix}_get_config64_", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "chowcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    runtime = openblas_runtime(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": runtime["config"],
        "blas_threads_set": threads,
        "blas_threads_runtime": runtime["threads"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def layer_metrics(tracer: Tracer, untraced_s: float, np) -> tuple[dict, dict]:
    spans = tracer.spans
    total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.end - s.start
    own = tracer.self_times()
    terracini_rrefs = [
        s
        for s in spans
        if s.name == "matrix.rref" and spans[s.parent].name != "matrix.hessian_rank"
    ]
    rref_s = sum(s.end - s.start for s in terracini_rrefs)
    largest = max(terracini_rrefs, key=lambda s: s.info["rows"] * s.info["cols"])
    flops = sum(rref_flops(**s.info) for s in terracini_rrefs)
    certify_spans = [s for s in spans if s.name == "pipeline.certify"]
    attempts = sum(1 for s in spans if s.name == "geometry.terracini")
    # an attempt is useful when it yields a certificate (certify) or a
    # replay verdict (verify); certify spans that raised yielded nothing
    replays = attempts - sum(
        1
        for s in spans
        if s.name == "geometry.terracini"
        and s.parent >= 0
        and spans[s.parent].name == "pipeline.certify"
    )
    useful = replays + sum(1 for s in certify_spans if not s.failed)
    cert_bytes = sum(
        s.info["bytes"] or 0
        for s in spans
        if s.name in ("certificate.format", "certificate.parse")
    )
    wall = total["op"]
    m = {
        "matrix.rref_s": (rref_s, "s"),
        "matrix.rref_rows": (largest.info["rows"], "count"),
        "matrix.rref_cols": (largest.info["cols"], "count"),
        "matrix.rref_rank": (largest.info["rank"], "count"),
        "matrix.rref_gflops": (flops / rref_s / 1e9, "GFLOP/s"),
        "matrix.dgemm_ref_gflops": (
            dgemm_gflops(np, largest.info["rows"], largest.info["cols"]),
            "GFLOP/s",
        ),
        "matrix.hessian_rank_s": (total.get("matrix.hessian_rank", 0.0), "s"),
        "matrix.null_vector_s": (total.get("matrix.null_vector", 0.0), "s"),
        "geometry.terracini_s": (own.get("geometry.terracini", 0.0), "s"),
        "geometry.tangent_basis_s": (total.get("geometry.tangent_basis", 0.0), "s"),
        "geometry.sample_s": (total.get("geometry.sample", 0.0), "s"),
        "geometry.hessian_s": (total.get("geometry.hessian", 0.0), "s"),
        "certificate.format_s": (total.get("certificate.format", 0.0), "s"),
        "certificate.parse_s": (total.get("certificate.parse", 0.0), "s"),
        "certificate.bytes": (cert_bytes, "bytes"),
        "pipeline.attempts": (attempts, "count"),
        "pipeline.useful_ratio": (useful / attempts, "ratio"),
        "pipeline.self_s": (own["op"] + own.get("pipeline.certify", 0.0), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_s, "s"),
        "trace.spans": (len(spans), "count"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in m.items()}
    # every span's time lands in exactly one of these (the curvature-form
    # rank's own rref is inside matrix.hessian_rank_s)
    parts = [
        name
        for name, (v, u) in m.items()
        if u == "s" and name.split(".")[0] != "trace"
    ]
    shares = {name: m[name][0] / wall for name in parts}
    extra = {
        "shares_of_trace_wall": shares,
        "unaccounted_s": wall - sum(m[name][0] for name in parts),
        "rref_flops_computed": flops,
        "dgemm_ref_shape": [largest.info["rows"], BLOCK, largest.info["cols"]],
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    cc = import_chowcert()
    import numpy as np

    setup_s = None if args.trace else setup_seconds(args.seed)
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = WORKLOADS[args.workload]()
    workload.prepare(cc, rng)
    cc.pipeline.certify(2, seed=rng.getrandbits(64))  # warm-up, as in set-up

    gate = Gate()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(np, threads),
    }
    if args.trace:
        tracer = Tracer()
        plain, traced = run_traced(cc, workload, tracer)
        for (arg, out, _), (_, again, _) in zip(traced, plain):
            workload.check(arg, out, gate)
            gate.record(
                "untraced and traced calls agree",
                [] if workload.key(out) == workload.key(again) else ["outputs differ"],
            )
        records = traced
        metrics, detail["layers"] = layer_metrics(
            tracer, sum(s for _, _, s in plain), np
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        records = run_calls(workload, args.seconds)
        for arg, out, _ in records:
            workload.check(arg, out, gate)
        primary = [s for arg, _, s in records if workload.timing_kind(arg) == workload.kind]
        metrics = {
            "call_s": {"value": statistics.median(primary), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    check_reference(cc, REFERENCE.read_text(encoding="utf-8"), gate)

    kinds = sorted({workload.timing_kind(arg) for arg, _, _ in records})
    detail["calls"] = {
        kind: summary([s for arg, _, s in records if workload.timing_kind(arg) == kind])
        for kind in kinds
    }
    detail["failures"] = gate.failures
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not gate.failures,
                "attempted": gate.attempted,
                "failed": len(gate.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
