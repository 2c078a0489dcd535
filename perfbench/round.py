#!/usr/bin/env python3
"""One round of a workload, in a fresh interpreter so that every cache
starts cold, as it does for a user's CLI run.

Started by run.py. Imports fsqsim and parses the workload's configs (the
set-up), then runs the workload's subcommands back to back through
``fsqsim.cli.main`` (the timed span), checks their outputs, and writes a
JSON record. With --setup-only it stops after the set-up and prints its
duration. With --trace 1 the spans of tracer.py are installed before the
timed span and the record also holds the per-layer metrics.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_threads():
    """Thread count the loaded OpenBLAS will use, read from the library."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    import fsqsim

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": fsqsim.KERNEL_BACKEND,
    }


def speed_probe():
    """Fixed work of about half a second: small complex matrix products and
    an interpreter loop. Not a metric; it tells a slow machine period apart
    from a slower program."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((36, 36)) * (0.1 + 0.1j)
    start = time.perf_counter()
    b = np.eye(36, dtype=complex)
    for _ in range(8000):
        b = a @ b
        b /= np.abs(b).max()
    x = 0
    for i in range(3_000_000):
        x += i & 7
    return time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() at which the parent started us")
    ap.add_argument("--record", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fsqsim.cli as cli
    from workloads import CHECKS, WORKLOADS, config_section

    ops = WORKLOADS[args.workload]
    cfgs = [config_section(ROOT, config, cmd) for cmd, config in ops]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_root = HERE / "out" / "runs" / f"{args.workload}-{os.getpid()}"
    results = []
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    for cmd, config in ops:
        argv = [cmd, "--config", str(ROOT / config), "--seed", str(args.seed),
                "--out", str(out_root / cmd)]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                rc, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append({"cmd": cmd, "config": config, "rc": rc,
                        "wall_s": time.perf_counter() - start,
                        "stderr": err.getvalue()[-2000:],
                        "check_failures": []})
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:  # the timed span only, not the checks below
        per_layer = tracer.metrics()
        spans = args.record.with_suffix(".spans.npz")
        tracer.save(spans)

    check_start = time.perf_counter()
    for res, cfg, (cmd, config) in zip(results, cfgs, ops):
        if res["rc"] != 0:
            continue
        try:
            res["check_failures"] = CHECKS[cmd](
                out_root / cmd, cfg, args.seed, ROOT / config)
        except Exception as exc:  # a check that cannot run has failed
            res["check_failures"] = [f"check raised {type(exc).__name__}: "
                                     f"{exc}"]
    check_s = time.perf_counter() - check_start
    failed = sum(1 for r in results
                 if r["rc"] != 0 or r["check_failures"])
    correct = all(not r["check_failures"] for r in results if r["rc"] == 0)
    if failed == 0:
        shutil.rmtree(out_root, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": failed,
        "correct": correct,
        "ops": results,
        "check_s": check_s,
        "env": environment(),
        "probe_s": speed_probe(),
    }
    if tracer is not None:
        record["per_layer"] = per_layer
        record["untraced_spans"] = tracer.missing
        record["spans_file"] = spans.name
    args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
