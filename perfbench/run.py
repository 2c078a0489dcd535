#!/usr/bin/env python3
"""fsqsim benchmark: run one workload, or compare two sets of runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare SET_A SET_B

A run is one closed-loop client. It times a few set-ups (a fresh
interpreter importing fsqsim and parsing the workload's configs), then runs
rounds of the workload back to back until S seconds have passed; at least
one round, and only whole rounds. Each round is a fresh interpreter
(round.py), so the photon-count calibration and the channel builds are paid
every time, as on a user's CLI run. BLAS threads are left at the library
default and recorded.

The last line of standard output is the result: the end-to-end metrics
with --trace 0, the per-layer metrics of tracer.py with --trace 1. The
run's record (the result plus per-subcommand times, set-up samples,
environment and machine-speed probe) goes to perfbench/out/records/, next
to one record per round that also holds the check failures.

--compare takes two sets of untraced records (directories of record files,
or JSON-lines files) and gives, per workload and end-to-end metric, each
set's median and quartiles and a verdict under the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-up-only interpreters per run, besides each round's
DEADLINE_S = 170.0  # a run ends within 180 s
LAST_ROUND_START_S = 150.0


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(workload, seed, trace, timeout, record=None):
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if record is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--record", str(record)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round.py exited with {proc.returncode}")
    if record is None:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(record.read_text())


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run(args):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "fsqsim" / "cli.py").is_file():
        raise SystemExit(f"no fsqsim sources under {ROOT / 'src'}")
    spec = benchmark_spec()
    records = HERE / "out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    stem = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_child(args.workload, args.seed, 0,
                                 left())["setup_s"])
    rounds, round_files = [], []
    measure_start = time.monotonic()
    while True:
        record = records / f"{stem}-round{len(rounds)}.json"
        rounds.append(_child(args.workload, args.seed, args.trace, left(),
                             record))
        round_files.append(record.name)
        elapsed = time.monotonic() - measure_start
        longest = max(r["wall_s"] for r in rounds)
        if elapsed >= args.seconds or \
                time.monotonic() - start + longest > LAST_ROUND_START_S:
            break
    setups += [r["setup_s"] for r in rounds]

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: statistics.median(r["per_layer"].get(n, 0)
                                        for r in rounds) for n in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    summary = dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, started=stamp, setup_samples_s=setups,
        subcommand_wall_s=[{o["cmd"]: o["wall_s"] for o in r["ops"]}
                           for r in rounds],
        probe_s=[r["probe_s"] for r in rounds],
        env=dict(rounds[0]["env"], git_commit=git_commit()),
        rounds=round_files)
    (records / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))


# --- compare ----------------------------------------------------------------


def load_set(path: Path):
    """Untraced run summaries from a directory of records or a JSONL file."""
    if path.is_dir():
        items = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        items = [json.loads(line) for line in path.read_text().splitlines()
                 if line.strip()]
    return [r for r in items if "metrics" in r and not r.get("trace")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(a, b, bound, better):
    """(change of b's median against a's, verdict) for one metric; a
    positive change is a change for the worse."""
    change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if better == "higher":
        change, all_better = -change, min(b) > max(a)
    else:
        all_better = max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within bound"


def _cell(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {spread(values):5.1%}"


def compare(path_a: Path, path_b: Path):
    spec = benchmark_spec()
    sets = [load_set(path_a), load_set(path_b)]
    print(f"A = {path_a}\nB = {path_b}")
    print("cells: median [q1, q3] spread, where spread = (q3 - q1) / median")
    print(f"{'workload':15} {'metric':12} {'runs':>5}  {'A':34} {'B':34} "
          f"{'change':>7} {'bound':>5}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        runs = [[r for r in s if r["workload"] == name] for s in sets]
        if not all(runs):
            print(f"{name:15} (no runs in one of the sets)")
            continue
        for m in spec["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in rs]
                    for rs in runs)
            change, word = verdict(a, b, m["bound"], m["better"])
            print(f"{name:15} {m['name']:12} {len(a):>2}/{len(b):<2}  "
                  f"{_cell(a):34} {_cell(b):34} {change:>+7.1%} "
                  f"{m['bound']:>5.0%}  {word}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in runs]
        print(f"{name:15} failed share A {shares[0]:.4f}, B {shares[1]:.4f}"
              + ("" if shares[0] == shares[1] else "  DIFFERENT"))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("SET_A", "SET_B"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
