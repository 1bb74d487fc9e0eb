#!/usr/bin/env python3
"""scrubbench set runner and comparator. Invoked through run.sh, which builds
the benchmark first and passes --binary.

  run.sh [--repeats 5] [--seed 1] [--seconds S] [--out FILE]
      Runs every workload --repeats times, each run in its own process with
      seed N + repeat, alternating the workload order between repeats.
      Prints every end-to-end metric with its unit as median [q1, q3] and
      writes medians, quartiles and raw values to FILE.
  run.sh --trace [--seed 1] [--seconds S] [--out FILE]
      One traced run per workload: the per-layer table, trace.overhead_frac,
      and build-scrubbench/trace-<workload>.json (Chrome trace format).
  run.sh --smoke [--seed 1]
      5 simulated seconds per workload with the oracle on, then
      --check-driver on every workload.
  run.sh --compare A.json B.json
      Applies the bounds in BENCHMARK.json to two sets (A the base, B the
      change). Per (metric, workload): worse, no worse, or unresolved when
      either set's quartile spread is wider than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", os.path.dirname(binary), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"scrubbench: {' '.join(cmd)} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), wall, proc.stdout


def summarize(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def spread(s):
    return abs(s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def compiler_version():
    cache = os.path.join(ROOT, "build-scrubbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], text=True,
                                         capture_output=True, check=False)
                    return out.stdout.splitlines()[0]
    except OSError:
        pass
    return "unknown"


def write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def run_set(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    values = {w: {} for w in names}
    walls = {w: [] for w in names}
    seeds = [args.seed + r for r in range(args.repeats)]
    for r, seed in enumerate(seeds):
        order = names if r % 2 == 0 else list(reversed(names))
        for w in order:
            result, wall, _ = run_one(args.binary, w, seed, args.seconds,
                                      False)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"scrubbench: {w} seed {seed} is not "
                                 f"correct: {json.dumps(result)}")
            walls[w].append(round(wall, 2))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  repeat {r} {w:7s} seed {seed}: {wall:5.1f} s wall, "
                  f"{result['attempted']} checks, 0 failed")
    results = {w: {n: dict(summarize(v), unit=units.get(n, ""))
                   for n, v in values[w].items()} for w in names}
    for w in names:
        print(f"\n{w}: median [q1, q3] over {args.repeats} runs")
        for m in bench["end_to_end"]:
            s = results[w][m["name"]]
            print(f"  {m['name']:22s} {s['median']:16.4f} {m['unit']:9s}"
                  f"[{s['q1']:.4f}, {s['q3']:.4f}]  spread {spread(s):.2%}")
    doc = {"meta": {"nproc": os.cpu_count(), "compiler": compiler_version(),
                    "seconds": args.seconds, "repeats": args.repeats,
                    "seeds": seeds, "wall_s": walls},
           "results": results}
    write(args.out, doc)


def run_trace(args, bench):
    results = {}
    for w in [w["name"] for w in bench["workloads"]]:
        result, _, stdout = run_one(args.binary, w, args.seed, args.seconds,
                                    True)
        sys.stdout.write(stdout)
        results[w] = {n: m for n, m in result["metrics"].items()}
    write(args.out, {"meta": {"nproc": os.cpu_count(),
                              "compiler": compiler_version(),
                              "seconds": args.seconds, "seed": args.seed},
                     "per_layer": results})


def run_smoke(args, bench):
    for w in [w["name"] for w in bench["workloads"]]:
        result, wall, _ = run_one(args.binary, w, args.seed, 0, False,
                                  ("--sim-seconds", "5"))
        print(f"smoke {w:7s}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"({wall:.1f} s)")
        if not result["correct"] or result["failed"]:
            raise SystemExit(1)
    check = subprocess.run([args.binary, "--check-driver",
                            "--seed", str(args.seed)], check=False)
    if check.returncode != 0:
        raise SystemExit(1)


def compare(base_path, change_path, bench):
    with open(base_path) as f:
        base = json.load(f)["results"]
    with open(change_path) as f:
        change = json.load(f)["results"]
    any_worse = False
    print(f"{'workload':9s}{'metric':24s}{'base':>14s}{'change':>14s}"
          f"{'delta':>9s}{'bound':>8s}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a = base.get(w, {}).get(m["name"])
            b = change.get(w, {}).get(m["name"])
            if a is None or b is None:
                print(f"{w:9s}{m['name']:24s}{'':>45s}  unresolved (missing)")
                continue
            lower = m["better"] == "lower"
            delta = (b["median"] - a["median"]) / abs(a["median"]) \
                if a["median"] else 0.0
            worse_by = delta if lower else -delta
            better_everywhere = (max(b["values"]) < min(a["values"]) if lower
                                 else min(b["values"]) > max(a["values"]))
            if max(spread(a), spread(b)) > m["bound"] and \
                    not better_everywhere:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "no worse"
            print(f"{w:9s}{m['name']:24s}{a['median']:14.4f}"
                  f"{b['median']:14.4f}{delta:+9.2%}{m['bound']:8.3f}  "
                  f"{verdict}")
    return 1 if any_worse else 0


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--binary")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare, bench)
    if not args.binary:
        p.error("--binary is required (use run.sh)")
    if args.out is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        kind = "trace" if args.trace else "set"
        args.out = os.path.join(os.path.dirname(args.binary),
                                f"{kind}-{stamp}.json")
    if args.smoke:
        run_smoke(args, bench)
    elif args.trace:
        run_trace(args, bench)
    else:
        run_set(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
