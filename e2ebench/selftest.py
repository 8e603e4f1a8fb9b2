#!/usr/bin/env python3
"""Reduced-scale self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--scale 0.125] [--seed 5]

For every workload in BENCHMARK.json it checks that:
  * a --trace 0 run prints exactly the end-to-end metrics, and a --trace 1
    run exactly the per-layer metrics, each with BENCHMARK.json's unit and
    direction, both in the '# metric' lines and in the JSON result;
  * both runs report correct, with no failed operation (this covers the
    in-run repetition digest and the traced replay's digest);
  * every world's output digest is the same at one pool thread and at two
    or more, and the traced run's world matches the untraced run's world 0.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, scale, trace, threads=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "0.5", "--trace", str(trace), "--scale", str(scale)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        check(False, f"{workload} trace={trace} threads={threads} exits 0")
        return None
    lines = done.stdout.strip().splitlines()
    out = {
        "result": json.loads(lines[-1]),
        "metric_lines": {},
        "worlds": {},
        "trace_digest": None,
    }
    for line in lines:
        m = re.match(r"# metric (\S+)\s+(\S+)\s+(\S+)\s+better=(\S+)$", line)
        if m:
            out["metric_lines"][m.group(1)] = (m.group(3), m.group(4))
        m = re.match(r"# world (\d+) .*digest=([0-9a-f]+)", line)
        if m:
            out["worlds"][int(m.group(1))] = m.group(2)
        m = re.match(r"# catalogue=.* digest=([0-9a-f]+)", line)
        if m:
            out["trace_digest"] = m.group(1)
    return out


def check_metrics(label, out, spec):
    result = out["result"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct with no failed operation ({result['failed']} of "
          f"{result['attempted']})")
    names = [m["name"] for m in spec]
    check(list(result["metrics"]) == names, f"{label}: JSON metrics are exactly {len(names)} "
          "BENCHMARK.json names in order")
    check(list(out["metric_lines"]) == names, f"{label}: '# metric' lines name the same metrics")
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        line = out["metric_lines"].get(m["name"])
        check(got.get("unit") == m["unit"] and line == (m["unit"], m["better"]) and
              isinstance(got.get("value"), (int, float)),
              f"{label}: {m['name']} printed as a number in {m['unit']}, better={m['better']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.125)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cores = os.cpu_count() or 1

    for w in bench["workloads"]:
        name = w["name"]
        one = run(name, args.seed, args.scale, 0, threads=1)
        many = run(name, args.seed, args.scale, 0, threads=max(2, min(4, cores)))
        traced = run(name, args.seed, args.scale, 1)
        if one is None or many is None or traced is None:
            continue
        check_metrics(f"{name} trace=0", one, bench["end_to_end"])
        check_metrics(f"{name} trace=1", traced, bench["per_layer"])
        common = sorted(set(one["worlds"]) & set(many["worlds"]))
        check(len(common) >= 2 and all(one["worlds"][k] == many["worlds"][k] for k in common),
              f"{name}: {len(common)} world digests identical at 1 and "
              f"{max(2, min(4, cores))} pool threads")
        check(traced["trace_digest"] == one["worlds"].get(0),
              f"{name}: traced run's digest equals untraced world 0's")

    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
