#!/usr/bin/env python3
"""Build and run the udc benchmark from the root of a checkout.

One workload:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
All four workloads, one after the other, with a summary of every
end-to-end metric and the error rate:
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The benchmark program (udc_bench) is built with dune from the sources in the
checkout. Its last line of output is the JSON result; this script passes
it through unchanged. It exits non-zero, printing no result, when the
checkout holds no udc sources or the build fails.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["table1-cells", "scale-gossip", "thm36-exact", "explore-dpor"]
EXE = os.path.join("_build", "default", "perfbench", "udc_bench.exe")
OUT = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", os.path.join("lib", "dist"), os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a udc checkout (%s is missing)" % needed)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")
    check_declared()


def check_declared():
    """udc_bench must emit exactly the metrics BENCHMARK.json declares."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    declared = [("end_to_end", m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared += [("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]]
    listed = subprocess.run([EXE, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, timeout=RUN_TIMEOUT_S).stdout
    emitted = [tuple(line.split()) for line in listed.splitlines()]
    if sorted(emitted) != sorted(declared):
        fail("udc_bench's metrics differ from BENCHMARK.json: %s"
             % sorted(set(emitted) ^ set(declared)))


def env():
    os.makedirs(OUT, exist_ok=True)
    e = dict(os.environ)
    # the traced run's runtime-events ring file lands in OUT and is removed
    # at exit. It holds a ring for each of the 128 possible domains, so a
    # 2^14-word ring makes a 17 MB file; udc_bench drains the rings every
    # 10 ms.
    e["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    e.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    e["OCAMLRUNPARAM"] = "e=14"
    return e


def run(args, capture=False):
    """Runs udc_bench; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run(
            [EXE] + args,
            env=env(),
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout


def run_all(argv):
    opts = {"--seed": "1", "--seconds": "10", "--trace": "0"}
    i = 0
    while i < len(argv):
        if argv[i] in opts and i + 1 < len(argv):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            fail("--all takes only --seed, --seconds and --trace")
    rows, status = [], 0
    for w in WORKLOADS:
        args = ["--workload", w] + [x for kv in opts.items() for x in kv]
        code, out = run(args, capture=True)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            status = code or 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows.append((w, result))
    print("\nsummary (seed %s, %s s per workload)" % (opts["--seed"], opts["--seconds"]))
    for w, r in rows:
        print("%s: error_rate %.6g (%d failed of %d checked)"
              % (w, r["failed"] / r["attempted"], r["failed"], r["attempted"]))
        for name, m in r["metrics"].items():
            print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    return status


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["--all"]:
        return run_all(argv[1:])
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
