#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is suite-cold, unroll-search or serve-mix, or `all` for every
workload in turn with one summary row each. The script builds bench.exe
and the tsms daemon with dune into .bench_build/ (release profile, dune's
shared cache off and TMPDIR under .bench_run/, so nothing is written
outside the checkout). It then
runs one bench.exe process per pass until about S seconds of timed work
are done, checks every pass's outputs against reference.json, and prints
a table. The last line of standard output is the JSON result. The exit
status is non-zero on a build failure, an invariant violation, an output
mismatch or any failed operation.

--write-ref records the outputs of the run as the new reference instead
of checking them; use it only when a change is meant to alter outputs.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT, where dune runs
REFERENCE = os.path.join(HERE, "reference.json")
# Everything the build and the passes write stays in the checkout.
ENV = dict(os.environ, DUNE_CACHE="disabled",
           TMPDIR=os.path.join(ROOT, ".bench_run", "tmp"))
WORKLOADS = ["suite-cold", "unroll-search", "serve-mix"]
# Stop starting passes once a run has taken this long, so that a whole
# invocation stays well inside three minutes on a slow machine.
MAX_RUN_S = 140.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10",
            "--trace": "0", "--write-ref": False}
    it = iter(argv)
    for flag in it:
        if flag == "--write-ref":
            opts[flag] = True
            continue
        if flag not in opts:
            fail("unknown argument %r (expected %s)" % (flag, ", ".join(opts)))
        value = next(it, None)
        if value is None:
            fail("%s needs a value" % flag)
        opts[flag] = value
    if opts["--workload"] not in WORKLOADS + ["all"]:
        fail("--workload must be one of %s or all" % ", ".join(WORKLOADS))
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    try:
        opts["--seed"] = int(opts["--seed"])
        opts["--seconds"] = float(opts["--seconds"])
    except ValueError:
        fail("--seed and --seconds must be numbers")
    if opts["--seconds"] <= 0:
        fail("--seconds must be positive")
    return opts


def build():
    needed = ("dune-project", "lib", "bin", os.path.join("perfbench", "dune"))
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("no tsms sources to build (missing %s); run from the root of a "
             "checkout" % ", ".join(missing))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "./perfbench/bench.exe", "./bin/tsms.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")
    return (os.path.join(ROOT, BUILD, "default", "perfbench", "bench.exe"),
            os.path.join(ROOT, BUILD, "default", "bin", "tsms.exe"))


def quantile(q, xs):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[i]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def median(xs):
    return quantile(0.5, xs)


def run_pass(exe, workload, seed, index, traced):
    cmd = [exe["bench"], "--workload", workload, "--seed", str(seed),
           "--pass", str(index), "--trace", "1" if traced else "0",
           "--tsms", exe["tsms"]]
    r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                       text=True)
    lines = r.stdout.strip().split("\n")
    try:
        p = json.loads(lines[-1])
    except ValueError:
        p = None
    if r.returncode != 0 or p is None:
        print("perfbench: %s pass %d exited with status %d"
              % (workload, index, r.returncode), file=sys.stderr)
        return None
    return p


def run_passes(exe, workload, opts):
    """Passes until about --seconds of timed work: stop when the next pass
    would overshoot by more than stopping now would fall short. A traced
    run alternates untraced and traced passes, so the tracing overhead is
    measured within the run."""
    trace = opts["--trace"] == "1"
    min_passes = 2 if trace else 1
    passes, timed, start = [], 0.0, time.time()
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        t0 = time.time()
        p = run_pass(exe, workload, opts["--seed"], i, traced)
        if p is None:
            return passes, False
        p["traced"] = traced
        passes.append(p)
        timed += p["wall_s"]
        print("  pass %d%s: setup %.3f s, wall %.3f s"
              % (i, " (traced)" if traced else "", p["setup_s"], p["wall_s"]),
              flush=True)
        took = time.time() - t0
        if len(passes) >= min_passes and (
                timed + p["wall_s"] / 2 >= opts["--seconds"]
                or time.time() - start + took > MAX_RUN_S):
            return passes, True


def output_failures(workload, passes, write_ref):
    """The deterministic outputs (digest, attempts reported by the search
    results, simulated cycles) must agree across passes and with the
    reference. Each disagreement counts as one failed operation."""
    keys = ("digest", "tms_attempts", "sim_cycles")
    mine = {k: passes[0][k] for k in keys}
    failures = 0
    for i, p in enumerate(passes[1:], 1):
        if any(p[k] != mine[k] for k in keys):
            print("perfbench: nondeterminism: pass %d gave %s, pass 0 gave %s"
                  % (i, {k: p[k] for k in keys}, mine), file=sys.stderr)
            failures += 1
    try:
        with open(REFERENCE) as f:
            refs = json.load(f)
    except (OSError, ValueError):
        refs = {}
    if write_ref:
        refs[workload] = mine
        with open(REFERENCE, "w") as f:
            json.dump(refs, f, indent=2, sort_keys=True)
            f.write("\n")
    elif refs.get(workload) != mine:
        print("perfbench: output mismatch: %s gave %s, %s holds %s"
              % (workload, mine, os.path.relpath(REFERENCE, ROOT),
                 refs.get(workload)), file=sys.stderr)
        failures += 1
    return failures


def end_to_end(passes):
    def med(f):
        return median([f(p) for p in passes])
    # Latency quantiles over every call of the run: a pass alone has only
    # about 20 samples above its p99.
    lat = [x for p in passes for x in p["latency_ms"]]
    return [
        ("wall_s", "s", med(lambda p: p["wall_s"])),
        ("loops_per_s", "1/s", med(lambda p: p["loops"] / p["wall_s"])),
        ("req_per_s", "1/s", med(lambda p: p["requests"] / p["wall_s"])),
        ("latency_p50_ms", "ms", quantile(0.5, lat)),
        ("latency_p99_ms", "ms", quantile(0.99, lat)),
        ("setup_s", "s", med(lambda p: p["setup_s"])),
        ("peak_rss_mb", "MB", med(lambda p: p["peak_rss_mb"])),
    ]


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [(name, m["unit"],
             median([p["layers"][name]["value"] for p in traced]))
            for name, m in traced[0]["layers"].items()]
    tw = median([p["wall_s"] for p in traced])
    uw = median([p["wall_s"] for p in untraced])
    samples = sum(len(p["latency_ms"]) for p in passes)
    return rows + [
        ("trace.overhead_s", "s", tw - uw),
        ("trace.overhead_pct", "%", 100.0 * (tw - uw) / uw),
        ("latency.samples", "count", float(samples)),
    ]


def print_layers(metrics):
    v = {n: x for n, _, x in metrics}
    jw = v["acct.jobs_x_wall_s"]
    print("  layer accounting (median of the traced passes):")
    rows = [("sms", v["sms.busy_s"]), ("tms", v["tms.busy_s"]),
            ("sim", v["sim.busy_s"]), ("pool.idle", v["pool.idle_s"]),
            ("unattributed", v["acct.unattributed_s"]),
            ("jobs x wall_s", jw)]
    for name, s in rows:
        print("    %-14s %10.3f s %7.1f%%" % (name, s, 100.0 * s / jw))
    print("  tracing overhead %.3f s (%.1f%%)"
          % (v["trace.overhead_s"], v["trace.overhead_pct"]))
    for n, u, x in metrics:
        print("    %-24s %14.6g %s" % (n, x, u))


def run_workload(exe, workload, opts):
    """One workload: returns the result object the JSON line prints."""
    print("perfbench %s: seed %d, jobs 2" % (workload, opts["--seed"]))
    passes, completed = run_passes(exe, workload, opts)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if not completed or not passes:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": failed + 1, "metrics": {}}
    failed += output_failures(workload, passes, opts["--write-ref"])
    if opts["--trace"] == "1":
        metrics = per_layer(passes)
        print_layers(metrics)
    else:
        metrics = end_to_end(passes)
        print("  " + "  ".join("%s=%.4g %s" % (n, x, u) for n, u, x in metrics))
        print("  latency samples=%d  fail_ratio=%.4g (%d/%d)"
              % (sum(len(p["latency_ms"]) for p in passes),
                 failed / attempted if attempted else 0.0, failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": x, "unit": u} for n, u, x in metrics}}


def summary(results):
    """One row per workload, every metric by name with its unit."""
    first = next((r["metrics"] for _, r in results if r["metrics"]), {})
    names = list(first)
    units = [first[n]["unit"] for n in names]
    print("%-14s" % "workload" + "".join("%16s" % n for n in names)
          + "%12s" % "fail_ratio")
    print("%-14s" % "" + "".join("%16s" % u for u in units) + "%12s" % "ratio")
    for w, res in results:
        ratio = res["failed"] / res["attempted"]
        print("%-14s" % w + "".join(
            "%16.4g" % res["metrics"].get(n, {"value": float("nan")})["value"]
            for n in names) + "%12.4g" % ratio)


def main():
    opts = parse_args(sys.argv[1:])
    bench, tsms = build()
    exe = {"bench": bench, "tsms": tsms}
    workloads = WORKLOADS if opts["--workload"] == "all" else [opts["--workload"]]
    results = [(w, run_workload(exe, w, opts)) for w in workloads]
    if len(results) == 1:
        result = results[0][1]
    else:
        summary(results)
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, n): m for w, r in results
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
