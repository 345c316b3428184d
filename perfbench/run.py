#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run as a
child process per workload so that its peak RSS, page faults and CPU split
belong to that workload alone.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric; a traced run also writes a Chrome trace and a per-layer
table next to the build.  --selftest runs every workload at smoke size and
checks that deliberately corrupted results trip the oracles.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no {needed} at {ROOT}: the benchmark builds the program "
                               "from source and needs the whole checkout")
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(out, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "fcqss_perfbench")


def build_info():
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or None
    if commit is None:
        # Not a git checkout: identify the sources by content.
        digest = hashlib.sha256()
        for top in ("CMakeLists.txt", "src", "perfbench"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        commit = "tree-sha256:" + digest.hexdigest()
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"), "commit": commit}


def run_child(binary, workload, seed, seconds, trace, settings, corrupt=None):
    """Runs one workload in a child; returns (child JSON, rusage)."""
    out_dir = os.path.join(build_dir(), "out")
    tmp_dir = os.path.join(build_dir(), "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--out", out_dir]
    if corrupt:
        command += ["--corrupt", corrupt]
    for key, value in settings.items():
        command += ["--param", f"{key}={value}"]
    env = dict(os.environ, TMPDIR=tmp_dir)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                             cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        output = child.stdout.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: benchmark binary exited with {child.returncode}")
    return json.loads(lines[-1]), usage


def metrics_of(spec, child, usage, trace):
    """Maps the child's report onto the metric list of BENCHMARK.json."""
    raw = dict(child["metrics"])
    cpu = usage.ru_utime + usage.ru_stime
    if trace:
        raw["fail_frac"] = child["failed"] / max(1, child["attempted"])
        raw["proc.minflt"] = usage.ru_minflt
        raw["proc.sys_frac"] = usage.ru_stime / cpu if cpu > 0 else 0.0
        wanted = spec["per_layer"]
    else:
        raw["setup_s"] = statistics.median(child["setup_s"])
        raw["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    metrics, missing = {}, []
    for metric in wanted:
        name = metric["name"]
        if name in raw:
            metrics[name] = {"value": raw[name], "unit": metric["unit"]}
        elif trace:
            # A layer this workload never calls reads 0.
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            missing.append(name)
    return metrics, missing


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    table = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in table:
        raise RuntimeError(f"unknown workload {args.workload}; known: {', '.join(table)}")
    binary = build()
    entry = table[args.workload]
    settings = entry["smoke" if args.size == "smoke" else "settings"]
    child, usage = run_child(binary, args.workload, args.seed, args.seconds, args.trace,
                             settings)
    metrics, missing = metrics_of(spec, child, usage, args.trace)
    correct = bool(child["correct"]) and not missing
    info = build_info()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "size": args.size, "build": info,
              "checks": child["checks"], "mismatches": child["mismatches"],
              "missing_metrics": missing, "setup_samples_s": child["setup_s"],
              "samples": child.get("samples", {}),
              "correct": correct, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    out_dir = os.path.join(build_dir(), "out")
    name = f"{args.workload}_seed{args.seed}_trace{int(args.trace)}.result.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(f"# workload {args.workload} seed {args.seed} ({args.size}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds} s)")
    print(f"# build: nproc {info['nproc']}, {info['compiler']}, {info['build_type']}, "
          f"{info['commit']}")
    print(f"# oracles: {', '.join(child['checks'])}; mismatches: {len(child['mismatches'])}")
    for mismatch in child["mismatches"]:
        print(f"#   {mismatch}")
    if args.trace:
        layers = os.path.join(out_dir, f"{args.workload}_seed{args.seed}.layers.tsv")
        print(f"# per-layer table ({layers}; Chrome trace beside it):")
        with open(layers) as f:
            for line in f:
                print("#   " + line.rstrip("\n"))
    for metric_name, metric in metrics.items():
        print(f"{metric_name} = {json.dumps(metric['value'])} {metric['unit']}")
    if missing:
        print(f"# missing metrics: {', '.join(missing)}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


def selftest():
    """Smoke-size run of every workload, then corrupted results that must fail."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    table = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    binary = build()
    failures = []
    for workload, entry in table.items():
        for trace in (False, True):
            child, usage = run_child(binary, workload, 1, 1, trace, entry["smoke"])
            _, missing = metrics_of(spec, child, usage, trace)
            ok = child["correct"] and child["failed"] == 0 and not missing
            log(f"selftest {workload} trace={int(trace)}: "
                f"{'ok' if ok else 'FAILED'} {child['mismatches']} {missing}")
            if not ok:
                failures.append(f"{workload} trace={int(trace)}")
    corruptions = [("batch_fc", "verdict"), ("batch_fc", "cycle"),
                   ("explore_wide", "edge"), ("explore_par_spill", "verdict"),
                   ("serve_mixed", "reply")]
    for workload, kind in corruptions:
        child, _ = run_child(binary, workload, 1, 1, False, table[workload]["smoke"], kind)
        caught = not child["correct"] and child["mismatches"]
        log(f"selftest corrupt {kind} on {workload}: "
            f"{'caught' if caught else 'NOT CAUGHT'} {child['mismatches']}")
        if not caught:
            failures.append(f"corrupt {kind} on {workload} not caught")
    print(json.dumps({"selftest": "pass" if not failures else "fail", "failures": failures}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        return run_workload(args)
    except (RuntimeError, OSError, subprocess.CalledProcessError, ValueError) as error:
        log(f"run.py: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
