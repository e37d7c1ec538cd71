#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload spec --seed 1 --seconds 20 --trace 0

builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it, and passes its output through: a human
table on stderr and, as the last stdout line, the JSON result.

Other modes:

    --all                            every workload, untraced then traced,
                                     seed 1, 20 s each
    --spread                         10 seeds per workload, 20 s each; per
                                     end-to-end metric the quartile spread
                                     over median
    --sensitivity                    the injected-delay check (see README;
                                     6 s, 3 runs per side)
    --write-spec                     regenerate BENCHMARK.json from the
                                     catalogue in perfbench/src/metrics.rs
    --list                           the metric catalogue as Markdown

Run from the repository root.
"""

import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["spec", "bulk", "churn"]
# A single run must end within this; the binary itself stops after
# --seconds plus set-up.
RUN_TIMEOUT_S = 170
# Seconds per run (BENCHMARK.json's run_seconds), and the spread check's
# seeds per workload.
RUN_SECONDS = 20
SPREAD_SEEDS = 10
# The sensitivity check: seconds per run and runs per side.
SENSITIVITY_SECONDS = 6
SENSITIVITY_RUNS = 3
# The sensitivity check: which delay, in front of which of GiantSan's calls,
# must move run_s.giantsan on which workloads (and never run_s.native).
SENSITIVITY = [
    ("check", 800, {"spec", "bulk"}),
    ("alloc", 800, {"churn"}),
]


# personality(2) flag that turns address-space layout randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turns address-space randomisation off
    for the benchmark and the measuring processes it starts. With it on, a
    process's pass times depend on where its data landed: on a 2-core shared
    host, ten runs of `churn` varied by 30 % (quartile spread over median)
    with it on and by 10 % with it off. Left on if the call is refused."""
    libc = ctypes.CDLL(None)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def source_fingerprint():
    """The commit, or a hash of the sources when there is no git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        walk = [(path, [], [""])] if os.path.isfile(path) else os.walk(path)
        for d, dirs, files in walk:
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f) if f else d
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_binary(binary, args, quiet=False):
    """Runs one measurement; returns (exit code, stdout, parsed last line)."""
    scratch = os.path.join(target_dir(), "perfbench-scratch")
    env = dict(os.environ, PERFBENCH_COMMIT=source_fingerprint())
    proc = subprocess.run(
        [binary] + args + ["--scratch", scratch],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if quiet else None,
        text=True,
        timeout=RUN_TIMEOUT_S,
        preexec_fn=fixed_layout,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, proc.stdout, result


def catalogue(binary):
    out = subprocess.run([binary, "--catalogue"], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def write_spec(binary):
    cat = catalogue(binary)
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": cat["workloads"],
        "end_to_end": cat["end_to_end"],
        "per_layer": cat["per_layer"],
    }
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def spread(values):
    """Quartile spread over median, as the acceptance rule computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def spread_mode(binary):
    bounds = {m["name"]: m["bound"] for m in catalogue(binary)["end_to_end"]}
    ok = True
    for w in WORKLOADS:
        per_metric = {}
        for seed in range(1, SPREAD_SEEDS + 1):
            code, _, res = run_binary(
                binary,
                ["--workload", w, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                 "--trace", "0"],
                quiet=True,
            )
            if code != 0 or not res or not res["correct"]:
                print(f"{w} seed {seed}: run failed or incorrect ({res and res['failed']})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        for name, values in per_metric.items():
            s = spread(values) if len(values) >= 2 else 0.0
            flag = "" if s < bounds[name] / 3 else "  <-- above bound/3"
            ok &= not flag
            print(
                f"{w:6} {name:20} median {statistics.median(values):12.6g} "
                f"spread {s:7.4f} bound {bounds[name]}{flag}"
            )
    return 0 if ok else 1


def flagged(base, cand, bound):
    """The benchmark's comparison: the candidate's median is worse than the
    baseline's by more than the metric's bound (all metrics compared here
    are lower-is-better times)."""
    b, c = statistics.median(base), statistics.median(cand)
    return (c - b) / b > bound, (c - b) / b


def sensitivity_mode(binary):
    bounds = {m["name"]: m["bound"] for m in catalogue(binary)["end_to_end"]}
    ok = True
    for target, nanos, expect in SENSITIVITY:
        for w in WORKLOADS:
            sides = {0: {}, nanos: {}}
            for seed in range(1, SENSITIVITY_RUNS + 1):
                # Alternate which side runs first.
                order = [0, nanos] if seed % 2 else [nanos, 0]
                for ns in order:
                    code, _, res = run_binary(
                        binary,
                        ["--workload", w, "--seed", str(seed),
                         "--seconds", str(SENSITIVITY_SECONDS),
                         "--trace", "0", "--inject", f"{target}:{ns}"],
                        quiet=True,
                    )
                    if code != 0 or not res or not res["correct"]:
                        print(f"{w} {target}:{ns} seed {seed}: run failed")
                        return 1
                    for name in ["run_s.native", "run_s.giantsan"]:
                        sides[ns].setdefault(name, []).append(res["metrics"][name]["value"])
            for name in ["run_s.native", "run_s.giantsan"]:
                hit, delta = flagged(sides[0][name], sides[nanos][name], bounds[name])
                want = name == "run_s.giantsan" and w in expect
                verdict = "ok" if hit == want else "MISMATCH"
                ok &= hit == want
                print(
                    f"{target}:{nanos}ns {w:6} {name:15} {delta:+8.1%} "
                    f"{'flagged' if hit else 'unflagged':9} expected "
                    f"{'flagged' if want else 'unflagged':9} {verdict}"
                )
    print("sensitivity check: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if "--write-spec" in argv:
        write_spec(binary)
        return 0
    if "--list" in argv:
        return subprocess.run([binary, "--list"]).returncode
    if "--spread" in argv:
        return spread_mode(binary)
    if "--sensitivity" in argv:
        return sensitivity_mode(binary)
    if "--all" in argv:
        code = 0
        for w in WORKLOADS:
            for trace in ["0", "1"]:
                c, out, res = run_binary(
                    binary,
                    ["--workload", w, "--seed", "1", "--seconds", str(RUN_SECONDS), "--trace", trace],
                )
                sys.stdout.write(out)
                code |= c or (0 if res and res["correct"] else 1)
        return code
    code, out, _ = run_binary(binary, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"perfbench: timed out: {e}\n")
        sys.exit(1)
