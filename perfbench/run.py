#!/usr/bin/env python3
"""Repository benchmark: runs the real `repro` binary on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --pin          # re-record perfbench/pins.json

Run it from the repository root. It builds `repro` and the per-layer replayer
(`perfbench/layers`) with cargo into $CARGO_TARGET_DIR (default
`.bench_build`), then:

* `--trace 0`: runs `repro` back to back for S seconds, timing the
  workload's set-up through the replayer after each run, and reports the
  end-to-end metrics (medians over the runs);
* `--trace 1`: for S seconds, alternates one untraced `repro` run with one
  traced replay of the same workload by the replayer, and reports the
  per-layer metrics.

Every `repro` run is checked: it must exit 0 and its output digests must
equal the ones pinned for the workload and seed; a run that fails either
check is a failed operation. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORK = ROOT / ".bench_work"

# `--seed n` picks repro seed SEED_POOL[n % 16]; every pool seed has pinned
# digests, so every run is checked against known-good bytes. 42 is the
# seed of the checked-in figures.
SEED_POOL = [42] + list(range(1, 16))

# Workload sizes. "bench" is what the benchmark measures; "tiny" is for the
# benchmark's own smoke tests.
SIZES = {
    "bench": {
        "full-campaign": {"scale": "full"},
        "planet-propagate": {"scale": "planet", "origins": 16, "prefixes": 64},
        "serve": {"scale": "full", "windows": 240, "sketch_windows": 512, "epsilon": 0.01},
    },
    "tiny": {
        "full-campaign": {"scale": "test"},
        "planet-propagate": {"scale": "test", "origins": 4, "prefixes": 16},
        "serve": {"scale": "test", "windows": 16, "sketch_windows": 32, "epsilon": 0.01},
    },
}
WORKLOADS = list(SIZES["bench"])

# Metric names and units come from BENCHMARK.json. Per-layer times are
# replayer spans (medians over the traced replays); per-layer counts come from
# the untraced runs' --timing-json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


def build():
    """Build `repro` and the layer replayer; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/ (need Cargo.toml, crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "layers" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return release / "repro", release / "bb-perfbench-layers"


def repro_seed(seed):
    return SEED_POOL[seed % len(SEED_POOL)]


def legs(workload, size, seed, work):
    """The `repro` command lines of one operation, each with whether its
    stdout is checked. `serve` has three: exact mode to half its windows,
    the same command resumed to all of them, then a sketch-mode campaign."""
    p = SIZES[size][workload]
    common = ["--scale", p["scale"], "--seed", str(seed),
              "--jobs", "2" if workload == "planet-propagate" else "1"]
    if workload == "full-campaign":
        return [(["all", *common, "--csv", str(work / "csv"),
                  "--checkpoint", str(work / "ck")], True)]
    if workload == "planet-propagate":
        return [(["propagate", *common, "--origins", str(p["origins"]),
                  "--prefixes", str(p["prefixes"])], True)]
    if workload == "serve":
        exact = ["serve", "--dir", str(work / "exact"), *common]
        sketch = ["serve", "--dir", str(work / "sketch"), *common,
                  "--epsilon", str(p["epsilon"]), "--windows", str(p["sketch_windows"])]
        w = p["windows"]
        return [(exact + ["--windows", str(w // 2)], False),
                (exact + ["--windows", str(w)], True), (sketch, True)]
    raise ValueError(f"unknown workload {workload}")


def md5(data):
    return hashlib.md5(data).hexdigest()


def dir_digest(path):
    """md5 over the sorted (name, bytes) of every file in `path`."""
    h = hashlib.md5()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def spawn(argv, work):
    """Run one process; return (exit code, stdout bytes, wall s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=work)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def counter(report, label):
    return sum(c["count"] for c in report.get("counters", []) if c["label"] == label)


def run_op(repro, workload, size, seed, pins):
    """One checked operation. Returns a dict with `ok`, `why`, `stdout` (the
    checked legs' stdout, concatenated), `wall_s`, `rss_mb` and the summed
    --timing-json counts of its legs."""
    work = WORK / "op"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op = {"ok": True, "why": "", "wall_s": 0.0, "rss_mb": 0.0, "stdout": b"", "counts": {}}
    reports = []
    for i, (argv, checked) in enumerate(legs(workload, size, seed, work)):
        tj = work / f"timing{i}.json"
        code, out, wall, rss = spawn([str(repro), *argv, "--timing-json", str(tj)], work)
        op["wall_s"] += wall
        op["rss_mb"] = max(op["rss_mb"], rss)
        if checked:
            op["stdout"] += out
        if code != 0:
            op.update(ok=False, why=f"leg {i} exited {code}")
            return op
        reports.append(json.loads(tj.read_text()))
    op["counts"] = {
        "total_samples": sum(r["total_samples"] for r in reports),
        "cache_hits": sum(r["route_cache"]["hits"] for r in reports),
        "cache_misses": sum(r["route_cache"]["misses"] for r in reports),
        "sketch_resident_bytes": sum(
            r["serve"]["resident_bytes"] for r in reports
            if r.get("serve", {}).get("mode") == "sketch"),
    }
    for label in ("rib:tables", "rib:candidates_considered", "rib:candidates_installed",
                  "rib:interned_bytes", "rib:naive_bytes", "kernel:spray:cos_skipped",
                  "samples:spray", "kernel:bootstrap:batches"):
        op["counts"][label] = sum(counter(r, label) for r in reports)
    snap = work / "exact" / "snapshot.bbsn"
    op["counts"]["snapshot_bytes"] = snap.stat().st_size if snap.exists() else 0
    op["why"] = check(workload, op["stdout"], work, pins.get(str(seed)))
    op["ok"] = not op["why"]
    return op


def check(workload, stdout, work, pin):
    """Compare an operation's outputs with its pin; return '' or the reason."""
    if pin is None:
        return "no pinned digest for this seed"
    if md5(stdout) != pin["stdout"]:
        return f"stdout md5 {md5(stdout)} != pinned {pin['stdout']}"
    if workload == "full-campaign" and dir_digest(work / "csv") != pin["csv"]:
        return f"csv digest {dir_digest(work / 'csv')} != pinned {pin['csv']}"
    if workload == "planet-propagate" and (
            b" 0 violations" not in stdout or b"=== PROPAGATE OK ===" not in stdout):
        return "propagate did not report 0 violations and PROPAGATE OK"
    return ""


def replayer(layers, command, workload=None, size=None, seed=None, *extra):
    argv = [str(layers), command, *extra]
    if workload is not None:
        p = SIZES[size][workload]
        argv += ["--workload", workload, "--seed", str(seed), "--scale", p["scale"]]
        for flag in ("windows", "sketch_windows", "epsilon", "origins", "prefixes"):
            if flag in p:
                argv += [f"--{flag.replace('_', '-')}", str(p[flag])]
    res = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT)
    if res.returncode != 0:
        if command == "calib":
            raise BenchError("layer replayer calibration failed")
        return None
    return json.loads(res.stdout.decode().strip().splitlines()[-1])


def measure_ops(repro, workload, size, seed, seconds, pins, after_op=None):
    """Run checked operations back to back for `seconds` (at least one). No
    operation is started that would, at the median cost so far, end past
    `seconds`, so a run lasts about `seconds` whatever one operation costs."""
    ops, costs = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        op = run_op(repro, workload, size, seed, pins)
        if after_op is not None:
            after_op(op)
        ops.append(op)
        costs.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            return ops


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(repro, layers, workload, size, seed, seconds, pins):
    calib = replayer(layers, "calib")
    setups = []

    # One set-up in a fresh replayer process after each operation, cold as
    # `repro` pays it; setup_s is the median over the run, so it samples the
    # same stretch of time as the operations do.
    def setup(op):
        t = replayer(layers, "setup", workload, size, seed)
        if t is None:
            raise BenchError("layer replayer set-up failed")
        setups.append(t["setup_s"])

    ops = measure_ops(repro, workload, size, seed, seconds, pins, after_op=setup)
    good = [op for op in ops if op["ok"]] or ops
    med = lambda f: statistics.median(f(op) for op in good)
    metrics = {
        "wall_s": med(lambda op: op["wall_s"]),
        "setup_s": statistics.median(setups),
        "samples_per_s": med(lambda op: ratio(op["counts"].get("total_samples", 0), op["wall_s"])),
        "routes_per_s": med(lambda op: ratio(op["counts"].get("rib:candidates_installed", 0),
                                             op["wall_s"])),
        "peak_rss_mb": med(lambda op: op["rss_mb"]),
    }
    return ops, metrics, calib["calib_ns"], {"setups": len(setups)}


def per_layer(repro, layers, workload, size, seed, seconds, pins):
    calib = replayer(layers, "calib")
    traces = []
    trace_dir = WORK / "trace"

    def replay(op):
        shutil.rmtree(trace_dir, ignore_errors=True)
        t = replayer(layers, "trace", workload, size, seed, "--dir", str(trace_dir))
        rendered = t is not None and all(r.encode() in op["stdout"] for r in t["renders"])
        if not rendered:
            op.update(ok=False, why=op["why"] or "traced replay failed or rendered other figures")
        elif op["ok"]:
            traces.append((t, op["wall_s"]))

    ops = measure_ops(repro, workload, size, seed, seconds, pins, after_op=replay)
    c = next((op["counts"] for op in ops if op["ok"]), ops[0]["counts"])
    extra = {"traced_replays": len(traces)}
    if not traces:
        return ops, dict.fromkeys(LAYER_UNITS, 0.0), calib["calib_ns"], extra
    span = lambda name: statistics.median(t["spans"].get(name, [0.0])[0] for t, _ in traces)
    metrics = {name: span(name) for name, unit in LAYER_UNITS.items() if unit == "s"}
    samples = statistics.median(t["samples_spray"] for t, _ in traces)
    hits, misses = c.get("cache_hits", 0), c.get("cache_misses", 0)
    metrics.update({
        "bgp.tables": c.get("rib:tables", 0),
        "bgp.candidates_considered": c.get("rib:candidates_considered", 0),
        "bgp.install_ratio": ratio(c.get("rib:candidates_installed", 0),
                                   c.get("rib:candidates_considered", 0)),
        "bgp.interned_ratio": ratio(c.get("rib:interned_bytes", 0), c.get("rib:naive_bytes", 0)),
        "exec.route_cache_hits": hits,
        "exec.route_cache_misses": misses,
        "exec.route_cache_hit_rate": ratio(hits, hits + misses),
        "netsim.cos_skipped_share": ratio(c.get("kernel:spray:cos_skipped", 0),
                                          c.get("samples:spray", 0)),
        "measure.samples": c.get("total_samples", 0),
        "measure.ns_per_sample": ratio(span("measure.sample_windows_s") * 1e9, samples),
        "stats.bootstrap_batches": c.get("kernel:bootstrap:batches", 0),
        "stats.sketch_resident_bytes": c.get("sketch_resident_bytes", 0),
        "core.snapshot_bytes": c.get("snapshot_bytes", 0),
        "bench.calib_ns": calib["calib_ns"],
        "trace.overhead_ratio": statistics.median(t["wall_s"] / w for t, w in traces),
        "trace.unattributed_share": statistics.median(
            max(0.0, 1.0 - t["root_s"] / t["wall_s"]) for t, _ in traces),
    })
    return ops, metrics, calib["calib_ns"], extra


def result(ops, metrics, units):
    failed = sum(not op["ok"] for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run(workload, seed, seconds, trace, size="bench", pins=None):
    """Build, measure and check one run; return (result dict, human lines)."""
    repro, layers = build()
    if pins is None:
        pins = json.loads(PINS.read_text())[size].get(workload, {})
    rseed = repro_seed(seed)
    measure = per_layer if trace else end_to_end
    try:
        ops, metrics, calib, extra = measure(repro, layers, workload, size, rseed, seconds, pins)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    res = result(ops, metrics, LAYER_UNITS if trace else E2E_UNITS)
    lines = [
        f"workload {workload} ({size}), --seed {seed} -> repro --seed {rseed}, "
        f"nproc {os.cpu_count()}, trace {int(trace)}",
        f"  operations {res['attempted']}, failed {res['failed']}, "
        f"error_rate {res['failed'] / res['attempted']:.4f}, bench.calib_ns {calib:.0f}"
        + "".join(f", {k} {v}" for k, v in extra.items()),
    ]
    lines.append("  operation walls (s): " + " ".join(f"{op['wall_s']:.3f}" for op in ops))
    lines += [f"  FAILED: {op['why']}" for op in ops if not op["ok"]]
    lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
    return res, lines


def pin(size, workloads):
    """Record the digests of `workloads` x every pool seed at `size`, from
    the checked legs run in a fresh directory. For `serve` that makes the
    exact pin an uninterrupted run's stdout; the resumed run is then checked
    against it."""
    repro, _ = build()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(size, {})
    for workload in workloads:
        pins[size][workload] = table = {}
        for seed in SEED_POOL:
            work = WORK / "pin"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            out = b""
            for argv, checked in legs(workload, size, seed, work):
                if checked:
                    code, leg_out, _, _ = spawn([str(repro), *argv], work)
                    if code != 0:
                        raise BenchError(f"pinning {workload} seed {seed}: exit {code}")
                    out += leg_out
            table[str(seed)] = {"stdout": md5(out)}
            if workload == "full-campaign":
                table[str(seed)]["csv"] = dir_digest(work / "csv")
            op = run_op(repro, workload, size, seed, table)
            if not op["ok"]:
                raise BenchError(f"pinning {workload} seed {seed}: {op['why']}")
            print(f"pinned {size} {workload} seed {seed}: {table[str(seed)]}", file=sys.stderr)
    shutil.rmtree(WORK, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"],
                    help="'all' runs every workload in turn, one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=list(SIZES), default="bench")
    ap.add_argument("--pin", action="store_true",
                    help="re-record pins.json (for --workload, or every workload) and exit")
    a = ap.parse_args()
    try:
        if a.pin:
            pin(a.size, WORKLOADS if a.workload in (None, "all") else [a.workload])
            return 0
        if a.workload is None:
            ap.error("--workload is required")
        for workload in WORKLOADS if a.workload == "all" else [a.workload]:
            res, lines = run(workload, a.seed, a.seconds, a.trace, a.size)
            print("\n".join(lines))
            print(json.dumps(res), flush=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
