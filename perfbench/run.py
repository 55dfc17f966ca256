#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jni-small|jni-bulk|serve-open|all \
        --seed N --seconds S --trace 0|1

The script builds the benchmark binaries (``cargo build --release`` of the
``perfbench`` package, into ``$CARGO_TARGET_DIR``, default
``.bench_build``), runs the workload in a process of its own and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its per-layer metrics, measured by the traced ledger run (the whole
ledger, whichever workload is named; the seed still drives every input).
A provenance line before it records the host, toolchain, sources,
build profile, features and seed.

``--workload all`` runs every workload untraced and prints one table.
The exit code is 0 only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = {
    "jni-small": "perfbench-jni",
    "jni-bulk": "perfbench-jni",
    "serve-open": "perfbench-serve",
}
FEATURES = {"perfbench-jni": [], "perfbench-serve": ["--features", "serve"]}
# Shares of --seconds for the two halves of the traced ledger run.
LEDGER_SHARES = {"perfbench-jni": 0.7, "perfbench-serve": 0.3}
# A run is killed after this long; the contract allows 180 s per run.
RUN_TIMEOUT_S = 170
ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(binary):
    """Builds one benchmark binary; returns its path or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--bin", binary, *FEATURES[binary],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: building {binary}: {e}")
        return None
    if done.returncode != 0:
        log(f"error: building {binary} failed (exit {done.returncode})")
        return None
    return target_dir() / "release" / binary


def run_binary(path, workload, seed, seconds, tag):
    """Runs a benchmark binary; returns (exit code, result document)."""
    out_dir = target_dir() / "perfbench-results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{tag}-seed{seed}.json"
    if out.exists():
        out.unlink()
    cmd = [str(path), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out)]
    # A fixed mmap threshold stops glibc from raising it after the first
    # large free, so the memory of a discarded set-up goes back to the OS
    # and rss_peak_mb reflects live memory, not allocator retention.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {path.name} {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stdout.write(done.stdout)
    if not out.exists():
        log(f"error: {path.name} {workload} wrote no result (exit {done.returncode})")
        return done.returncode or 1, None
    return done.returncode, json.loads(out.read_text())


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".git", "__pycache__"}
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "shims", HERE]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            for dirpath, dirnames, filenames in os.walk(r):
                dirnames[:] = sorted(d for d in dirnames if d not in skip)
                files.extend(pathlib.Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def provenance(seed, features):
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) or "not a git checkout"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "build_profile": "release (cargo default: opt-level 3, no LTO)",
        "features": features,
        "seed": seed,
    }


def declared_metrics(kind):
    """The metric names and units BENCHMARK.json declares, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def result_line(docs, ok, kind, seed):
    """Merges binary results into the contract line; checks that every
    declared metric is present with its declared unit."""
    metrics = {}
    for d in docs:
        metrics.update(d["metrics"])
    chosen = {}
    for name, unit in declared_metrics(kind):
        m = metrics.get(name)
        if m is None or m["unit"] != unit or not isinstance(m["value"], (int, float)):
            log(f"error: metric {name} missing or not in {unit}: {m}")
            ok = False
            continue
        chosen[name] = {"value": m["value"], "unit": unit}
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    correct = ok and all(d["correct"] for d in docs)
    features = sorted({d["info"]["features"] for d in docs})
    print("provenance " + json.dumps(provenance(seed, features), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": chosen}))
    return correct


def print_ledger(docs):
    """The per-layer ledger beside the end-to-end metric each layer metric
    should move (``ledger.json``), with the share of that workload's
    per-operation time where the layer runs a known number of times."""
    ledger = json.loads((HERE / "ledger.json").read_text())
    metrics, info = {}, {}
    for d in docs:
        metrics.update(d["metrics"])
        info.update(d["info"])
    per_op_ns = {"jni-small": info.get("small_ns_per_call_per_client"),
                 "jni-bulk": info.get("bulk_ns_per_call_per_client")}
    print()
    print(f"{'per-layer metric':<38} {'value':>14} {'unit':<6} {'share':>7}  should move")
    for name, row in ledger.items():
        m = metrics.get(name)
        if m is None:
            continue
        base = per_op_ns.get(row["workload"])
        share = ""
        if row["per_op"] and base and m["unit"] == "ns":
            share = f"{100 * m['value'] * row['per_op'] / base:.1f}%"
        print(f"{name:<38} {m['value']:>14.4f} {m['unit']:<6} {share:>7}  "
              f"{row['should_move']} on {row['workload']}")
    print()


def run_workload(workload, seed, seconds, trace):
    if trace:
        paths = {b: build(b) for b in LEDGER_SHARES}
        if None in paths.values():
            return 1
        docs, ok = [], True
        for binary, share in LEDGER_SHARES.items():
            code, doc = run_binary(paths[binary], "ledger", seed, seconds * share,
                                   f"{workload}-ledger-{binary}")
            if doc is None:
                return 1
            ok = ok and code == 0
            docs.append(doc)
        print_ledger(docs)
        return 0 if result_line(docs, ok, "per_layer", seed) else 1
    binary = WORKLOADS[workload]
    path = build(binary)
    if path is None:
        return 1
    code, doc = run_binary(path, workload, seed, float(seconds), workload)
    if doc is None:
        return 1
    return 0 if result_line([doc], code == 0, "end_to_end", seed) else 1


def run_all(seed, seconds):
    """Every workload untraced, then one table of the end-to-end metrics."""
    paths = {b: build(b) for b in set(WORKLOADS.values())}
    if None in paths.values():
        return 1
    rows, all_ok = [], True
    for workload, binary in WORKLOADS.items():
        print(f"=== {workload} ===")
        code, doc = run_binary(paths[binary], workload, seed, float(seconds), workload)
        ok = doc is not None and code == 0 and doc["correct"]
        all_ok = all_ok and ok
        rows.append((workload, doc, ok))
    names = [n for n, _ in declared_metrics("end_to_end")]
    print()
    print(f"{'metric':<14}" + "".join(f"{w:>22}" for w, _, _ in rows))
    for name in names + ["error_rate"]:
        cells = []
        for _, doc, _ in rows:
            if doc is None:
                cells.append("-")
            elif name == "error_rate":
                cells.append(f"{doc['error_rate']:.6f} ratio")
            else:
                m = doc["metrics"].get(name)
                cells.append(f"{m['value']:.4g} {m['unit']}" if m else "-")
        print(f"{name:<14}" + "".join(f"{c:>22}" for c in cells))
    print(f"{'correct':<14}" + "".join(f"{str(ok):>22}" for _, _, ok in rows))
    print("provenance " + json.dumps(provenance(seed, sorted({d['info']['features'] for _, d, _ in rows if d})),
                                     sort_keys=True))
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (0 < args.seconds <= 60):
        ap.error("--seconds must be in (0, 60]")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
