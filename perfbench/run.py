#!/usr/bin/env python3
"""Host-cost benchmark for imoltp: end-to-end and per-layer host time.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc-shoremt --seed 42 \
        --seconds 15 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) under $CARGO_TARGET_DIR, default .bench_build/.
Every workload process runs serially on one host thread with ASLR off
(setarch -R) so its simulated counters repeat exactly.

--trace 0 repeats an untraced Create + Run in fresh processes until the
runs add up to --seconds (at least three), checks every one, and reports
the median of each end-to-end metric. --trace 1 runs the traced passes
once (see README.md) and reports the per-layer metrics instead.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Metric names and units come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
MIN_REPS = 3
MAX_REPS = 12
# Stop adding repetitions after this much wall time in one invocation.
REP_WALL_LIMIT_S = 110
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("imoltp sources (src/) not found next to perfbench/")
    target_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "imoltp_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}")
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "imoltp_perfbench"), build_dir


def aslr_prefix():
    """Returns the command prefix that disables ASLR, or [] if unusable."""
    try:
        if subprocess.run(["setarch", "-R", "true"],
                          capture_output=True, timeout=30).returncode == 0:
            return ["setarch", "-R"]
    except (OSError, subprocess.TimeoutExpired):
        pass
    log("warning: setarch -R unusable; ASLR stays on, so simulated miss "
        "counts may differ between processes")
    return []


def launch(prefix, binary, mode, workload, seed, extra=()):
    cmd = prefix + [binary, mode, "--workload", workload, "--seed", str(seed),
                    *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload} timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected(workload, seed):
    """The default seed's recorded address-independent outcomes."""
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)["workloads"].get(workload)


def check_expected(expected, out, problems):
    if expected is None:
        return
    for key in ("instructions_per_txn", "committed"):
        if out[key] != expected[key]:
            problems.append(f"{key} {out[key]!r} != recorded {expected[key]!r} "
                            f"for seed {DEFAULT_SEED}")


def check_same(outs, keys, what, problems):
    for key in keys:
        values = {json.dumps(o[key]) for o in outs}
        if len(values) > 1:
            problems.append(f"{key} differs between {what}: {sorted(values)}")


def run_untraced(args, prefix, binary):
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or (
            sum(r["run_s"] for r in reps) < args.seconds and
            len(reps) < MAX_REPS and
            time.monotonic() - start < REP_WALL_LIMIT_S):
        reps.append(launch(prefix, binary, "run", args.workload, args.seed))

    problems = [f"rep {i}: {v}" for i, r in enumerate(reps)
                for v in r["violations"]]
    keys = ["instructions_per_txn", "committed", "aborted", "aslr_off"]
    if all(r["aslr_off"] for r in reps):
        keys.append("digest")
    check_same(reps, keys, "repeated runs", problems)
    check_expected(load_expected(args.workload, args.seed), reps[0], problems)

    median = lambda key: statistics.median(r[key] for r in reps)
    metrics = {
        "setup_s": median("setup_s"),
        "run_s": median("run_s"),
        "sim_refs_per_s": median("sim_refs_per_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["aborted"] for r in reps)
    info = {
        "error_rate (share)": failed / attempted,
        "repetitions": len(reps),
        "committed per run": reps[0]["committed"],
        "instructions_per_txn": reps[0]["instructions_per_txn"],
        "simulated ipc (result)": reps[0]["ipc"],
        "window digest": reps[0]["digest"],
    }
    return (metrics, attempted, failed, problems, info,
            all(r["aslr_off"] for r in reps))


def run_traced(args, prefix, binary, build_dir):
    plain = launch(prefix, binary, "run", args.workload, args.seed)
    deco = launch(prefix, binary, "decorated", args.workload, args.seed)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{args.workload}-{os.getpid()}.trc")
    try:
        rec = launch(prefix, binary, "record", args.workload, args.seed,
                     ["--trace-file", trace_file])
    finally:
        if os.path.exists(trace_file):
            os.remove(trace_file)

    problems = [f"{o['mode']}: {v}" for o in (plain, deco, rec)
                for v in o["violations"]]
    # Transparency: the decorators and the recorder change no outcome.
    keys = ["instructions_per_txn", "committed", "aborted"]
    aslr_off = plain["aslr_off"] and deco["aslr_off"]
    check_same([plain, deco], keys + (["digest"] if aslr_off else []),
               "decorated and plain runs", problems)
    check_same([plain, rec], keys, "recorded and plain runs", problems)
    check_expected(load_expected(args.workload, args.seed), plain, problems)

    L, R = deco["layers"], rec["replay"]
    txns = L["txns"]
    per = lambda n, d: n / d if d else 0.0
    index_s = L["probe_s"] + L["scan_s"]
    storage_s = L["read_s"] + L["write_s"]
    engine_self = L["execute_s"] - index_s - storage_s
    gen = L["txn_s"] - L["execute_s"]
    unattributed = deco["run_s"] - L["harness_s"] - L["txn_s"]
    for name, value in (("engine.self_s", engine_self), ("core.gen_s", gen),
                        ("bench.unattributed_s", unattributed)):
        if value < 0:
            problems.append(f"{name} is negative: self times overlap")
    mcsim_verbs = R["ifetch_s"] + R["read_s"] + R["write_s"]
    metrics = {
        "core.gen_s": gen,
        "core.harness_s": L["harness_s"],
        "core.txn_host_us.p50": L["txn_p50_us"],
        "core.txn_host_us.p99": L["txn_p99_us"],
        "core.rowgen_s": L["rowgen_s"],
        "engine.load_s": deco["setup_s"] - L["rowgen_s"],
        "engine.self_s": engine_self,
        "engine.execute_calls": L["execute_calls"],
        "index.self_s": index_s,
        "index.probe_ns": per(L["probe_s"] * 1e9, L["probes"]),
        "index.scan_ns": per(L["scan_s"] * 1e9, L["scans"]),
        "index.probes_per_txn": per(L["probes"], txns),
        "index.scans_per_txn": per(L["scans"], txns),
        "index.rows_per_scan": per(L["scanned_rows"], L["scans"]),
        "storage.self_s": storage_s,
        "storage.read_ns": per(L["read_s"] * 1e9, L["reads"]),
        "storage.write_ns": per(L["write_s"] * 1e9, L["writes"]),
        "storage.reads_per_txn": per(L["reads"], txns),
        "storage.writes_per_txn": per(L["writes"], txns),
        "txn.log_records_per_txn": per(plain["log_records"],
                                       plain["total_txns"]),
        "txn.aborts_per_ktxn": per(1000.0 * plain["aborted"],
                                   plain["attempted"]),
        "txn.lock_cycles_per_txn": per(plain["lock_cycles"],
                                       plain["attempted"]),
        "txn.log_cycles_per_txn": per(plain["log_cycles"],
                                      plain["attempted"]),
        "mcsim.replay_s": R["replay_s"],
        "mcsim.ifetch_s": R["ifetch_s"],
        "mcsim.read_s": R["read_s"],
        "mcsim.write_s": R["write_s"],
        "mcsim.ns_per_ref": per(mcsim_verbs * 1e9, R["refs"]),
        "mcsim.refs_per_txn": per(plain["sim_refs"], plain["attempted"]),
        "mcsim.instructions_per_txn": plain["instructions_per_txn"],
        "mcsim.l1i_mpki": plain["l1i_mpki"],
        "mcsim.l1d_mpki": plain["l1d_mpki"],
        "mcsim.l2_mpki": plain["l2_mpki"],
        "mcsim.llc_mpki": plain["llc_mpki"],
        "mcsim.tlb_mpki": plain["tlb_mpki"],
        "trace.decode_s": R["decode_s"],
        "trace.bytes_per_ref": per(R["trace_bytes"], R["refs"]),
        "bench.tracing_overhead": per(deco["run_s"], plain["run_s"]),
        "bench.unattributed_s": unattributed,
    }
    attempted = sum(o["attempted"] for o in (plain, deco, rec))
    failed = sum(o["aborted"] for o in (plain, deco, rec))
    info = {
        "pass A wall (setup + run) s": deco["setup_s"] + deco["run_s"],
        "untraced run_s": plain["run_s"],
        "trace events": R["events"],
        "window digest": plain["digest"],
    }
    return metrics, attempted, failed, problems, info, aslr_off


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        binary, build_dir = build()
        prefix = aslr_prefix()
        if args.trace:
            result = run_traced(args, prefix, binary, build_dir)
        else:
            result = run_untraced(args, prefix, binary)
        metrics, attempted, failed, problems, info, aslr_off = result
        if set(metrics) != set(units):
            raise BenchError("metric names differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    correct = not problems
    for p in problems:
        log(f"CHECK FAILED: {p}")
    if not correct:
        failed = attempted  # a failed output check fails every transaction
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"aslr_off={aslr_off} checks={'pass' if correct else 'FAIL'}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    for name, value in info.items():
        print(f"  {name}: {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
