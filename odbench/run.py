#!/usr/bin/env python3
"""End-to-end benchmark of the odmpi simulator, on both clocks.

Run from the repository root:

    python3 odbench/run.py --workload nas|halo|storm --seed N \
        --seconds S --trace 0|1

The first run builds odbench/ (the library from src/ plus the pass program
odbench.cpp) into $CARGO_TARGET_DIR, or .bench_build when it is unset. A
run then repeats passes of the workload, each in a fresh process, for
--seconds. Host-clock metrics are medians over passes. Virtual-clock
metrics and counts come from the simulation and must be identical in every
pass of a seed; a pass that disagrees is a failure. With --trace 1 the run
alternates untraced and traced passes and prints the per-layer metrics,
the tracing overhead and the traced/untraced digest comparison.

Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every check passed. odbench/README.md
describes the workloads, the metrics and the known defects.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nas", "halo", "storm")
RUN_LIMIT_S = 170  # measuring must end by then; a pass still running fails
MIN_ROUNDS = 2

# Comm calls the workloads make, as named by odbench.cpp. COMMON_OPS run
# on every workload; the others only where the workload needs them.
OPS = ("isend", "irecv", "wait_any", "wait_all", "recv_any", "send",
       "allreduce", "barrier")
COMMON_OPS = ("isend", "irecv", "wait_any", "wait_all")
BLOCKING_OPS = ("wait_any", "wait_all", "recv_any", "send", "allreduce",
                "barrier")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the pass program; returns its path or None."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = os.path.join(build_dir, "odbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "odbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return exe


def run_pass(exe, workload, seed, traced, deadline):
    """One pass in a fresh process; returns its record (None on a crash or
    when it is still running at `deadline`)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"pass still running at the run's time limit: {' '.join(cmd)}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"pass exited {proc.returncode} without a record: {proc.stderr}")
        return None
    if proc.returncode != 0:
        log(f"pass exited {proc.returncode}: {record.get('failures')}")
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(passes, failed, attempted):
    """The end-to-end metrics of an untraced set of passes."""
    first = passes[0]
    host = [p["host_s"] for p in passes]
    return {
        "host_s": (median(host), "s"),
        "setup_s": (median([p["setup_s"] for p in passes]), "s"),
        "rss_peak_mb": (median([p["rss_peak_mb"] for p in passes]), "MB"),
        "virt_s_geomean": (first["virt_s_geomean"], "virt_s"),
        "virt_init_us": (first["virt_init_us"], "virt_us"),
        "msg_virt_us_p50": (first["msg_virt_us"]["p50"], "virt_us"),
        "msg_virt_us_p99": (first["msg_virt_us"]["p99"], "virt_us"),
        "vis_per_rank": (first["vis_per_rank"], "VI"),
        "pinned_kb_per_rank": (first["pinned_kb_per_rank"], "KiB"),
        "ops_ok_frac": (1.0 - ratio(failed, attempted), "ratio"),
    }


def per_layer(plain, traced, mismatches):
    """The per-layer metrics: wall intervals and counters from the untraced
    passes of the run, the host split and spans from the traced ones."""
    first = plain[0]
    st = first["stats"]
    worlds = first["worlds"]
    m = {}
    m["runtime.setup_s"] = (median([p["setup_s"] for p in plain]), "s")
    m["runtime.teardown_s"] = (median([p["teardown_s"] for p in plain]), "s")
    m["runtime.rss_mb"] = (
        median([max(w["rss_mb"] for w in p["worlds"]) for p in plain]), "MB")
    m["sim.events"] = (first["events"], "count")
    m["sim.ns_per_event"] = (
        median([p["host_s"] / p["events"] * 1e9 for p in plain]), "ns")

    split = {k: median([p["split"][k] for p in traced])
             for k in traced[0]["split"]}
    ops = {op: {"host_s": median([p["ops"][op]["host_s"] for p in traced]),
                "calls": traced[0]["ops"][op]["calls"],
                "virt": traced[0]["ops"][op]["virt_us"]} for op in OPS}
    m["app.host_s"] = (split["app"], "s")
    m["mpi.host_s"] = (sum(o["host_s"] for o in ops.values()), "s")
    m["mpi.calls"] = (sum(o["calls"] for o in ops.values()), "count")
    for op in OPS:
        m[f"mpi.{op}.calls"] = (ops[op]["calls"], "count")
        if op in COMMON_OPS:
            m[f"mpi.{op}.host_s"] = (ops[op]["host_s"], "s")
        if op in BLOCKING_OPS:
            m[f"mpi.{op}.virt_us_p50"] = (ops[op]["virt"]["p50"], "virt_us")
            m[f"mpi.{op}.virt_us_p99"] = (ops[op]["virt"]["p99"], "virt_us")

    hits = st.get("mpi.reg_cache_hits", 0)
    lookups = hits + st.get("mpi.reg_cache_misses", 0)
    m["mpi.device.eager_sends"] = (st.get("mpi.eager_sends", 0), "count")
    m["mpi.device.rndv_sends"] = (st.get("mpi.rndv_sends", 0), "count")
    m["mpi.device.packets_sent"] = (st.get("mpi.packets_sent", 0), "count")
    m["mpi.device.parked_sends"] = (st.get("mpi.parked_sends", 0), "count")
    m["mpi.device.reg_cache_lookups"] = (lookups, "count")
    m["mpi.device.reg_cache_hit_ratio"] = (ratio(hits, lookups), "ratio")
    recvs = st.get("mpi.recvs", 0)
    m["mpi.matching.recvs"] = (recvs, "count")
    m["mpi.matching.unexpected_ratio"] = (
        ratio(st.get("mpi.unexpected_msgs", 0), recvs), "ratio")

    spans = traced[0]["spans"]
    m["mpi.conn.connects"] = (st.get("mpi.ondemand_connects", 0), "count")
    m["via.conn.established"] = (st.get("conn.established", 0), "count")
    m["mpi.conn.handshakes"] = (spans["handshake"]["n"], "count")
    m["mpi.conn.handshake_virt_us_p50"] = (spans["handshake"]["p50"], "virt_us")
    m["mpi.conn.handshake_virt_us_p99"] = (spans["handshake"]["p99"], "virt_us")
    m["mpi.conn.parks"] = (spans["park"]["n"], "count")
    m["mpi.conn.park_virt_us_p99"] = (spans["park"]["p99"], "virt_us")
    m["mpi.msg.send_spans"] = (spans["send"]["n"], "count")
    m["mpi.msg.send_virt_us_p50"] = (spans["send"]["p50"], "virt_us")
    m["mpi.msg.send_virt_us_p99"] = (spans["send"]["p99"], "virt_us")
    m["mpi.msg.recv_virt_us_p50"] = (spans["recv"]["p50"], "virt_us")
    m["mpi.msg.recv_virt_us_p99"] = (spans["recv"]["p99"], "virt_us")
    for coll in ("allreduce", "barrier"):
        m[f"mpi.coll.{coll}.phases"] = (spans[coll]["n"], "count")
        m[f"mpi.coll.{coll}.virt_us_p50"] = (spans[coll]["p50"], "virt_us")
        m[f"mpi.coll.{coll}.virt_us_p99"] = (spans[coll]["p99"], "virt_us")

    m["via.fabric.packets"] = (st.get("fabric.packets", 0), "count")
    m["via.fabric.bytes"] = (st.get("fabric.bytes", 0), "B")
    m["via.vi.open_peak"] = (max(w["vis_open_max"] for w in worlds), "VI")
    m["via.mem.pinned_peak_kb"] = (
        max(w["pinned_peak_kb_max"] for w in worlds), "KiB")
    m["msg.samples"] = (first["msg_virt_us"]["n"], "count")

    plain_host = median([p["host_s"] for p in plain])
    traced_host = median([p["host_s"] for p in traced])
    m["trace.host_s"] = (traced_host, "s")
    m["trace.overhead_s"] = (traced_host - plain_host, "s")
    m["trace.events"] = (spans["events"], "count")
    m["trace.digest_mismatch_worlds"] = (mismatches, "count")
    return m


def compare_digests(plain, traced):
    """Compares each traced World with its untraced twin. Returns
    (known-defect mismatches, unexplained mismatches, report lines)."""
    known, unexplained, lines = 0, 0, []
    for w, t in zip(plain[0]["worlds"], traced[0]["worlds"]):
        if w["digest"] == t["digest"]:
            continue
        # The registration cache is keyed by heap address and tracing
        # allocates on the heap. A World whose cache hits moved differs
        # because of that known defect; any other difference means tracing
        # changed the model.
        if (w["reg_cache_hits"], w["reg_cache_misses"]) != (
                t["reg_cache_hits"], t["reg_cache_misses"]):
            known += 1
            lines.append(
                f"DEFECT {w['label']}: traced digest {t['digest']} != "
                f"untraced {w['digest']}; registration-cache hits/misses "
                f"{t['reg_cache_hits']:.0f}/{t['reg_cache_misses']:.0f} traced"
                f" vs {w['reg_cache_hits']:.0f}/{w['reg_cache_misses']:.0f}"
                " (cache keyed by heap address)")
        else:
            unexplained += 1
            lines.append(
                f"FAIL {w['label']}: traced digest {t['digest']} != untraced "
                f"{w['digest']} with the same registration-cache counts")
    return known, unexplained, lines


def fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:.0f}" if isinstance(value, (int, float)) else str(value)


def print_metrics(title, metrics, spread=None):
    print(f"\n{title}")
    for name, (value, unit) in metrics.items():
        extra = f"  (IQR {spread[name]:.3g} over passes)" if spread and \
            name in spread else ""
        print(f"  {name:<36} {fmt(value):>16} {unit}{extra}")


def print_worlds(passes, workload):
    print(f"\nWorlds of one {workload} pass (host: median over "
          f"{len(passes)} passes):")
    print(f"  {'world':<18} {'ranks':>5} {'host_s':>8} {'setup_s':>8} "
          f"{'teardown':>8} {'rss_mb':>7} {'events':>9} {'ns/event':>8} "
          f"{'virt_s':>10} {'init_us':>9} {'VIs':>6}")
    for i, w in enumerate(passes[0]["worlds"]):
        host = median([p["worlds"][i]["host_s"] for p in passes])
        setup = median([p["worlds"][i]["setup_s"] for p in passes])
        tear = median([p["worlds"][i]["teardown_s"] for p in passes])
        ns = host / w["events"] * 1e9 if w["events"] else 0
        print(f"  {w['label']:<18} {w['nranks']:>5} {host:>8.3f} "
              f"{setup:>8.4f} {tear:>8.4f} {w['rss_mb']:>7.1f} "
              f"{w['events']:>9.0f} {ns:>8.0f} {w['virt_s']:>10.6f} "
              f"{w['init_us']:>9.1f} {w['vis_per_rank']:>6.1f}")
    if workload == "nas":
        print("  nas.<cell>.verified: every rank of every cell verified "
              "(a failed cell fails the run)")


def print_ops(traced):
    print(f"\nComm calls (host: median over {len(traced)} traced passes; "
          "virtual duration per call):")
    print(f"  {'op':<10} {'calls':>8} {'host_s':>9} {'virt_us p50':>12} "
          f"{'virt_us p99':>12} {'n':>8}")
    for op in OPS:
        o = traced[0]["ops"][op]
        host = median([p["ops"][op]["host_s"] for p in traced])
        print(f"  {op:<10} {o['calls']:>8.0f} {host:>9.4f} "
              f"{o['virt_us']['p50']:>12.3f} {o['virt_us']['p99']:>12.3f} "
              f"{o['virt_us']['n']:>8.0f}")
    split = traced[0]["split"]
    print("  split of one traced pass: " + ", ".join(
        f"{k} {v:.4f}s" for k, v in split.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_start = time.monotonic()
    exe = build()
    if exe is None:
        log("build failed: odbench/ must sit in the odmpi source tree")
        return 2
    log(f"build check {time.monotonic() - build_start:.1f}s")

    modes = [False, True] if args.trace else [False]
    plain, traced = [], []
    failed = attempted = 0
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            record = run_pass(exe, args.workload, args.seed, mode, deadline)
            if record is None:
                failed += 1
                attempted += 1
                continue
            attempted += int(record["attempted"])
            failed += int(record["failed"])
            (traced if mode else plain).append(record)
        rounds += 1
        now = time.monotonic()
        if failed or (rounds >= MIN_ROUNDS and
                      now - start + (now - round_start) > args.seconds):
            break

    if not plain or (args.trace and not traced):
        log("no pass produced a record")
        return 1
    # Virtual time and counts depend on (workload, seed) only: every fresh
    # process of one kind must reproduce them.
    for kind, passes in (("untraced", plain), ("traced", traced)):
        digests = {p["digest"] for p in passes}
        attempted += 1
        if len(digests) > 1:
            failed += 1
            log(f"{kind} passes disagree: digests {sorted(digests)}")

    print(f"odbench {args.workload} seed={args.seed}: {len(plain)} untraced"
          f" + {len(traced)} traced passes in {time.monotonic() - start:.1f}s,"
          f" digest {plain[0]['digest']}")
    e2e = end_to_end(plain, failed, attempted)
    spread = {
        "host_s": iqr([p["host_s"] for p in plain]),
        "setup_s": iqr([p["setup_s"] for p in plain]),
        "rss_peak_mb": iqr([p["rss_peak_mb"] for p in plain]),
    }
    print_metrics(f"End to end (host: median of {len(plain)} passes; "
                  f"message percentiles over {plain[0]['msg_virt_us']['n']:.0f}"
                  " messages):", e2e, spread)
    print_worlds(plain, args.workload)
    metrics = e2e
    if args.trace:
        known, unexplained, lines = compare_digests(plain, traced)
        attempted += 1
        if unexplained:
            failed += 1
        layers = per_layer(plain, traced, known)
        print_ops(traced)
        print_metrics("Per layer:", layers)
        print("\nTraced vs untraced digest: " +
              ("identical" if not lines else f"{len(lines)} World(s) differ"))
        for line in lines:
            print("  " + line)
        metrics = layers

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
