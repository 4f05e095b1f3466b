#!/usr/bin/env python3
"""FOBS benchmark entry point.

    python3 perfbench/run.py --workload fetch_1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the harness (perfbench/CMakeLists.txt: the checkout's src/
libraries plus perfbench_fobs) into $CARGO_TARGET_DIR, default
.bench_build; checks the workload's loopback ports; runs the workload in
a private scratch directory; and prints, last on stdout, one JSON object with
"correct", "attempted", "failed" and "metrics". See README.md.
"""

import argparse
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each workload owns the loopback ports [base, base + PORT_SPAN): the
# catalog port, 32 control ports from base + 1, and one data port per
# stripe from base + 40.
WORKLOADS = {"fetch_1k": 28100, "fetch_8k_x2": 28200}
PORT_SPAN = 42
# Ranges other parts of the repository bind while they run.
RESERVED_PORTS = [
    (36000, 36099, "ctest"),
    (39000, 39999, "the fobsd demo"),
    (47000, 47999, "bench_stripes"),
]
HARNESS_TIMEOUT_S = 170

END_TO_END = {
    "goodput_mbps": "Mb/s",
    "fetch_ms_p90": "ms",
    "cpu_s_per_gib": "s/GiB",
    "setup_s": "s",
    "rss_peak_mib": "MiB",
}
PER_LAYER = {
    "common.crc32_ns_per_pkt": "ns",
    "codec.data_header_ns": "ns",
    "codec.ack_encode_ns": "ns",
    "codec.ack_decode_ns": "ns",
    "codec.ack_bytes": "bytes",
    "core.select_next_ns": "ns",
    "core.on_ack_ns": "ns",
    "core.on_data_packet_ns": "ns",
    "core.make_ack_ns": "ns",
    "net.send_ns_per_dgram": "ns",
    "net.recv_ns_per_dgram": "ns",
    "net.syscalls_per_pkt": "syscalls/pkt",
    "net.datagrams_per_syscall": "dgrams/syscall",
    "object.place_ns_per_pkt": "ns",
    "object.checksum_ms": "ms",
    "object.sync_ms": "ms",
    "checkpoint.save_us": "us",
    "checkpoint.saves_per_fetch": "saves/fetch",
    "driver.transfer_ms": "ms",
    "driver.waste_pct": "%",
    "driver.dup_pct": "%",
    "driver.sender_ns_per_pkt": "ns",
    "driver.receiver_ns_per_pkt": "ns",
    "driver.unaccounted_ns_per_pkt": "ns",
    "fileserver.overhead_ms": "ms",
    "engine.sessions_per_fetch": "sessions/fetch",
    "telemetry.counter_inc_ns": "ns",
    "telemetry.lookup_ns": "ns",
    "sim.run_ms_p50": "ms",
    "sim.pkts_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A condition under which no result may be printed."""


def build_dir():
    """$CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build."""
    path = (ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")).resolve()
    if path != ROOT and ROOT not in path.parents:
        path = ROOT / ".bench_build"
    return path


def build(bdir):
    """Configures (once) and builds perfbench_fobs; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    cmake_dir = bdir / "cmake"
    cache = cmake_dir / "CMakeCache.txt"
    log_path = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    compile_step = [cmake, "--build", str(cmake_dir), "--target", "perfbench_fobs",
                    "-j", str(min(4, os.cpu_count() or 1))]
    with open(log_path, "w") as log:
        for attempt in (1, 2):
            steps = [compile_step]
            if not cache.exists():
                configure = [cmake, "-S", str(HERE), "-B", str(cmake_dir),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                steps.insert(0, configure)
            if all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode == 0
                   for step in steps):
                return cmake_dir / "perfbench_fobs"
            if attempt == 2 or not cache.exists():
                break
            # A cache written for another checkout path cannot be reused.
            shutil.rmtree(cmake_dir)
    tail = "\n".join(log_path.read_text(errors="replace").splitlines()[-20:])
    raise BenchError(f"build failed (log: {log_path}):\n{tail}")


def overlaps(lo, hi, ports):
    return lo < ports.stop and ports.start <= hi


def check_ports(base):
    """The workload's ports must be free and clear of everyone else's."""
    ports = range(base, base + PORT_SPAN)
    span = f"ports {ports.start}-{ports.stop - 1}"
    for lo, hi, owner in RESERVED_PORTS:
        if overlaps(lo, hi, ports):
            raise BenchError(f"{span} overlap {owner}'s {lo}-{hi}")
    try:
        fields = Path("/proc/sys/net/ipv4/ip_local_port_range").read_text().split()
        lo, hi = int(fields[0]), int(fields[1])
    except (OSError, ValueError, IndexError):
        lo = hi = None
    if lo is not None and overlaps(lo, hi, ports):
        raise BenchError(f"{span} overlap the ephemeral range {lo}-{hi}")
    busy = []
    for port in ports:
        for kind, label in ((socket.SOCK_STREAM, "tcp"), (socket.SOCK_DGRAM, "udp")):
            with socket.socket(socket.AF_INET, kind) as sock:
                # The program's listeners set SO_REUSEADDR, so TIME_WAIT
                # left by an earlier run does not block them.
                if kind == socket.SOCK_STREAM:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    sock.bind(("0.0.0.0", port))
                except OSError:
                    busy.append(f"{port}/{label}")
    if busy:
        raise BenchError("ports in use: " + ", ".join(busy))


def check_metrics(reported, expected):
    """Returns (metrics, problems): the expected metrics that are present,
    finite and carry their unit, and one line for each that is not."""
    metrics, problems = {}, []
    for name, unit in expected.items():
        entry = reported.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if entry is None:
            problems.append(f"{name}: missing")
        elif entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not finite")
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def run_workload(workload, seed, seconds, trace, short=False, flip_byte=False):
    """Builds, checks and runs one workload. Returns (result, report): the
    result line's object and the harness's full report."""
    bdir = build_dir()
    binary = build(bdir)
    base = WORKLOADS[workload]
    check_ports(base)
    scratch_root = bdir / "scratch"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=workload + "-", dir=scratch_root))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed % 2**64),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--port-base", str(base)]
    if trace:
        spans = bdir / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    if short:
        cmd.append("--short")
    if flip_byte:
        cmd.append("--flip-byte")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {HARNESS_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench_fobs exited with status {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError("perfbench_fobs printed no report") from None
    metrics, problems = check_metrics(report["metrics"], PER_LAYER if trace else END_TO_END)
    report["metric_problems"] = problems
    attempted, failed = int(report["attempted"]), int(report["failed"])
    if attempted < 1:
        attempted, failed = 1, 1
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def selftest():
    """Short runs of every workload, traced and untraced: every declared
    metric is present, finite and carries its unit. A fetched file with
    one byte flipped after fetch_file returns counts as one failed op."""
    failures = []
    declared_path = ROOT / "BENCHMARK.json"
    if declared_path.exists():
        declared = json.loads(declared_path.read_text())
        if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
            failures.append("BENCHMARK.json workloads differ from run.py")
        for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if {m["name"]: m["unit"] for m in declared[key]} != expected:
                failures.append(f"BENCHMARK.json {key} metrics differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(workload, 7, 1, trace, short=True)
            if not result["correct"]:
                failures.append(f"{workload} --trace {trace}: ops_failed={report['ops_failed']} "
                                f"{report['metric_problems']}")
        result, report = run_workload(workload, 7, 1, 0, short=True, flip_byte=True)
        if result["failed"] != 1 or report["ops_failed"] != {"content_mismatch": 1}:
            failures.append(f"{workload}: flipped byte gave failed={result['failed']} "
                            f"ops_failed={report['ops_failed']}")
    for failure in failures:
        print("selftest FAIL:", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="FOBS benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="short runs of every workload plus the output-check test")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.selftest:
            return selftest()
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    context = {key: report.get(key) for key in ("ops_failed", "metric_problems", "info")}
    print(json.dumps({"perfbench": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
