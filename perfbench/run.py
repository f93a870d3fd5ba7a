#!/usr/bin/env python3
"""Hyper-Q benchmark: three WP-A workloads against a separately spawned
`hyperq serve`, and an in-process traced run for per-layer numbers.

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree. It builds `bin/hyperq.exe` and the
benchmark client (perfbench/hqbench.exe) with dune into .bench_build, starts
`hyperq serve` with its defaults (only the port is chosen), and drives it
from one client process over real sockets, closed loop, with at most two
sessions. Intermediate files go to .bench_out.

--trace 0 prints the end-to-end metrics: client-side timings from the
untraced wire run. --trace 1 prints the per-layer metrics: the same
statements through the in-process traced path, plus a short wire run for
the network residual. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed statement or
failed check makes the run incorrect and the exit code 1.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HYPERQ = os.path.join(BUILD_DIR, "default", "bin", "hyperq.exe")
CLIENT = os.path.join(BUILD_DIR, "default", "perfbench", "hqbench.exe")

WORKLOADS = ["tpch_power", "bi_replay", "etl_mixed"]
# TPC-H scale factor the server loads (None: no TPC-H data)
TPCH_SF = {"tpch_power": "0.01", "bi_replay": None, "etl_mixed": "0.01"}
SETUP_REPEATS = 9
# query_geomean_ms counts statement classes with at least this many timed
# statements (all classes when none has): a median of a handful is noise
CLASS_MIN = 10
# A traced run gives this share of --seconds to a wire run (for the network
# residual) and the same budget to the traced statements; checking them
# against the pipeline and re-running them untraced takes about as long
# again, so a traced run lasts about as long as an untraced one.
TRACE_SHARE = 1 / 4

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_qps", "stmt/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("query_geomean_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sqlparser.lex_us", "us"),
    ("sqlparser.parse_us", "us"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.plan_cache.evictions", "count"),
    ("binder.bind_us", "us"),
    ("transform.transform_us", "us"),
    ("transform.rules_fired", "count"),
    ("serialize.serialize_us", "us"),
    ("serialize.sql_bytes", "bytes"),
    ("core.emulation.backend_requests", "count"),
    ("engine.execute_ms", "ms"),
    ("engine.join_build_rows", "count"),
    ("engine.join_probe_rows", "count"),
    ("engine.scan_rows", "count"),
    ("engine.fallback_ops", "count"),
    ("engine.fallback_scalars", "count"),
    ("tdf.store_us_per_krow", "us"),
    ("core.result_converter.convert_us_per_krow", "us"),
    ("tdf.spills", "count"),
    ("wire.frame_us_per_krow", "us"),
    ("wire.record_bytes_per_row", "bytes"),
    ("core.pipeline.lock_wait_ms", "ms"),
    ("net.residual_ms", "ms"),
    ("fig9.translate_pct", "%"),
    ("fig9.execute_pct", "%"),
    ("fig9.convert_pct", "%"),
    ("trace.overhead_pct", "%"),
]


def report_unit(name):
    """Unit of a printed-only figure, from its name."""
    if name.endswith("_ms") or ("_ms." in name):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name == "failed_frac":
        return "ratio"
    if name == "spans_file":
        return ""
    return "count"


PAPER_FIG9 = {"fig9.translate_pct": 0.5, "fig9.execute_pct": 98.0, "fig9.convert_pct": 1.0}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("run from the root of a Hyper-Q source tree (dune-project, lib/, bin/)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./bin/hyperq.exe", "./perfbench/hqbench.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed")


# --- server ------------------------------------------------------------------


class Server:
    """`hyperq serve` with its defaults on an ephemeral port."""

    def __init__(self, workload):
        self.proc = subprocess.Popen(
            [HYPERQ, "serve", "-p", "0"] + (["--tpch", TPCH_SF[workload]] if TPCH_SF[workload] else []),
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        self.port = None
        deadline = time.monotonic() + 120
        for line in self.proc.stdout:
            if "listening on" in line:
                self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                break
            if time.monotonic() > deadline:
                break
        if self.port is None:
            self.stop()
            raise BenchError("hyperq serve did not start")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def client(args, timeout):
    r = subprocess.run([CLIENT] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout)
    return r.returncode, r.stdout


def start_and_setup(workload):
    """Spawn the server and send the workload's set-up statements; returns
    the running server and the seconds this took."""
    t0 = time.monotonic()
    server = Server(workload)
    try:
        code, _ = client(["setup", "--workload", workload, "--port", str(server.port)], 120)
        if code != 0:
            raise BenchError("set-up statements failed")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - t0


def drive(workload, seed, port, seconds, tag):
    samples = os.path.join(OUT_DIR, f"samples_{tag}.tsv")
    code, out = client(["drive", "--workload", workload, "--seed", str(seed), "--port", str(port),
                        "--seconds", repr(seconds), "--samples", samples], seconds + 150)
    if code != 0:
        raise BenchError("wire run failed")
    summary = json.loads(out.strip().splitlines()[-1])
    rows = []
    with open(samples) as f:
        next(f)
        for line in f:
            session, cls, kind, lat_us, nrows, ok = line.rstrip("\n").split("\t")
            rows.append((cls, kind, float(lat_us) / 1e3, int(nrows), ok == "1"))
    return summary, rows


# --- statistics --------------------------------------------------------------


def percentile(values, q):
    s = sorted(values)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    i = int(pos)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (pos - i) * (s[i + 1] - s[i])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def wire_metrics(workload, summary, rows):
    elapsed = summary["elapsed_s"]
    lat = [r[2] for r in rows]
    by_class = {}
    for cls, _, ms, _, _ in rows:
        by_class.setdefault(cls, []).append(ms)
    m = {
        "throughput_qps": len(rows) / elapsed,
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_p99_ms": percentile(lat, 0.99),
        "query_geomean_ms": geomean([statistics.median(v) for v in (
            [v for v in by_class.values() if len(v) >= CLASS_MIN] or by_class.values())]),
        "rows_per_s": sum(r[3] for r in rows) / elapsed,
    }
    writes = [r[2] for r in rows if r[1] == "W"]
    report = {
        "failed_frac": summary["failed"] / max(1, summary["attempted"]),
        "latency_p90_ms": percentile(lat, 0.90),
        "statements": len(rows),
        "statement_classes": len(by_class),
    }
    if writes:
        report["write_p50_ms"] = percentile(writes, 0.5)
        report["write_p99_ms"] = percentile(writes, 0.99)
        report["writes"] = len(writes)
    if workload == "etl_mixed":
        report["extract_rows_per_s"] = sum(r[3] for r in rows if r[0] == "extract") / elapsed
        inserts = sum(1 for r in rows if r[0] == "insert")
        deletes = sum(1 for r in rows if r[0] == "delete")
        report["load_rows_per_s"] = (inserts - deletes) / elapsed
    if workload == "tpch_power":
        for cls in sorted(by_class):
            report[f"median_ms.{cls}"] = statistics.median(by_class[cls])
    return m, report


# --- runs --------------------------------------------------------------------


def fingerprint(workload, seed, seconds, trace):
    code, out = client(["fingerprint"], 120)
    if code != 0:
        raise BenchError("fingerprint failed")
    fp = json.loads(out.strip().splitlines()[-1])
    commit = None
    if os.path.isdir(".git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    fp.update({
        "nproc": os.cpu_count(),
        "tpch_sf": TPCH_SF[workload],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    })
    return fp


def run_untraced(workload, seed, seconds):
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, dt = start_and_setup(workload)
        setups.append(dt)
    try:
        summary, rows = drive(workload, seed, server.port, seconds, workload)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    metrics, report = wire_metrics(workload, summary, rows)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    report["setup_samples"] = len(setups)
    return summary["attempted"], summary["failed"], metrics, report


def run_traced(workload, seed, seconds):
    wire_s = max(1.0, seconds * TRACE_SHARE)
    server, _ = start_and_setup(workload)
    try:
        summary, rows = drive(workload, seed, server.port, wire_s, workload + "_wire")
    finally:
        server.stop()
    spans = os.path.join(OUT_DIR, f"spans_{workload}.tsv")
    budget = max(1.0, seconds * TRACE_SHARE)
    code, out = client(["trace", "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(budget), "--spans", spans], 175)
    if code != 0:
        raise BenchError("traced run failed")
    traced = json.loads(out.strip().splitlines()[-1])
    m = traced["metrics"]
    m["net.residual_ms"] = percentile([r[2] for r in rows], 0.5) - m["trace.statement_p50_ms"]
    metrics = {name: m[name] for name, _ in PER_LAYER}
    report = {k: v for k, v in m.items() if k not in metrics}
    report["spans_file"] = spans
    attempted = traced["attempted"] + summary["attempted"]
    failed = traced["failed"] + summary["failed"]
    return attempted, failed, metrics, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        fp = fingerprint(args.workload, args.seed, args.seconds, args.trace)
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, report = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in report.items():
        unit = report_unit(name)
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {name} = {value} {unit}".rstrip())
    if args.trace:
        for name, paper in PAPER_FIG9.items():
            print(f"  {name}: {metrics[name]:.2f}% here, ~{paper}% in the paper (Figure 9)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(OUT_DIR, f"result_{args.workload}_{args.seed}_trace{args.trace}.json"), "w") as f:
        json.dump({"fingerprint": fp, "report": report, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
