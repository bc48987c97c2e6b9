#!/usr/bin/env python3
"""The repo benchmark: drives the release `repro` binary from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `repro` and the benchmark's
probe (`perfbench/probe`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload for about S seconds in a fresh state
directory under `.bench_work/`, checks the program's outputs, and prints
every metric by name, unit and sample count. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones. See perfbench/README.md.
"""

import argparse
import csv
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("campaign-cold", "serve-open")
# Hard cap on any one child process; a run must end well inside 180 s.
PROC_TIMEOUT_S = 150
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now_ns():
    return time.monotonic_ns()


# --------------------------------------------------------------- tracing


class Tracer:
    """Spans around the benchmark's own calls, kept in memory."""

    def __init__(self, on):
        self.on = on
        self.spans = []
        self._next = 1

    def span(self, name, parent=0, req=0):
        return _Span(self, name, parent, req)


class _Span:
    def __init__(self, tracer, name, parent, req):
        self.tracer, self.name, self.parent, self.req, self.id = tracer, name, parent, req, 0

    def __enter__(self):
        if self.tracer.on:
            self.id = self.tracer._next
            self.tracer._next += 1
            self.start = now_ns()
        return self

    def __exit__(self, *exc):
        if self.tracer.on:
            self.tracer.spans.append({
                "id": self.id, "parent": self.parent, "name": self.name, "req": self.req,
                "start_ns": self.start, "end_ns": now_ns(),
            })
        return False


def read_spans(path, source):
    with open(path, encoding="utf-8") as f:
        return [dict(json.loads(line), source=source) for line in f if line.strip()]


def span_table(spans):
    """Per span name: count, total and self time (duration minus what its
    children cover), in the order of total time."""
    rows = {}
    for source in sorted({s["source"] for s in spans}):
        mine = [s for s in spans if s["source"] == source]
        selfs = stats.self_times(mine)
        for s in mine:
            r = rows.setdefault(s["name"], [0, 0, 0])
            r[0] += 1
            r[1] += s["end_ns"] - s["start_ns"]
            r[2] += selfs[s["id"]]
    return ["span %-28s n=%-6d total %11.3f ms  self %11.3f ms" % (n, c, t / 1e6, sf / 1e6)
            for n, (c, t, sf) in sorted(rows.items(), key=lambda kv: -kv[1][1])]


# ------------------------------------------------------------- processes

LIVE = []


class Proc:
    pass


def reap(p, timeout_s):
    """Waits for `p` (killing it after `timeout_s`), returning its exit
    code and peak resident set in bytes (the child's ru_maxrss). The wait
    blocks rather than polls: a poll's sleep would add up to its period
    to every measured wall, and a `repro status` takes about 1 ms."""
    watchdog = threading.Timer(timeout_s, p.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p in LIVE:
        LIVE.remove(p)
    return p.returncode, ru.ru_maxrss * 1024


def run(argv, cwd, timeout_s=PROC_TIMEOUT_S):
    """Runs a child to exit. Returns its wall times, the time each table
    (a stdout line starting `== `) appeared, its exit code, peak RSS and
    standard error."""
    r = Proc()
    err_path = os.path.join(cwd, "stderr.%d.txt" % len(os.listdir(cwd)))
    with open(err_path, "wb") as err:
        r.start_ns = now_ns()
        p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        LIVE.append(p)
        watchdog = threading.Timer(timeout_s, p.kill)
        watchdog.start()
        try:
            r.tables_ns = [now_ns() for line in p.stdout if line.startswith(b"== ")]
            p.stdout.close()
            r.code, r.rss = reap(p, timeout_s)
        finally:
            watchdog.cancel()
        r.end_ns = now_ns()
    with open(err_path, "r", encoding="utf-8", errors="replace") as f:
        r.stderr = f.read()
    return r


def cleanup_children():
    for p in list(LIVE):
        try:
            p.kill()
        except OSError:
            pass
        try:
            reap(p, 10)
        except ChildProcessError:
            LIVE.remove(p)


# ----------------------------------------------------------------- build


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "subcore-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for argv in steps:
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(argv))
    bins = (os.path.join(target_dir, "release", "repro"),
            os.path.join(target_dir, "release", "subcore-perfbench-probe"))
    for b in bins:
        if not os.access(b, os.X_OK):
            raise BenchError("build left no executable at " + b)
    return bins


# -------------------------------------------------------- machine record


def calibration_ms():
    """A fixed integer loop; its time puts the host's speed beside the
    figures so runs on different hosts are never compared blindly."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(300_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        times.append((time.perf_counter() - t) * 1e3)
    return sorted(times)[1]


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def machine_record(seed, nproc):
    def out(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    commit = out(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "available_parallelism": nproc,
        "rustc": out(["rustc", "--version"]),
        "commit": commit or None,
        "source_digest": source_digest(),
        "seed": seed,
        "calibration_ms": round(calibration_ms(), 3),
    }


# ------------------------------------------------------- state isolation


def tree_state(skip):
    """What a run must leave unchanged: every file's size and mtime,
    ignored ones too (a stray `results/.simcache` is what isolation
    guards against), outside the `skip` directories and `.git`."""
    state = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs
                         if os.path.join(d, x) not in skip and x not in (".git", "__pycache__"))
        for f in sorted(files):
            st = os.stat(os.path.join(d, f))
            state.append((os.path.relpath(os.path.join(d, f), ROOT), st.st_size, st.st_mtime_ns))
    return state


# -------------------------------------------------------------- artifacts


def last_snapshot(out_dir, stream):
    """Counters and gauges of the last metrics snapshot `repro` wrote, plus
    the maximum each gauge reached over the stream."""
    path = os.path.join(out_dir, ".metrics", stream + ".jsonl")
    with open(path, encoding="utf-8") as f:
        snaps = [json.loads(line) for line in f if line.strip()]
    if not snaps:
        raise BenchError("no metrics snapshot in " + path)
    gauge = lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]  # noqa: E731
    gmax = {}
    for s in snaps:
        for name, bits in s["gauges"]:
            gmax[name] = max(gmax.get(name, float("-inf")), gauge(bits))
    last = snaps[-1]
    return {
        "counters": dict(last["counters"]),
        "gauges": {n: gauge(b) for n, b in last["gauges"]},
        "gauge_max": gmax,
        "hist_sum": {h["name"]: h["sum"] for h in last["histograms"]},
    }


def telemetry_rows(out_dir):
    path = os.path.join(out_dir, "run_telemetry.csv")
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def cache_instructions(out_dir):
    """Warp instructions over every result in the disk cache."""
    total = 0
    d = os.path.join(out_dir, ".simcache")
    for name in os.listdir(d) if os.path.isdir(d) else []:
        with open(os.path.join(d, name), encoding="utf-8") as f:
            total += json.load(f)["stats"]["instructions"]
    return total


def engine_layer(snap, out_dir, wall_s, workers=None):
    """Engine, session and pool figures from what one `repro` process
    wrote: its last metrics snapshot and its disk cache. `workers`
    overrides the pool size the snapshot reports."""
    c = snap["counters"]
    sims = c.get("session.sim", 0)
    sim_wall_s = snap["hist_sum"].get("session.sim.wall_us", 0) / 1e6
    windows = c.get("engine.adaptive.windows", 0)
    instr = cache_instructions(out_dir) if sims else 0
    if workers is None:
        workers = snap["gauges"].get("pool.workers", 0.0)
    return {
        "engine.sims": sims,
        "engine.sim_wall_s": sim_wall_s,
        "engine.sim_cycles_per_s": c.get("engine.cycles", 0) / sim_wall_s if sim_wall_s else 0.0,
        "engine.warp_instr_per_s": instr / sim_wall_s if sim_wall_s else 0.0,
        "engine.fallback_frac": c.get("engine.adaptive.fallbacks", 0) / windows if windows else 0.0,
        "engine.windows": windows,
        "session.fresh": sims,
        "session.disk_hits": c.get("session.cache.disk_hit", 0),
        "session.memo_hits": c.get("session.cache.hit", 0),
        "supervisor.busy_frac":
            c.get("pool.busy_us", 0) / 1e6 / (workers * wall_s) if workers and wall_s else 0.0,
        "supervisor.workers": workers,
    }


# -------------------------------------------------------------- campaigns


class Campaign:
    def __init__(self, repro, cfg, nproc, tracer, mismatches):
        self.repro, self.cfg, self.nproc = repro, cfg["campaign"], nproc
        self.tracer, self.mismatches = tracer, mismatches

    def argv(self, out, warm):
        # Warm passes resume the finished campaign: journaled cells replay
        # from the journal, the rest from the disk cache.
        return [self.repro] + self.cfg["experiments"] + ["--jobs", str(self.nproc), "--out", out] \
            + (["--resume"] if warm else [])

    def run_pass(self, d, warm, req, traced=False):
        """One timed `repro` campaign in `d`; checks its outputs."""
        out = os.path.join(d, "out")
        tracer = self.tracer if traced else Tracer(False)
        if warm:
            # The fill pass left correct CSVs here; the digest check must
            # see what this pass writes.
            for name in self.cfg["csv_sha256"]:
                if os.path.exists(os.path.join(out, name)):
                    os.remove(os.path.join(out, name))
        t0 = now_ns()
        with tracer.span("repro.campaign", req=req):
            r = run(self.argv(out, warm), cwd=d)
        with tracer.span("artifacts.check", req=req):
            p = self.inspect(r, out, warm)
        p["window"] = (t0, now_ns())
        return p

    def inspect(self, r, out, warm):
        p = {
            "wall_s": (r.end_ns - r.start_ns) / 1e9,
            "tables_ms": [(t - r.start_ns) / 1e6 for t in r.tables_ns] or [(r.end_ns - r.start_ns) / 1e6],
            "rss_mb": r.rss / MIB,
            "out": out,
        }
        bad = []
        if r.code != 0:
            bad.append("repro exited %d: %s" % (r.code, r.stderr.strip()[-400:]))
        if len(r.tables_ns) != len(self.cfg["experiments"]):
            bad.append("%d tables printed for %d experiments"
                       % (len(r.tables_ns), len(self.cfg["experiments"])))
        for name, want in sorted(self.cfg["csv_sha256"].items()):
            path = os.path.join(out, name)
            got = hashlib.sha256(open(path, "rb").read()).hexdigest() if os.path.exists(path) else None
            if got != want:
                bad.append("%s digest %s, pinned %s" % (name, got, want))
        snap = last_snapshot(out, "campaign") if r.code == 0 else None
        c = snap["counters"] if snap else {}
        p["snap"] = snap
        p["attempted"] = max(c.get("supervisor.job.started", 0), 1)
        p["failed"] = (c.get("supervisor.job.failed", 0) + c.get("supervisor.job.aborted", 0)
                       if r.code == 0 else p["attempted"])
        if warm and c.get("session.sim", 0) != 0:
            bad.append("warm pass ran %d fresh simulations" % c["session.sim"])
        if not warm and c.get("session.cache.disk_hit", 0) != 0:
            bad.append("cold pass got %d disk hits" % c["session.cache.disk_hit"])
        p["cells_per_s"] = p["attempted"] / p["wall_s"]
        # Each simulated cell's own wall, start to result. A failed pass,
        # already a mismatch, stands in with its whole wall.
        p["cell_ms"] = [float(row["wall_ms"]) for row in telemetry_rows(out)
                        if row["source"] == "sim"] if r.code == 0 else []
        p["cell_ms"] = p["cell_ms"] or [p["wall_s"] * 1e3]
        self.mismatches.extend(bad)
        return p


def startup_probe(repro, work):
    """Fresh state directory plus a `repro` process that simulates
    nothing. Returns the ms from making the directory to the process's
    exit, and the process's own wall. A process start takes about 1 ms,
    so the probe keeps no output and starts no watchdog of `run`'s: that
    bookkeeping alone doubled the figure."""
    t = now_ns()
    d = tempfile.mkdtemp(dir=work)
    start = now_ns()
    p = subprocess.Popen([repro, "status", "--out", os.path.join(d, "out")], cwd=d,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    LIVE.append(p)
    code, _ = reap(p, PROC_TIMEOUT_S)
    end = now_ns()
    if code != 0:
        raise BenchError("repro status exited %d" % code)
    return (end - t) / 1e6, (end - start) / 1e6


def campaign_e2e(setups, passes):
    walls = [p["wall_s"] for p in passes]
    log("  %d passes, walls %s s, setups %d, median %.3f ms" % (
        len(walls), ["%.3f" % w for w in walls], len(setups), statistics.median(setups) * 1e3))
    # Cell latencies are summarised per pass and then averaged, so the
    # tail is read at the same percentile whatever the pass count. The
    # tail is the slowest twentieth of the cells, the TPC-H queries, whose
    # walls lie far apart: it is reported as their mean.
    ack_tail = stats.named_tail(passes[0]["cell_ms"], 99)[0]
    settles = [p["tables_ms"][-1] for p in passes]
    return {
        "setup_s": stats.iq_mean(setups),
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": stats.percentile([p["rss_mb"] for p in passes], 50),
        "ack_p50_ms": statistics.fmean(stats.percentile(p["cell_ms"], 50) for p in passes),
        "ack_p99_ms": statistics.fmean(stats.tail_mean(p["cell_ms"], 99)[1] for p in passes),
        "settle_p50_ms": stats.percentile(settles, 50),
        "settle_p99_ms": stats.named_tail(settles, 99)[1],
        "max_rate_jps": statistics.fmean(p["cells_per_s"] for p in passes),
    }, {"setup_s": len(setups), "per_pass": len(passes),
        "ack_p50_ms": "%d per pass" % len(passes[0]["cell_ms"]),
        "ack_p99_ms": "%d per pass" % len(passes[0]["cell_ms"]),
        "tail": {"ack_p99_ms": "p%g and beyond, mean" % ack_tail,
                 "settle_p99_ms": "p%g" % stats.named_tail(settles, 99)[0]}}


def pass_count(cfg, seconds):
    """Whole cold passes, as many as about fill `seconds` and at least
    two. The count depends on `seconds` only, so every run of a workload
    measures the same work."""
    return max(2, round(seconds / cfg["campaign"]["nominal_pass_s"]))


def run_campaign(ctx):
    camp = Campaign(ctx.repro, ctx.cfg, ctx.nproc, ctx.tracer, ctx.mismatches)
    setups, startups = [], []
    for i in range(ctx.cfg["setup_repeats"][ctx.workload]):
        with ctx.tracer.span("setup", req=i):
            ready_ms, startup_ms = startup_probe(ctx.repro, ctx.work)
        startups.append(startup_ms)
        setups.append(ready_ms / 1e3)

    # Untraced runs time every pass; traced runs alternate untraced and
    # traced passes, so drift over the run does not read as tracing
    # overhead.
    passes = [camp.run_pass(tempfile.mkdtemp(dir=ctx.work), warm=False, req=i,
                            traced=ctx.trace and i % 2 == 1)
              for i in range(pass_count(ctx.cfg, ctx.seconds))]
    # The same campaign resumed over the first pass's state must replay
    # it all: no simulation, the same CSVs.
    warm = [camp.run_pass(os.path.dirname(passes[0]["out"]), warm=True, req=len(passes) + i)
            for i in range(ctx.cfg["campaign"]["warm_checks"])]
    attempted = sum(p["attempted"] for p in passes + warm)
    failed = sum(p["failed"] for p in passes + warm)
    if not ctx.trace:
        e2e, counts = campaign_e2e(setups, passes)
        return e2e, counts, attempted, failed

    plain, traced = passes[0::2], passes[1::2]
    windows = [p["window"] for p in traced]
    base = stats.percentile([p["wall_s"] for p in plain], 50)
    last = traced[-1]
    layer = engine_layer(last["snap"], last["out"], last["wall_s"]) if last["snap"] else {}
    layer.update({
        "repro.startup_ms": stats.percentile(startups, 50),
        "repro.warm_pass_ms": stats.percentile([p["wall_s"] * 1e3 for p in warm], 50),
        "trace.overhead_frac": stats.percentile([p["wall_s"] for p in traced], 50) / base - 1.0,
        "trace.span_cover_frac": sum(
            stats.coverage(ctx.tracer.spans, a, b) * (b - a) for a, b in windows)
        / sum(b - a for a, b in windows),
        "serve.coalesced_frac": 0.0, "serve.shed_frac": 0.0, "serve.submits": 0,
        "serve.depth_max": 0.0, "serve.gen_late_p99_ms": 0.0,
    })
    cells = sorted({(r["app"], r["design"]) for r in telemetry_rows(last["out"])})
    layer.update(probe_layers(ctx, cells))
    return layer, {"per_pass": len(passes)}, attempted, failed


# ---------------------------------------------------------------- serving


def http_call(addr, method, path, timeout=10):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8", "replace")
    finally:
        conn.close()


class Daemon:
    def __init__(self, repro, work, nproc, capacity):
        self.dir = tempfile.mkdtemp(dir=work)
        self.out = os.path.join(self.dir, "out")
        addr_file = os.path.join(self.dir, "addr")
        argv = [repro, "serve", "--port", "0", "--dir", os.path.join(self.dir, "queue"),
                "--out", self.out, "--addr-file", addr_file, "--serve-workers", str(nproc),
                "--capacity", str(capacity)]
        self.err = open(os.path.join(self.dir, "serve.stderr.txt"), "wb")
        self.start_ns = now_ns()
        self.p = subprocess.Popen(argv, cwd=self.dir, stdout=subprocess.DEVNULL, stderr=self.err)
        LIVE.append(self.p)
        deadline = time.monotonic() + 30
        self.addr = None
        while True:
            if self.p.poll() is not None:
                raise BenchError("repro serve exited %s during start-up" % self.p.returncode)
            if time.monotonic() > deadline:
                raise BenchError("repro serve not healthy after 30 s")
            if self.addr is None and os.path.exists(addr_file):
                self.addr = open(addr_file, encoding="utf-8").read().strip() or None
            if self.addr:
                try:
                    status, body = http_call(self.addr, "GET", "/healthz", timeout=2)
                    if status == 200 and json.loads(body).get("ok"):
                        break
                except (OSError, ValueError, http.client.HTTPException):
                    pass
            time.sleep(0.002)
        self.ready_ns = now_ns()

    def kill(self):
        self.p.kill()
        reap(self.p, 10)
        self.err.close()

    def drain(self):
        """POST /drain, then wait for a clean exit; returns (code, rss)."""
        status, _ = http_call(self.addr, "POST", "/drain")
        code, rss = reap(self.p, 60)
        self.err.close()
        if status != 200:
            raise BenchError("POST /drain answered %d" % status)
        return code, rss


def make_plan(cfg, rng, seconds, first_unique):
    """The seeded open-loop schedule: fixed-rate ladder steps, each op a
    unique job, a re-submit of a settled key, or a duplicate of the
    latest (likely in-flight) unique job."""
    s = cfg["serve"]
    kinds = stats.Deck(rng, [k for k, n in sorted(s["mix"].items()) for _ in range(n)])
    cells = stats.Deck(rng, [(a, d) for a in s["apps"] for d in s["designs"]])
    plan, uniques, steps = [], [], []
    counter, start = first_unique, 0.0
    for rate, share in zip(s["ladder_jps"], s["ladder_share"]):
        step_ms = seconds * 1000.0 * share
        steps.append((start, start + step_ms, rate))
        gap = 1000.0 / rate
        for k in range(int(round(step_ms / gap))):
            due = start + k * gap
            kind = kinds.draw()
            settled = [u for u in uniques if u[0] <= due - s["resubmit_min_age_ms"]]
            if kind == "inflight" and uniques:
                spec = uniques[-1][1]
            elif kind == "resubmit" and settled:
                spec = rng.choice(settled)[1]
            else:
                app, design = cells.draw()
                spec = (app, design, s["sms"], s["max_cycles_base"] + counter)
                counter += 1
                kind = "unique"
                uniques.append((due, spec))
            plan.append((due, kind, spec))
        start += step_ms
    return plan, steps, counter


def serve_ladder(ctx, seconds, rng, first_unique, traced):
    """One daemon through one ladder: setup, load, drain, verify."""
    plan, steps, next_unique = make_plan(ctx.cfg, rng, seconds, first_unique)
    dm = Daemon(ctx.repro, ctx.work, ctx.nproc, ctx.cfg["serve"]["capacity"])
    plan_path = os.path.join(dm.dir, "plan.txt")
    with open(plan_path, "w", encoding="utf-8") as f:
        for due, _, (app, design, sms, cyc) in plan:
            f.write("%d %s %s %d %d\n" % (round(due * 1000), app, design, sms, cyc))
    load_out = os.path.join(dm.dir, "load.json")
    spans_path = os.path.join(dm.dir, "spans.jsonl")
    s = ctx.cfg["serve"]
    r = run([ctx.probe, "load", "--addr", dm.addr, "--plan", plan_path, "--out", load_out,
             "--poll-us", str(s["poll_us"]), "--settle-timeout-s", str(int(seconds) + 60),
             "--trace", "1" if traced else "0", "--spans", spans_path], cwd=dm.dir)
    if r.code != 0:
        raise BenchError("probe load failed: " + r.stderr.strip()[-400:])
    code, rss = dm.drain()
    if code != 0:
        ctx.mismatches.append("repro serve exited %d after drain" % code)
    with open(load_out, encoding="utf-8") as f:
        load = json.load(f)
    ctx.mismatches.extend(load["mismatches"])
    vout = os.path.join(dm.dir, "verify.json")
    v = run([ctx.probe, "verify", "--load-out", load_out, "--out", vout,
             "--threads", str(ctx.nproc)], cwd=dm.dir)
    if v.code != 0:
        raise BenchError("probe verify failed: " + v.stderr.strip()[-400:])
    with open(vout, encoding="utf-8") as f:
        ctx.mismatches.extend(json.load(f)["mismatches"])
    ops = []
    for rec in load["ops"]:
        ok = rec["status"] == 200 and rec["state"] == "done"
        ops.append(dict(rec, ok=ok))
        if rec["status"] != 200:
            ctx.mismatches.append("submit answered %d" % rec["status"])
        elif rec["state"] != "done":
            ctx.mismatches.append("job %s never observed done" % rec["id"])
    limit = s["settle_limit_ms"]
    step_reports = [stats.step_report(ops, a, b, limit, s["growth_slack"]) for a, b, _ in steps]
    for (_, _, rate), rep in zip(steps, step_reports):
        log("  step %3d jobs/s: n=%d settle p50 %.1f ms p99 %.1f ms, backlog growth %d, %s"
            % (rate, rep["n"], rep["settle_p50_ms"], rep["settle_p99_ms"],
               rep["backlog_growth"], "meets" if rep["meets"] else "MISSES"))
    snap = last_snapshot(dm.out, "serve")
    spans = read_spans(spans_path, "probe-load") if traced else []
    ctx.spans.extend(spans)
    # Latencies are read below the last step only: that step runs past
    # the capacity to show it, and its backlog would swamp a tail.
    nominal = [op for op in ops if op["due_ms"] < steps[-1][0]]
    return {
        "ops": ops, "nominal": nominal, "steps": step_reports,
        "setup_s": (dm.ready_ns - dm.start_ns) / 1e9,
        # Spawn to the generator's exit: the ladder, the overload step's
        # backlog settling, and reading every job back. The drain after it
        # ends on a 2.5 s lease-monitor tick, which would quantize the wall.
        "wall_s": (r.end_ns - dm.start_ns) / 1e9, "rss_mb": rss / MIB, "snap": snap,
        "out": dm.out, "spans": spans,
        "next_unique": next_unique, "load_wall_s": (r.end_ns - r.start_ns) / 1e9,
        "plan": plan,
    }


def finite(x, cap):
    """Latency for the report: a missed (infinite) value reads as `cap`."""
    return cap if x == float("inf") else x


def run_serve(ctx):
    rng = random.Random(ctx.seed)
    s = ctx.cfg["serve"]
    first_unique = (ctx.seed % 1000) * 100_000
    reps = ctx.cfg["setup_repeats"][ctx.workload]
    setups = []
    for i in range(reps - 1):
        # Extra set-ups only time spawn to healthy; they are killed, not
        # drained (a drain takes seconds). The measured daemon drains.
        with ctx.tracer.span("setup", req=i):
            dm = Daemon(ctx.repro, ctx.work, ctx.nproc, s["capacity"])
        setups.append((dm.ready_ns - dm.start_ns) / 1e9)
        dm.kill()
    cap = (ctx.seconds + 60) * 1e3

    if not ctx.trace:
        res = serve_ladder(ctx, ctx.seconds, rng, first_unique, traced=False)
        setups.append(res["setup_s"])
        lat = stats.open_loop(res["nominal"], s["settle_limit_ms"])
        ops = res["ops"]
        e2e = {
            "setup_s": stats.iq_mean(setups),
            "wall_s": res["wall_s"],
            "peak_rss_mb": res["rss_mb"],
            "ack_p50_ms": finite(stats.percentile(lat["ack"], 50), cap),
            "ack_p99_ms": finite(stats.named_tail(lat["ack"], 99)[1], cap),
            "settle_p50_ms": finite(stats.percentile(lat["settle"], 50), cap),
            "settle_p99_ms": finite(stats.named_tail(lat["settle"], 99)[1], cap),
            "max_rate_jps": stats.max_rate(res["steps"]),
        }
        counts = {"setup_s": len(setups), "per_job": len(res["nominal"]),
                  "max_rate_jps": len(ops), "wall_s": 1, "peak_rss_mb": 1,
                  "tail": {m: "p%g" % stats.named_tail(lat[k], 99)[0]
                           for m, k in (("ack_p99_ms", "ack"), ("settle_p99_ms", "settle"))}}
        return e2e, counts, len(ops), sum(1 for o in ops if not o["ok"])

    half = ctx.seconds / 2.0
    plain = serve_ladder(ctx, half, rng, first_unique, traced=False)
    traced = serve_ladder(ctx, half, rng, plain["next_unique"], traced=True)
    p50 = lambda res: stats.percentile(  # noqa: E731
        stats.open_loop(res["nominal"], s["settle_limit_ms"])["settle"], 50)
    ops = traced["ops"]
    lat = stats.open_loop(ops, s["settle_limit_ms"])
    c = traced["snap"]["counters"]
    submits = len(ops)
    # Each serve job is its own one-job supervised pool; the daemon's
    # worker count is the pool the jobs share.
    layer = engine_layer(traced["snap"], traced["out"], traced["load_wall_s"], ctx.nproc)
    spans = traced["spans"]
    layer.update({
        "repro.startup_ms": stats.percentile(
            [startup_probe(ctx.repro, ctx.work)[1] for _ in range(3)], 50),
        "repro.warm_pass_ms": 0.0,
        "trace.overhead_frac": p50(traced) / p50(plain) - 1.0,
        # Share of the generator's run that its submit and poll calls cover.
        "trace.span_cover_frac": stats.coverage(
            spans, min(sp["start_ns"] for sp in spans), max(sp["end_ns"] for sp in spans)),
        "serve.coalesced_frac": c.get("serve.coalesced", 0) / submits,
        "serve.shed_frac": c.get("serve.shed", 0) / submits,
        "serve.submits": submits,
        "serve.depth_max": traced["snap"]["gauge_max"].get("serve.queue.depth", 0.0),
        "serve.gen_late_p99_ms": stats.percentile(lat["late"], 99),
    })
    cells = sorted({(spec[0], spec[1]) for _, _, spec in traced["plan"]})
    layer.update(probe_layers(ctx, cells))
    all_ops = plain["ops"] + ops
    return layer, {"per_job": len(ops)}, len(all_ops), sum(1 for o in all_ops if not o["ok"])


# ------------------------------------------------------------------ main


class Context:
    pass


def probe_layers(ctx, cells):
    d = tempfile.mkdtemp(dir=ctx.work)
    cells_path = os.path.join(d, "cells.txt")
    with open(cells_path, "w", encoding="utf-8") as f:
        f.writelines("%s %s\n" % c for c in cells)
    out = os.path.join(d, "layers.json")
    spans = os.path.join(d, "spans.jsonl")
    r = run([ctx.probe, "layers", "--work", os.path.join(d, "w"), "--cells", cells_path,
             "--out", out, "--reps", str(ctx.cfg["layers_reps"]), "--spans", spans], cwd=d)
    if r.code != 0:
        raise BenchError("probe layers failed: " + r.stderr.strip()[-400:])
    ctx.spans.extend(read_spans(spans, "probe-layers"))
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml at %s: not a checkout of the repository" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    work_root = os.path.join(ROOT, ".bench_work")

    repro, probe = build(target)
    nproc = len(os.sched_getaffinity(0))
    machine = machine_record(args.seed, nproc)
    before = tree_state({target, work_root})
    os.makedirs(work_root, exist_ok=True)
    ctx = Context()
    ctx.workload, ctx.seed, ctx.seconds, ctx.trace = args.workload, args.seed, args.seconds, args.trace
    ctx.cfg, ctx.repro, ctx.probe, ctx.nproc = cfg, repro, probe, nproc
    ctx.tracer = Tracer(args.trace == 1)
    ctx.mismatches = []
    ctx.work = tempfile.mkdtemp(dir=work_root, prefix="%s-%d-" % (args.workload, args.seed))
    ctx.spans = []
    try:
        if args.workload == "serve-open":
            metrics, counts, attempted, failed = run_serve(ctx)
        else:
            metrics, counts, attempted, failed = run_campaign(ctx)
    finally:
        cleanup_children()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    if tree_state({target, work_root}) != before:
        ctx.mismatches.append("the run changed files of the checkout")

    if args.trace:
        metrics["machine.calibration_ms"] = machine["calibration_ms"]
        metrics["machine.nproc"] = nproc
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in bench[section]]
    missing = [n for n, _ in wanted if n not in metrics]
    if missing:
        raise BenchError("workload produced no value for " + ", ".join(missing))
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, unit in wanted:
        n = counts.get(name, counts.get("per_job", counts.get("per_pass")))
        if args.trace:
            n = tail = ""
        else:
            n = "n=%s" % n
            tail = " (tail at %s)" % counts["tail"][name] if name in counts["tail"] else ""
        print("%-28s %14.6g %-6s %s%s" % (name, metrics[name], unit, n, tail))
    print("attempted %d failed %d failed_frac %.6g" % (attempted, failed, failed / attempted))
    if args.trace:
        spans = ctx.spans + [dict(s, source="run.py") for s in ctx.tracer.spans]
        for line in span_table(spans):
            print(line)
        trace_dir = os.path.join(work_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)
        print("spans written to " + os.path.relpath(path, ROOT))
    for m in ctx.mismatches[:20]:
        print("MISMATCH " + m)
    result = {
        "correct": not ctx.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in wanted},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    # A terminated run still stops and reaps its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as e:
        cleanup_children()
        log("benchmark error: %s" % e)
        sys.exit(2)
