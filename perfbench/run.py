#!/usr/bin/env python3
"""The xqmft benchmark: end-to-end throughput and latency of `xqmft run` and
`xqmft serve --port`, with every output checked against the GCX baseline, and
a traced per-layer breakdown.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selfcheck          # tiny inputs, asserts the contract
  python3 perfbench/run.py --write-manifest     # BENCHMARK.json from workloads.json

Run from the repository root. The script builds `xqmft` and its helper
`perfbench_probe` from source under $CARGO_TARGET_DIR (default .bench_build),
generates seeded inputs there, and prints a human-readable report on stderr.
The last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones. A full report (provenance, per-rung serve figures,
derived span self-times) is written under <build>/perfbench/results/.

Workload definitions, rates and rationale are frozen in workloads.json.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import zlib

sys.dont_write_bytecode = True  # nothing written next to the sources
import serveload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(HERE, "workloads.json")))
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
MB = 1024.0 * 1024.0
F_SETPIPE_SZ = 1031  # fcntl command (Linux)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build ----

class Tools:
    def __init__(self, build_root):
        self.build_root = build_root
        self.cmake_dir = os.path.join(build_root, "cmake")
        self.xqmft = os.path.join(self.cmake_dir, "tools", "xqmft")
        self.probe = os.path.join(self.cmake_dir, "perfbench_probe")


def build(build_root):
    """Configures (once) and builds the program and the probe from source."""
    tools = Tools(build_root)
    steps = []
    if not os.path.exists(os.path.join(tools.cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tools.cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", tools.cmake_dir, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if p.returncode != 0:
            log(p.stdout.decode(errors="replace")[-4000:])
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))
    return tools


def probe(tools, *args, stdin=None):
    # On BENCH_CPU like the timed children, so the traced pass's in-process
    # figures compare with theirs (cli.overhead_ms).
    with spawn_pinned([tools.probe] + list(args), stdin=subprocess.PIPE,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        out, err = p.communicate(stdin)
    if p.returncode != 0:
        raise RuntimeError("perfbench_probe %s failed: %s" %
                           (args[0], err.decode(errors="replace")))
    return out.decode()


# ------------------------------------------------------------ statistics ----

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample, q in [0, 1]."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with at least 10 samples beyond it (capped at
    p99), as (value, percentile); p90 when there are too few samples."""
    n = len(values)
    if n < 20:
        return quantile(values, 0.9), 90.0
    pct = min(99.0, math.floor(100.0 * (n - 10) / n))
    return quantile(values, pct / 100.0), pct


def geomean(values):
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


# ------------------------------------------------------------ provenance ----

def crc_file(path):
    crc = 0
    with open(path, "rb") as f:
        while True:
            b = f.read(1 << 20)
            if not b:
                return "%08x" % crc
            crc = zlib.crc32(b, crc)


def source_revision():
    """Git revision when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = p.stdout.decode().split()
        # Only this checkout's own repository, not one that encloses it.
        if p.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return "git:" + lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def provenance(tools, seed, datasets):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    cache = os.path.join(tools.cmake_dir, "CMakeCache.txt")
    build_type = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                p = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL)
                compiler = p.stdout.decode().splitlines()[0] if p.stdout else cxx
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": build_type,
        "revision": source_revision(),
        "python": platform.python_version(),
        "seed": seed,
        "datasets": [{"path": os.path.relpath(p, ROOT),
                      "bytes": os.path.getsize(p), "crc32": crc_file(p)}
                     for p in datasets],
    }


# ----------------------------------------------------------------- tracer ---

class Tracer:
    """In-memory spans from the benchmark's own side: name, start, end,
    parent and the operation id shared by the spans of one operation."""

    def __init__(self):
        self.spans = []

    def add(self, op, name, start_ns, end_ns, parent, attrs=None):
        sid = len(self.spans) + 1
        self.spans.append({"id": sid, "parent": parent, "op": op,
                           "name": name, "start_ns": start_ns,
                           "end_ns": end_ns, "attrs": attrs or {}})
        return sid

    def merge(self, spans):
        """Adds spans recorded elsewhere (the probe), renumbering ids."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += offset
            if s["parent"]:
                s["parent"] += offset
            self.spans.append(s)

    def self_times_ms(self):
        """Per span name: total duration minus the time covered by its
        children (children are assumed not to overlap each other)."""
        child = {}
        for s in self.spans:
            if s["parent"]:
                child[s["parent"]] = child.get(s["parent"], 0) + (
                    s["end_ns"] - s["start_ns"])
        out = {}
        for s in self.spans:
            own = (s["end_ns"] - s["start_ns"]) - child.get(s["id"], 0)
            out[s["name"]] = out.get(s["name"], 0.0) + own / 1e6
        return out

    def _per_op(self, name, value):
        """Per operation, the least value(span) over the spans named `name`:
        the probe times the stream layers several times per operation, and
        host noise only ever adds time (counters repeat exactly)."""
        per = {}
        for s in self.spans:
            if s["name"] == name:
                per.setdefault(s["op"], []).append(value(s))
        return [min(v) for v in per.values()]

    def total_ms(self, name):
        return sum(self._per_op(name, lambda s: (s["end_ns"] - s["start_ns"]) / 1e6))

    def attr_sum(self, name, key):
        return sum(self._per_op(name, lambda s: s["attrs"].get(key, 0)))

    def attr_max(self, name, key):
        return max(self._per_op(name, lambda s: s["attrs"].get(key, 0)) or [0])


# ---------------------------------------------------------------- oracle ----

class Oracle:
    """GCX output digests, (bytes, crc32) per (query text, document)."""

    def __init__(self, tools):
        self.tools = tools
        self.digests = {}

    def add(self, pairs):
        """Computes digests for the (query text, doc path) pairs not yet
        known."""
        todo = sorted({p for p in pairs if p not in self.digests})
        if not todo:
            return
        lines = "".join(json.dumps({"key": str(i), "query": q, "doc": d}) + "\n"
                        for i, (q, d) in enumerate(todo))
        out = probe(self.tools, "oracle", stdin=lines.encode())
        for line in out.splitlines():
            r = json.loads(line)
            q, d = todo[int(r["key"])]
            self.digests[(q, d)] = (r["bytes"], r["crc"])
        missing = [p for p in todo if p not in self.digests]
        if missing:
            raise RuntimeError("oracle produced no digest for %d pairs" %
                               len(missing))

    def expect(self, query, doc):
        return self.digests[(query, doc)]

    def corrupt(self, query, doc):
        """Flips one digest: the self-check's proof that a wrong output is
        reported."""
        n, crc = self.digests[(query, doc)]
        self.digests[(query, doc)] = (n, crc ^ 1)


# ------------------------------------------------------------ host speed ---

def _bench_cpu():
    """The CPU that timed single-threaded children and the reference share."""
    return max(os.sched_getaffinity(0))


BENCH_CPU = _bench_cpu()


def spawn_pinned(args, cpus=None, **kwargs):
    """Popen on `cpus` (default: BENCH_CPU, where the host-speed reference
    runs too, so the reference sees the speed the child sees). The child
    inherits this script's affinity, which is switched around the spawn (a
    preexec_fn would force a slower fork path into every timed start)."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus or {BENCH_CPU})
    try:
        return subprocess.Popen(args, **kwargs)
    finally:
        os.sched_setaffinity(0, mine)


def run_pinned(args, **kwargs):
    """subprocess.run on BENCH_CPU (see spawn_pinned)."""
    with spawn_pinned(args, **kwargs) as p:
        out, err = p.communicate()
    return subprocess.CompletedProcess(args, p.returncode, out, err)


def server_cpus():
    """The server's CPUs: BENCH_CPU alone, where the host-speed reference
    runs between phases, so a server phase is calibrated like a `run`
    child. Its workers and event loop share that CPU."""
    return {BENCH_CPU}


def keep_off(cpus):
    """Moves this script (and children it does not pin) off `cpus` so it
    does not compete with the timed children, when there is another CPU."""
    others = os.sched_getaffinity(0) - cpus
    if others:
        os.sched_setaffinity(0, others)


def start_server(tools, w):
    return serveload.Server(
        tools.xqmft, w["workers"],
        popen=lambda args, **kw: spawn_pinned(args, cpus=server_cpus(), **kw))


class HostSpeed:
    """Calibrates timings against the host's current speed.

    Shared hosts drift: on a 4-CPU virtual machine the same `xqmft run` has
    measured 330 ms and 650 ms minutes apart, the child's CPU time tracking
    its wall time. A fixed
    reference (`perfbench_probe calibrate`, benchmark-owned code that no
    change to xqmft can move) runs as a child on the same CPU before every
    timed operation, and each operation is reported at the nominal reference
    speed: normalized = raw * nominal_ms / (reference ms just before it).
    """

    def __init__(self, tools):
        self.tools = tools
        self.nominal_ms = SPEC["calibrate_nominal_ms"]
        self.samples = []

    def sample(self):
        """Runs the reference once; returns its wall time in ms."""
        t0 = time.monotonic()
        p = spawn_pinned([self.tools.probe, "calibrate"],
                         stdout=subprocess.DEVNULL)
        os.wait4(p.pid, 0)
        self.samples.append((time.monotonic() - t0) * 1e3)
        return self.samples[-1]

    def ref_ms(self):
        return statistics.median(self.samples)

    def time_factor(self):
        """The run's median factor (raw duration -> nominal speed)."""
        return self.nominal_ms / self.ref_ms()

    def at_nominal(self, raw, ref_ms):
        """`raw` measured right after a reference sample of `ref_ms`."""
        return raw * self.nominal_ms / ref_ms


# ------------------------------------------------------- run invocations ----

def parse_peak(stderr_text):
    """Engine-tracked peak from `--stats`: 'peak memory: 81.2 MB'."""
    units = {"B": 1, "KB": 1024, "MB": MB, "GB": MB * 1024}
    for part in stderr_text.split(","):
        part = part.strip()
        if part.startswith("peak memory:"):
            value, unit = part.split(":", 1)[1].split()
            return float(value) * units[unit]
    return None


def invoke(tools, op):
    """One `xqmft run` child: wall seconds, output digest, ru_maxrss and the
    --stats peak. Output is read as it streams and never stored."""
    args = [tools.xqmft, "run", op["text"], "--stats"]
    stdin = subprocess.DEVNULL
    if op["input"] == "pretok":
        args.append(op["ptk"])
    else:
        stdin = open(op["doc"], "rb")
    t0 = time.monotonic()
    p = spawn_pinned(args, stdin=stdin, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
    fd = p.stdout.fileno()
    try:
        fcntl.fcntl(fd, F_SETPIPE_SZ, 1 << 20)  # fewer wake-ups per MB
    except OSError:
        pass
    crc = 0
    n = 0
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    while True:
        k = os.readv(fd, [buf])
        if not k:
            break
        crc = zlib.crc32(view[:k], crc)
        n += k
    err = p.stderr.read().decode(errors="replace")
    _, status, rusage = os.wait4(p.pid, 0)
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    if stdin is not subprocess.DEVNULL:
        stdin.close()
    ok = p.returncode == 0 and (n, crc) == op["expect"]
    if p.returncode != 0:
        log("  %s: exit %d: %s" % (op["qid"], p.returncode, err.strip()[-300:]))
    elif not ok:
        log("  %s: output %d bytes crc %08x != oracle %d bytes crc %08x" %
            (op["qid"], n, crc, op["expect"][0], op["expect"][1]))
    return {"wall": wall, "ok": ok, "rss_mb": rusage.ru_maxrss / 1024.0,
            "peak_bytes": parse_peak(err), "out_bytes": n, "t0": t0}


# -------------------------------------------------------- preparation ------

def queries(tools):
    return json.loads(probe(tools, "queries"))


def gen(tools, kind, nbytes, seed, path):
    probe(tools, "gen", kind, str(nbytes), str(seed), path)
    return path


def prepare_run_workload(tools, w, seed, data, scale):
    corpus = queries(tools)
    ds = w["dataset"]
    nbytes = max(64 * 1024, int(ds["bytes"] * scale))
    doc = gen(tools, ds["kind"], nbytes, seed, os.path.join(data, "doc.xml"))
    ops = []
    for qid in w["queries"]:
        op = {"qid": qid, "text": corpus[qid]["text"], "doc": doc,
              "input": w["input"], "in_bytes": os.path.getsize(doc)}
        if w["input"] == "pretok":
            op["ptk"] = os.path.join(data, "doc.ptk")
        ops.append(op)
    return ops, [doc]


def setup_run_workload(tools, w, ops, data, reps, host):
    """Times what the system pays before its first timed operation. Returns
    (median over `reps` set-ups in seconds at nominal host speed, attempted,
    failed)."""
    times, attempted, failed = [], 0, 0
    if w["input"] == "pretok":
        # Building the pretok cache through xqmft (with the cheapest query;
        # its output is checked like every other).
        first = ops[0]
        for _ in range(reps):
            ref_ms = host.sample()
            if os.path.exists(first["ptk"]):
                os.remove(first["ptk"])
            t0 = time.monotonic()
            p = run_pinned([tools.xqmft, "run", first["text"],
                            "--pretok-cache", first["ptk"], first["doc"]],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            times.append(host.at_nominal(time.monotonic() - t0, ref_ms))
            attempted += 1
            if p.returncode != 0 or (len(p.stdout), zlib.crc32(p.stdout)) != first["expect"]:
                log("  pretok cache build: exit %d or wrong output" %
                    p.returncode)
                failed += 1
        return statistics.median(times), attempted, failed
    # Plan compile as a user sees it: one run per query over a one-element
    # document, so the stream itself costs next to nothing.
    tiny = os.path.join(data, "tiny.xml")
    with open(tiny, "w") as f:
        f.write("<site></site>\n")
    for _ in range(reps):
        ref_ms = host.sample()
        total = 0.0
        for op in ops:
            t0 = time.monotonic()
            with open(tiny, "rb") as fin:
                p = run_pinned([tools.xqmft, "run", op["text"]], stdin=fin,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            total += time.monotonic() - t0
            attempted += 1
            if p.returncode != 0:
                log("  compile run of %s: exit %d" % (op["qid"], p.returncode))
                failed += 1
        times.append(host.at_nominal(total, ref_ms))
    return statistics.median(times), attempted, failed


# ---------------------------------------------------------- run workloads ---

def timed_run_workload(tools, w, ops, seconds, host):
    """Round-robin `xqmft run` invocations over the workload's queries until
    `seconds` have passed (whole rounds, so every query has the same count),
    each preceded by a host-speed sample."""
    for op in ops:  # one untimed warm round: page cache, lazy binding
        invoke(tools, op)
    per = {op["qid"]: [] for op in ops}
    t_end = time.monotonic() + seconds
    while True:
        for op in ops:
            ref_ms = host.sample()
            r = invoke(tools, op)
            r["ref_ms"] = ref_ms
            per[op["qid"]].append(r)
        if time.monotonic() >= t_end:
            break
    return per


def run_metrics(ops, per, setup_s, host):
    """End-to-end metrics of a run workload: each invocation's wall time at
    nominal host speed (see HostSpeed), then per-query medians and p90s.
    The unnormalized figures go to the report."""
    all_runs = [r for runs in per.values() for r in runs]
    walls = {q: [r["wall"] * 1e3 for r in runs] for q, runs in per.items()}
    norm = {q: [host.at_nominal(r["wall"] * 1e3, r["ref_ms"]) for r in runs]
            for q, runs in per.items()}
    rss = {q: statistics.median([r["rss_mb"] for r in runs])
           for q, runs in per.items()}
    peaks = [r["peak_bytes"] for r in all_runs if r["peak_bytes"] is not None]
    # One round's input over one round's median wall time.
    round_mb = sum(op["in_bytes"] for op in ops) / MB

    def figures(ms):
        p50 = [statistics.median(v) for v in ms.values()]
        return {
            "throughput_mbps": round_mb / (sum(p50) / 1e3),
            "latency_ms_p50": geomean(p50),
            "latency_ms_tail": geomean([quantile(v, 0.9) for v in ms.values()]),
        }
    metrics = {k: (v, "MB/s" if k == "throughput_mbps" else "ms")
               for k, v in figures(norm).items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["rss_peak_mb"] = (max(rss.values()), "MB")
    metrics["peak_buffer_mb"] = (max(peaks) / MB if peaks else float("nan"), "MB")
    detail = {
        "raw": figures(walls),
        "host_ref_ms": host.ref_ms(),
        "host_time_factor": host.time_factor(),
        "per_query": {
            q: {"invocations": len(walls[q]),
                "run_ms_p50": statistics.median(walls[q]),
                "run_ms_p90": quantile(walls[q], 0.9),
                "run_ms_tail": tail(walls[q])[0],
                "run_ms_tail_pct": tail(walls[q])[1],
                "rss_mb_p50": rss[q],
                "output_bytes": per[q][0]["out_bytes"]}
            for q in walls},
    }
    failed = sum(1 for r in all_runs if not r["ok"])
    return metrics, detail, len(all_runs), failed


# -------------------------------------------------------------- serve-mix ---

def prepare_serve(tools, w, seed, data, scale):
    """The document pool: sizes on a fixed log-spaced ladder (so every seed
    offers the same load), contents from the seed."""
    corpus = queries(tools)
    ds = w["dataset"]

    def ladder(prefix, n, lo, hi, seed_base):
        docs = []
        for i in range(n):
            size = lo * (hi / lo) ** (i / max(1, n - 1)) * scale
            docs.append(gen(tools, "xmark", max(int(size), 2048), seed_base + i,
                            os.path.join(data, "%s%d.xml" % (prefix, i))))
        return docs

    pool = ladder("pool", ds["pool_docs"], ds["pool_min_bytes"],
                  ds["pool_max_bytes"], seed * 1000)
    inline = ladder("inline", ds["inline_docs"], ds["inline_min_bytes"],
                    ds["inline_max_bytes"], seed * 1000 + 500)
    return corpus, pool, inline


class ServeMix:
    """The seeded request schedule of serve-mix and its oracle."""

    def __init__(self, w, corpus, pool, inline, seed, oracle):
        self.w = w
        self.corpus = corpus
        self.pool = pool
        self.inline = inline
        self.oracle = oracle
        self.rng = random.Random(seed * 7919 + 1)
        self.variant_n = self.rng.randrange(1000, 9000)
        # Zipf over the queries, in their listed order.
        self.weights = [1.0 / (k + 1) ** w["zipf_s"]
                        for k in range(len(w["queries"]))]
        self._docs = {}

    def doc_text(self, path):
        if path not in self._docs:
            with open(path) as f:
                self._docs[path] = f.read()
        return self._docs[path]

    def _query(self):
        w = self.w
        if self.rng.random() < w["variant_frac"]:
            # A first-sighting variant: a fresh person<N> literal, so the
            # plan cache compiles (and eventually evicts).
            base = self.rng.choice(w["variant_queries"])
            self.variant_n += 1
            text = self.corpus[base]["text"]
            if '"person0"' in text:
                text = text.replace('"person0"', '"person%d"' % self.variant_n)
            else:
                tag = "query%s" % base[1:]
                text = text.replace(tag, "%s_person%d" % (tag, self.variant_n))
            return "%s~%d" % (base, self.variant_n), text
        qid = self.rng.choices(w["queries"], weights=self.weights)[0]
        return qid, self.corpus[qid]["text"]

    def schedule(self, rate, duration):
        """Poisson arrivals; a share of them are bursts of requests over one
        document. Returns Requests sorted by scheduled time."""
        w = self.w
        b = w["burst_size"]
        # P(arrival is a burst) so that burst_frac of *requests* are in one.
        p_burst = w["burst_frac"] / (b - w["burst_frac"] * (b - 1))
        arrival_rate = rate / (1 + p_burst * (b - 1))
        t = 0.0
        reqs = []
        while True:
            t += self.rng.expovariate(arrival_rate)
            if t >= duration:
                break
            if self.rng.random() < p_burst:
                doc = self.rng.choice(self.pool)
                for _ in range(b):
                    qkey, text = self._query()
                    reqs.append(serveload.Request(qkey, text, doc, False, t,
                                                  None))
            else:
                reqs.append(self._single(t))
        return reqs

    def _single(self, at):
        """One request on its own: a pool document by path, or a small one
        inline."""
        inline = self.rng.random() < self.w["inline_frac"]
        doc = self.rng.choice(self.inline if inline else self.pool)
        qkey, text = self._query()
        return serveload.Request(qkey, text, doc, inline, at, None)

    def closed_requests(self, n):
        """`n` requests for the closed loop, in sending order (no bursts:
        a closed loop has no arrival process)."""
        return [self._single(0.0) for _ in range(n)]

    def warm_requests(self):
        doc = min(self.pool, key=os.path.getsize)
        return [serveload.Request(q, self.corpus[q]["text"], doc, False, 0.0,
                                  None) for q in self.w["queries"]]

    def check(self, reqs):
        self.oracle.add([(r.query, r.doc) for r in reqs])
        for r in reqs:
            r.expect = self.oracle.expect(r.query, r.doc)


def serve_setup(tools, w, mix, reps, host):
    """Server start to listening plus one warm request per distinct query;
    median over `reps` fresh servers. Returns (median seconds at nominal
    host speed, failures)."""
    times, failed = [], 0
    for _ in range(reps):
        ref_ms = host.sample()
        server = start_server(tools, w)
        try:
            warm = mix.warm_requests()
            mix.check(warm)
            serveload.drive(server.port, warm, mix.doc_text, connections=1)
            times.append(host.at_nominal(time.monotonic() - server.t0, ref_ms))
            failed += sum(1 for r in warm if not r.correct)
        finally:
            server.stop()
    return statistics.median(times), failed


def rung_stats(reqs, duration, limit_ms):
    done = [r for r in reqs if r.done is not None and r.correct]
    rtts = [r.rtt_ms() for r in done]
    failed = len(reqs) - len(done)
    t, pct = tail(rtts) if rtts else (float("nan"), 0)
    # Backlog: the last quarter's median round trip against the first's.
    q = max(1, len(reqs) // 4)
    first = [r.rtt_ms() for r in reqs[:q] if r.done is not None]
    last = [r.rtt_ms() for r in reqs[-q:] if r.done is not None]
    growing = bool(first and last and
                   statistics.median(last) > 2 * statistics.median(first) + 5)
    p99 = quantile(rtts, 0.99) if rtts else float("inf")
    return {
        "requests": len(reqs), "failed": failed,
        "rtt_ms_p50": statistics.median(rtts) if rtts else float("nan"),
        "rtt_ms_p99": p99, "rtt_ms_tail": t, "rtt_ms_tail_pct": pct,
        "meets_limit": failed == 0 and p99 <= limit_ms and not growing,
        "growing_backlog": growing,
        "completed_rps": len(done) / duration,
    }


def serve_session(tools, w, mix, phases, tracer=None, host=None):
    """One server: warm requests, then each (name, requests, seconds, closed)
    phase in turn — open loop on the requests' schedule, or a closed loop
    for `seconds` when `closed` — then counters, read only after the last
    response has arrived, since cmd requests bypass the queue and answer at
    arrival. With a `host`, the host-speed reference is sampled twice
    between phases, while the server is idle. Returns per phase the
    requests sent and the phase's duration."""
    server = start_server(tools, w)
    try:
        warm = mix.warm_requests()
        mix.check(warm)
        serveload.drive(server.port, warm, mix.doc_text, connections=1)
        cpu0 = server.cpu_ms()
        results = {}
        for name, reqs, duration, closed in phases:
            mix.check(reqs)
            for _ in range(2 if host else 0):
                host.sample()
            sent = serveload.drive(server.port, reqs, mix.doc_text,
                                   connections=w["connections"], tracer=tracer,
                                   closed_for=duration if closed else None)
            results[name] = (sent, duration)
        for _ in range(2 if host else 0):
            host.sample()
        server_stats = serveload.command(server.port, "server_stats")["server"]
        cache_stats = serveload.command(server.port, "stats")["stats"]
        cpu_ms = server.cpu_ms() - cpu0
        hwm = server.vm_hwm_mb()
    finally:
        server.stop()
    return results, server_stats, cache_stats, cpu_ms, hwm


def serve_layer_metrics(reqs, server_stats, cache_stats, cpu_ms):
    """service.* and net.* from responses and end-of-run counters."""
    ok = [r for r in reqs if r.ok]
    misses = [float(r.header["compile_ms"]) for r in ok
              if r.header.get("cache") == "miss"]
    streams = [float(r.header["stream_ms"]) for r in ok]
    overhead = [r.rtt_ms() - float(r.header["compile_ms"]) -
                float(r.header["stream_ms"]) for r in ok]
    lags = [r.lag_ms() for r in reqs if r.sent is not None]
    n = max(1, len(reqs))
    hits = sum(1 for r in ok if r.header.get("cache") == "hit")
    rejected = server_stats["rejected_overload"]
    return {
        "service.compile_ms_p50": (statistics.median(misses) if misses else 0.0, "ms"),
        "service.stream_ms_p50": (statistics.median(streams) if streams else 0.0, "ms"),
        "service.stream_ms_p99": (quantile(streams, 0.99) if streams else 0.0, "ms"),
        "service.cache_hit_frac": (hits / max(1, len(ok)), "ratio"),
        "service.compiles": (cache_stats["compiles"], "count"),
        "service.cache_evictions": (cache_stats["evictions"], "count"),
        "net.overhead_ms_p50": (statistics.median(overhead) if overhead else 0.0, "ms"),
        "net.overhead_ms_p99": (quantile(overhead, 0.99) if overhead else 0.0, "ms"),
        "net.admitted": (server_stats["admitted"], "count"),
        "net.rejected_overload": (rejected, "count"),
        "net.shed_frac": (rejected / n, "ratio"),
        "net.coalesced_requests": (server_stats["coalesced_requests"], "count"),
        "net.parses_saved": (server_stats["parses_saved"], "count"),
        "net.ops_runs": (server_stats["ops_runs"], "count"),
        "net.hybrid_runs": (server_stats["hybrid_runs"], "count"),
        "net.generator_lag_ms_p99": (quantile(lags, 0.99) if lags else 0.0, "ms"),
        "server.cpu_ms_per_req": (cpu_ms / n, "ms"),
    }


def serve_rungs(w, mix, seconds):
    each = seconds / 3.0
    return [(name, mix.schedule(w["rates_rps"][name], each), each, False)
            for name in ("low", "mid", "high")]


def closed_phase(w, mix, seconds, name="closed"):
    # More requests than the loop can send in `seconds` on this class of host.
    reqs = mix.closed_requests(int(seconds * w["closed_pool_rps"]))
    mix.check(reqs)
    return (name, reqs, seconds, True)


def _count_statuses(reqs):
    out = {}
    for r in reqs:
        if not r.correct:
            key = "wrong_output" if r.ok else r.status
            out[key] = out.get(key, 0) + 1
    return out


def timed_serve(tools, w, mix, seconds, setup_reps):
    """Set-up, then a closed loop at fixed concurrency for `seconds`, cut
    into segments with host-speed samples between them; each figure is the
    median over segments of the segment's figure at nominal host speed.
    (An open loop's latency is dominated by queueing noise on a shared host;
    its rungs run in the traced pass instead.)"""
    host = HostSpeed(tools)
    setup_s, setup_failed = serve_setup(tools, w, mix, setup_reps, host)
    n_seg = max(1, int(round(seconds / w["segment_seconds"])))
    phases = [closed_phase(w, mix, seconds / n_seg, "closed%d" % i)
              for i in range(n_seg)]
    first = len(host.samples)
    results, sstats, cstats, cpu_ms, hwm = serve_session(
        tools, w, mix, phases, host=host)
    refs = host.samples[first:]  # two before each segment, two after the last
    segs = []
    for i in range(n_seg):
        sent, _ = results["closed%d" % i]
        ok = [r for r in sent if r.correct]
        span = max(r.done for r in ok)
        f = host.nominal_ms / statistics.median(refs[2 * i:2 * i + 4])
        rtts = [r.rtt_ms() for r in ok]
        segs.append({
            "factor": f,
            "throughput_mbps": sum(os.path.getsize(r.doc) for r in ok) / MB / span,
            "latency_ms_p50": statistics.median(rtts),
            "latency_ms_tail": quantile(rtts, 0.9),
        })
    sent = [r for name, (reqs, _) in results.items() for r in reqs]
    ok = [r for r in sent if r.correct]
    peaks = [int(r.header.get("peak_mem_bytes", 0)) for r in ok]

    def med(key, scale):
        return statistics.median(sg[key] * scale(sg["factor"]) for sg in segs)
    raw = {key: med(key, lambda f: 1.0)
           for key in ("throughput_mbps", "latency_ms_p50", "latency_ms_tail")}
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_mbps": (med("throughput_mbps", lambda f: 1.0 / f), "MB/s"),
        "latency_ms_p50": (med("latency_ms_p50", lambda f: f), "ms"),
        "latency_ms_tail": (med("latency_ms_tail", lambda f: f), "ms"),
        "rss_peak_mb": (hwm, "MB"),
        "peak_buffer_mb": (max(peaks) / MB, "MB"),
    }
    rtts = [r.rtt_ms() for r in ok]
    t, pct = tail(rtts)
    detail = {
        "raw": raw,
        "host_ref_ms": host.ref_ms(),
        "host_time_factor": host.time_factor(),
        "closed_loop": {"requests": len(sent), "segments": segs,
                        "completed_rps": len(ok) / seconds,
                        "rtt_ms_tail": t, "rtt_ms_tail_pct": pct},
        "failures_by_status": _count_statuses(sent),
        "server_stats": sstats, "cache_stats": cstats,
        "layers": {k: v[0] for k, v in
                   serve_layer_metrics(sent, sstats, cstats, cpu_ms).items()},
    }
    failed = sum(1 for r in sent if not r.correct) + setup_failed
    return metrics, detail, len(sent) + len(w["queries"]) * setup_reps, failed


# ---------------------------------------------------------- traced pass ----

def probe_trace(tools, ops, tracer):
    lines = "".join(json.dumps({"op": "%s@%s" % (op["qid"], os.path.basename(op["doc"])),
                                "query": op["text"], "doc": op["doc"],
                                "ptk": op.get("ptk", "") if op["input"] == "pretok" else "",
                                "repeat": 3}) + "\n"
                    for op in ops)
    out = probe(tools, "trace", stdin=lines.encode())
    tracer.merge([json.loads(l) for l in out.splitlines()])


def cli_trace(tools, ops, tracer, rounds):
    """Each op's `xqmft run`, alternately with and without a recorded span.
    Returns (traced/untraced wall ratio - 1, failures, attempts)."""
    traced, plain, failed, n = 0.0, 0.0, 0, 0
    for i in range(rounds):
        for op in ops:
            for with_span in ((True, False) if i % 2 == 0 else (False, True)):
                r = invoke(tools, op)
                n += 1
                failed += 0 if r["ok"] else 1
                if with_span:
                    traced += r["wall"]
                    tracer.add("cli:" + op["qid"], "cli.run", int(r["t0"] * 1e9),
                               int((r["t0"] + r["wall"]) * 1e9), 0,
                               {"op": op["qid"], "in_bytes": op["in_bytes"]})
                else:
                    plain += r["wall"]
    return traced / plain - 1.0, failed, n


def layer_metrics(tracer, ops):
    t = tracer
    in_bytes = sum(op["in_bytes"] for op in ops)
    tok_ms = t.total_ms("xml.tokenize")
    out_bytes = t.attr_sum("path.serialize", "output_bytes")
    # cli.overhead_ms: a traced invocation minus the same work in-process.
    cli = [s for s in t.spans if s["name"] == "cli.run"]
    per_op_cli = {}
    for s in cli:
        per_op_cli.setdefault(s["attrs"]["op"], []).append(
            (s["end_ns"] - s["start_ns"]) / 1e6)
    overhead = []
    for op in ops:
        opname = "%s@%s" % (op["qid"], os.path.basename(op["doc"]))
        inproc = min((s["end_ns"] - s["start_ns"]) / 1e6 for s in t.spans
                     if s["op"] == opname and s["name"] == "path.serialize")
        if op["qid"] in per_op_cli:
            overhead.append(min(per_op_cli[op["qid"]]) - inproc)
    return {
        "xquery.parse_us": (t.total_ms("xquery.parse") * 1e3, "us"),
        "translate.us": (t.total_ms("translate") * 1e3, "us"),
        "mft.optimize_us": (t.total_ms("mft.optimize") * 1e3, "us"),
        "lower.us": (t.total_ms("lower") * 1e3, "us"),
        "core.compile_us": (t.total_ms("core.compile") * 1e3, "us"),
        "mft.rules_after_opt": (t.attr_sum("mft.optimize", "rules_after"), "count"),
        "mft.states_after_opt": (t.attr_sum("mft.optimize", "states_after"), "count"),
        "lower.code_insns": (t.attr_sum("lower", "code_insns"), "count"),
        "lower.bridge_sites": (t.attr_sum("lower", "bridge_sites"), "count"),
        "xml.tokenize_ms": (tok_ms, "ms"),
        "xml.tokenize_mbps": (t.attr_sum("xml.tokenize", "bytes") / MB / (tok_ms / 1e3), "MB/s"),
        "xml.events": (t.attr_sum("xml.tokenize", "events"), "count"),
        "xml.pretok_decode_ms": (t.total_ms("xml.pretok_decode"), "ms"),
        "xml.tokenize_share": (tok_ms / t.total_ms("stream.file"), "ratio"),
        "stream.engine_ms": (t.total_ms("stream.events") - t.total_ms("xml.pretok_decode"), "ms"),
        "stream.rule_applications": (t.attr_sum("stream.events", "rule_applications"), "count"),
        "stream.cells_created": (t.attr_sum("stream.events", "cells_created"), "count"),
        "stream.cells_arena": (t.attr_sum("stream.events", "cells_arena"), "count"),
        "stream.exprs_created": (t.attr_sum("stream.events", "exprs_created"), "count"),
        "stream.bridge_runs": (t.attr_sum("stream.events", "bridge_runs"), "count"),
        "stream.bridge_runs_per_mb": (t.attr_sum("stream.events", "bridge_runs") / (in_bytes / MB), "1/MB"),
        "stream.output_events": (t.attr_sum("stream.events", "output_events"), "count"),
        "stream.peak_bytes": (t.attr_max("stream.events", "peak_bytes"), "B"),
        "sink.serialize_ms": (t.total_ms("path.serialize") - t.total_ms("path.count"), "ms"),
        "sink.output_mb": (out_bytes / MB, "MB"),
        "sink.output_ratio": (out_bytes / in_bytes, "ratio"),
        "cli.overhead_ms": (statistics.mean(overhead) if overhead else 0.0, "ms"),
    }


def traced_run_workload(tools, w, ops, seed, data, oracle, tracer):
    probe_trace(tools, ops, tracer)
    overhead_frac, failed, attempted = cli_trace(tools, ops, tracer, 2)
    metrics = layer_metrics(tracer, ops)
    # The serving layers on this workload's queries: each query twice over
    # one connection, one request at a time (a cache miss, then a hit). The
    # document is a small one of the workload's kind: `serve --port` drops a
    # connection whose buffered response exceeds its 4 MiB write-buffer
    # limit, which the full-size copy outputs do.
    ds = w["dataset"]
    doc = gen(tools, ds["kind"], w["serve_probe_bytes"], seed,
              os.path.join(data, "serve-probe.xml"))
    oracle.add([(op["text"], doc) for op in ops])
    reqs = [serveload.Request(op["qid"], op["text"], doc, False, 0.0,
                              oracle.expect(op["text"], doc))
            for op in ops for _ in range(2)]
    server = start_server(tools, WORKLOADS["serve-mix"])
    try:
        cpu0 = server.cpu_ms()
        serveload.drive(server.port, reqs, None, connections=1,
                        tracer=tracer, closed_for=float("inf"))
        sstats = serveload.command(server.port, "server_stats")["server"]
        cstats = serveload.command(server.port, "stats")["stats"]
        cpu_ms = server.cpu_ms() - cpu0
    finally:
        server.stop()
    metrics.update(serve_layer_metrics(reqs, sstats, cstats, cpu_ms))
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    failed += sum(1 for r in reqs if not r.correct)
    return metrics, attempted + len(reqs), failed


def traced_serve(tools, w, mix, seconds, tracer):
    """In-process layers over each base query and the largest pool document,
    then the serving layers: a short closed loop untraced and traced (for
    trace.overhead_frac), and the open-loop rungs, traced."""
    doc = max(mix.pool, key=os.path.getsize)
    ops = []
    for q in w["queries"]:
        text = mix.corpus[q]["text"]
        mix.oracle.add([(text, doc)])
        ops.append({"qid": q, "text": text, "doc": doc, "input": "stdin",
                    "in_bytes": os.path.getsize(doc),
                    "expect": mix.oracle.expect(text, doc)})
    probe_trace(tools, ops, tracer)
    _, cli_failed, cli_n = cli_trace(tools, ops, tracer, 1)
    metrics = layer_metrics(tracer, ops)

    short = max(1.0, seconds / 6.0)
    results, _, _, _, _ = serve_session(
        tools, w, mix, [closed_phase(w, mix, short, "plain")])
    plain, _ = results["plain"]
    rungs = serve_rungs(w, mix, seconds)
    results, sstats, cstats, cpu_ms, _ = serve_session(
        tools, w, mix, [closed_phase(w, mix, short, "traced")] + rungs,
        tracer=tracer)
    traced, _ = results["traced"]
    session = [r for sent, _ in results.values() for r in sent]
    metrics.update(serve_layer_metrics(session, sstats, cstats, cpu_ms))

    def rps(sent):
        ok = [r for r in sent if r.correct]
        return len(ok) / max(r.done for r in ok)
    metrics["trace.overhead_frac"] = (rps(plain) / rps(traced) - 1.0, "ratio")

    limit = w["p99_limit_ms"]
    per_rung = {name: rung_stats(results[name][0], dur, limit)
                for name, _, dur, _ in rungs}
    met = [w["rates_rps"][n] for n in per_rung if per_rung[n]["meets_limit"]]
    detail = {
        "rungs": per_rung,
        "max_rate_rps": max(met) if met else 0,
        "completed_rps.high": per_rung["high"]["completed_rps"],
        "p99_limit_ms": limit,
        "failures_by_status": _count_statuses(plain + session),
        "server_stats": sstats, "cache_stats": cstats,
    }
    failed = cli_failed + sum(1 for r in plain + session if not r.correct)
    return metrics, cli_n + len(plain) + len(session), failed, detail


# ------------------------------------------------------------------ main ---

def run_workload(tools, name, seed, seconds, trace, scale=1.0, reps=5,
                 corrupt_oracle=False):
    """Prepares, sets up and measures one workload. Returns the result
    object (the JSON printed last) and the full report."""
    w = WORKLOADS[name]
    data = os.path.join(tools.build_root, "perfbench", "data",
                        "%s-s%d-p%d" % (name, seed, os.getpid()))
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    oracle = Oracle(tools)
    tracer = Tracer()
    try:
        t_prep = time.monotonic()
        if name == "serve-mix":
            corpus, pool, inline = prepare_serve(tools, w, seed, data, scale)
            mix = ServeMix(w, corpus, pool, inline, seed, oracle)
            mix.oracle.add([(corpus[q]["text"], d) for q in w["queries"]
                            for d in pool])
            datasets = pool + inline
        else:
            ops, datasets = prepare_run_workload(tools, w, seed, data, scale)
            oracle.add([(op["text"], op["doc"]) for op in ops])
            for op in ops:
                op["expect"] = oracle.expect(op["text"], op["doc"])
        if corrupt_oracle:
            if name == "serve-mix":
                # A pair every set-up's warm requests use.
                oracle.corrupt(corpus[w["queries"][0]]["text"],
                               min(pool, key=os.path.getsize))
            else:
                oracle.corrupt(ops[0]["text"], ops[0]["doc"])
                ops[0]["expect"] = oracle.expect(ops[0]["text"], ops[0]["doc"])
        prep_s = time.monotonic() - t_prep
        log("perfbench: %s seed=%d prepared in %.1fs" % (name, seed, prep_s))

        detail = {}
        if not trace:
            if name == "serve-mix":
                metrics, detail, attempted, failed = timed_serve(
                    tools, w, mix, seconds, max(3, reps // 2))
            else:
                host = HostSpeed(tools)
                setup_s, setup_n, setup_failed = setup_run_workload(
                    tools, w, ops, data, 3 if w["input"] == "pretok" else reps,
                    host)
                per = timed_run_workload(tools, w, ops, seconds, host)
                metrics, detail, attempted, failed = run_metrics(
                    ops, per, setup_s, host)
                attempted += setup_n
                failed += setup_failed
            wanted = SPEC["end_to_end"]
        else:
            if name == "serve-mix":
                metrics, attempted, failed, detail = traced_serve(
                    tools, w, mix, seconds, tracer)
            else:
                setup_n = setup_failed = 0
                if w["input"] == "pretok":
                    _, setup_n, setup_failed = setup_run_workload(
                        tools, w, ops, data, 1, HostSpeed(tools))
                metrics, attempted, failed = traced_run_workload(
                    tools, w, ops, seed, data, oracle, tracer)
                attempted += setup_n
                failed += setup_failed
            detail["self_time_ms"] = tracer.self_times_ms()
            wanted = SPEC["per_layer"]
        report = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "prepare_s": prep_s,
            "provenance": provenance(tools, seed, datasets),
            "attempted": attempted, "failed": failed,
            "error_frac": failed / max(1, attempted),
            "detail": detail,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if trace:
            spans_path = os.path.join(tools.build_root, "perfbench", "results",
                                      "spans-%s-s%d.jsonl" % (name, seed))
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w") as f:
                for s in tracer.spans:
                    f.write(json.dumps(s) + "\n")
            report["spans"] = os.path.relpath(spans_path, ROOT)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, report


def print_report(report, result):
    log("perfbench: %s seed=%d trace=%d  attempted=%d failed=%d error_frac=%.4f" %
        (report["workload"], report["seed"], report["trace"],
         report["attempted"], report["failed"], report["error_frac"]))
    for k, v in result["metrics"].items():
        log("  %-28s %14.6g %s" % (k, v["value"], v["unit"]))
    d = report["detail"]
    if "host_time_factor" in d:
        log("  host: reference %.2f ms (nominal %.1f), time factor %.4f; raw %s" %
            (d["host_ref_ms"], SPEC["calibrate_nominal_ms"],
             d["host_time_factor"],
             " ".join("%s=%.6g" % kv for kv in d["raw"].items())))
    for q, s in d.get("per_query", {}).items():
        log("  %-10s n=%d run_ms_p50=%.1f run_ms_tail(p%d)=%.1f rss=%.1fMB" %
            (q, s["invocations"], s["run_ms_p50"], s["run_ms_tail_pct"],
             s["run_ms_tail"], s["rss_mb_p50"]))
    if "closed_loop" in d:
        c = d["closed_loop"]
        log("  closed loop: %d requests, %.1f completed/s, rtt tail(p%d)=%.2f ms" %
            (c["requests"], c["completed_rps"], c["rtt_ms_tail_pct"],
             c["rtt_ms_tail"]))
    for name, r in d.get("rungs", {}).items():
        log("  rung %-4s n=%d rtt_ms_p50=%.2f rtt_ms_p99=%.2f tail(p%d)=%.2f "
            "completed_rps=%.1f meets=%s" %
            (name, r["requests"], r["rtt_ms_p50"], r["rtt_ms_p99"],
             r["rtt_ms_tail_pct"], r["rtt_ms_tail"], r["completed_rps"],
             r["meets_limit"]))
    if "max_rate_rps" in d:
        log("  max_rate_rps=%s completed_rps.high=%.1f failures=%s" %
            (d["max_rate_rps"], d["completed_rps.high"],
             d["failures_by_status"]))


def write_result(tools, report):
    path = os.path.join(tools.build_root, "perfbench", "results",
                        "%s-s%d-t%d.json" % (report["workload"], report["seed"],
                                             report["trace"]))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": SPEC["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in SPEC["workloads"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in SPEC["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in SPEC["per_layer"]],
    }


def selfcheck(tools):
    """Tiny inputs through every workload in both modes: every named metric
    present, finite and with its unit; then one deliberately wrong oracle
    digest must surface as a failure."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(tools, name, 1, 1.0, trace,
                                          scale=1.0 / 256, reps=1)
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s/t%d: %s missing" % (name, trace, m["name"]))
                elif not math.isfinite(got["value"]):
                    problems.append("%s/t%d: %s = %r" % (name, trace, m["name"], got["value"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s/t%d: %s unit %s" % (name, trace, m["name"], got["unit"]))
            if result["failed"] or not result["correct"]:
                problems.append("%s/t%d: %d failed operations" %
                                (name, trace, result["failed"]))
            log("selfcheck: %s trace=%d ok (%d operations)" %
                (name, trace, result["attempted"]))
    for name in WORKLOADS:
        result, _ = run_workload(tools, name, 2, 0.5, 0, scale=1.0 / 256,
                                 reps=1, corrupt_oracle=True)
        if result["correct"] or result["failed"] == 0:
            problems.append("%s: a wrong oracle digest was not reported" % name)
        else:
            log("selfcheck: %s wrong oracle digest -> %d failed, as expected" %
                (name, result["failed"]))
    for p in problems:
        log("selfcheck: FAIL " + p)
    if not problems:
        log("selfcheck: all metrics present, finite and with units; "
            "wrong outputs are reported")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tools = build(build_root)
    keep_off(server_cpus() if args.workload == "serve-mix" else {BENCH_CPU})
    if args.selfcheck:
        return selfcheck(tools)
    if not args.workload:
        ap.error("--workload is required")
    result, report = run_workload(tools, args.workload, args.seed,
                                  args.seconds, args.trace)
    write_result(tools, report)
    print_report(report, result)
    print(json.dumps(result))
    # A wrong or failed operation fails the command (after the result line,
    # so the failure is visible in it).
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
