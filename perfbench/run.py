#!/usr/bin/env python3
"""End-to-end benchmark of the `iolap` binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the program from source
(`cargo build --release`, honouring CARGO_TARGET_DIR), generates the
workload's inputs from the seed, drives the real `gen`, `allocate` and
`serve` processes from this one client process,
checks every answer against `oracle.py`, and prints a report followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the per-layer ones, from `perfbench-trace`, which
replays the same inputs in-process (see README.md).
"""

import argparse
import filecmp
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import client
import oracle
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FACTS = 100_000
# Every run uses the same data; `--seed` picks the read requests and the
# update batches. `iolap gen --seed` also redraws the dimension hierarchies,
# and across generator seeds a class's p50 moved three times as much as
# across runs on one dataset, more than any bound could absorb.
DATA_SEED = 1
EPSILON = 0.01
WORKERS = 2  # server worker threads
SERVE_BUFFER_KB = 4096  # the serve/allocate default
SETUP_REPS = 3  # set-ups per run; setup_s is their median
PER_CLASS = 48  # distinct requests per read class
WINDOWS = 3  # a run's percentiles are medians over this many time windows
# Allocations per run: ALLOC_REPS before the reads and as many again after
# every server has stopped, so alloc_s, their median, samples the machine
# at both ends of the run. Three allocations in a row agree within a few
# percent, while runs half a minute apart moved by up to a third.
ALLOC_REPS = 3
MAX_COMPONENT = 1000  # update targets stay in components of at most this many tuples
READ_TOL = 1e-8  # relative; same allocation, different summation order
# Relative. Maintenance re-solves the components a batch touches, so it
# should equal a rebuild up to summation order (observed ~1e-14). A run's
# batches move the answers by ~1e-4, and the check also confirms that the
# allocation from before the batches fails it.
INGEST_TOL = 1e-9
# Relative; a restarted node against its own answers from before the
# restart. Bit-identity is what recovery should give, and the count of
# bit-identical answers is printed as a strict verdict; the gate allows
# the last-bit differences of another summation order (observed up to 1.2e-15),
# far below what one lost or repeated batch moves.
RESTART_TOL = 1e-12
# The allocation checker's fixpoint gate, relative. On the fixed
# alloc_external data one more EM step moves a weight by up to 2.46
# epsilon and by 0.07 epsilon on average: the program stops updating a cell
# once its own change falls below epsilon while its neighbours move on. The
# gate sits just above that, which still rejects an EM stopped two
# iterations early (allocated at epsilon 0.03: 4.5 and 0.2 epsilon). Whether
# the fixpoint holds within epsilon itself is printed as a strict verdict.
FIXPOINT_MAX = 3 * EPSILON
FIXPOINT_MEAN = 0.1 * EPSILON
CLASSES = ("dice", "scan", "coarse", "rollup")
# Classes whose p50 is a metric. Every other percentile is printed, not
# judged: over sets of 10 runs on this 2-core VM the quartile spread of
# the p95s, of the rollup p50 and of the update p90 reached 0.21-0.29 of
# the median, too near the largest allowed bound (0.25) to be held by it.
P50_CLASSES = ("dice", "scan", "coarse")

# Open-loop /update batches per second, well under what a node sustains
# (an update takes 60-160 ms, most of it in lattice maintenance). Where no
# writes run beside the reads, TAIL_SECONDS of batches at that rate follow
# the read phase.
WRITE_RATE = 4.0
TAIL_SECONDS = 12

# The two-shard router workload was dropped: two shards and a router with
# two workers each on two cores measure the scheduler, and its dice p50
# spread 0.39 of the median over 10 runs. The cluster layers are still
# timed by the traced run.
# The writer no longer runs beside the reads: with one closed-loop reader
# and the lattice sync each keeping a core busy, the client and the server
# shared two cores, and over 10 runs the update p50 spread 0.25 of the
# median and reads/s 0.21. The node_read write tail runs the maintenance
# and restart checks instead.
WORKLOADS = {
    # Allocation at a 400 KiB buffer, so the giant component goes external.
    "alloc_external": {"kind": "synthetic", "alloc_buffer_kb": 400},
    # Serves at the default buffer, the one the rebuild check allocates at.
    "node_read": {"kind": "automotive", "ingest_checks": True},
}


def log(msg):
    print(msg, flush=True)


def pct(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def windowed(samples, q, t0, t1):
    """Median over WINDOWS equal time windows of the q-th percentile of
    (time, value) samples, so a burst of load from outside the benchmark
    moves one window rather than the run's figure. Samples that fall
    after t1 (replies draining after the window) count in the last one."""
    width = (t1 - t0) / WINDOWS
    per = [[] for _ in range(WINDOWS)]
    for t, v in samples:
        per[min(WINDOWS - 1, max(0, int((t - t0) / width)))].append(v)
    return statistics.median(pct(w, q) for w in per if w)


# ---------------------------------------------------------------------------
# Build


def build():
    needed = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock", "src/bin/iolap.rs",
                                              "crates", "perfbench/trace/Cargo.toml")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise SystemExit(f"perfbench: not a checkout of the workspace (missing {missing[0]})")
    # Both packages build into one target directory, so the program's
    # crates are compiled once for both.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--locked", "--bin", "iolap"],
                ["cargo", "build", "--release", "--locked", "--manifest-path",
                 "perfbench/trace/Cargo.toml"]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: {' '.join(cmd)} failed")
    return os.path.join(target, "release", "iolap"), os.path.join(target, "release",
                                                                   "perfbench-trace")


# ---------------------------------------------------------------------------
# Inputs


def read_plan(ds, seed):
    """PER_CLASS requests per class, interleaved dice, scan, coarse, rollup.

    A dice costs about as many pages as its Area has leaves, and Area
    sizes vary several-fold, so dice requests use only the Areas in the
    middle half by leaf count, each in turn: one request shape, one mode.
    """
    rng = random.Random(seed)
    area = ds.dim_index("SR_AREA")
    time_ = ds.dim_index("TIME")
    loc = ds.dim_index("LOCATION")
    nodes = lambda d, level: ds.nodes_at(d, ds.level_index(d, level))  # noqa: E731
    states, quarters, regions = (nodes(loc, "State"), nodes(time_, "Quarter"),
                                 nodes(loc, "Region"))
    area_level = ds.level_index(area, "Area")
    leaves = {}
    for leaf in ds.leaves[area]:
        node = ds.anc[area][leaf][area_level]
        leaves[node] = leaves.get(node, 0) + 1
    by_size = sorted(leaves, key=lambda n: (leaves[n], n))
    areas = by_size[len(by_size) // 4:len(by_size) - len(by_size) // 4]
    rng.shuffle(areas)
    requests = []
    for i in range(PER_CLASS):
        requests.append(("dice", [(area, areas[i % len(areas)]), (loc, rng.choice(states))]))
        requests.append(("scan", [(loc, rng.choice(states)), (time_, rng.choice(quarters))]))
        requests.append(("coarse", [(loc, rng.choice(regions))]))
        requests.append(("rollup", [(loc, ds.level_index(loc, "Region"))]))
    plan = []
    for rid, (cls, restr) in enumerate(requests):
        if cls == "rollup":
            d, level = restr[0]
            body = {"dim": ds.dim_names[d], "level": ds.level_names[d][level], "agg": "sum"}
            plan.append((cls, "/rollup", json.dumps(body), rid))
        else:
            body = {"region": {ds.dim_names[d]: n for d, n in restr}, "agg": "sum"}
            plan.append((cls, "/query", json.dumps(body), rid))
    return requests, plan


def write_plan(ds, entries, seed, n):
    """`n` update batches. Each one updates the measure of a precise fact
    and of an allocated imprecise fact, inserts a precise fact and deletes
    the fact the previous batch inserted. Targets are picked by kind, since
    `iolap gen` numbers the imprecise facts first, and only in components
    of at most MAX_COMPONENT tuples: an update re-solves the components it
    touches, and the synthetic cube's one giant component takes over a
    second, a second mode that would split the update class in two."""
    rng = random.Random(seed * 7919 + 1)
    size = oracle.component_sizes(ds, entries)
    small = lambda cells: all(size[c] <= MAX_COMPONENT for c in cells)  # noqa: E731
    cells_of = {}
    for fid, cell, _, _ in entries:
        cells_of.setdefault(fid, []).append(cell)
    precise, imprecise = [], []
    for fid, (dims, _) in ds.facts.items():
        if fid in cells_of and small(cells_of[fid]):
            (precise if ds.is_precise(dims) else imprecise).append(fid)
    base = max(ds.facts) + 1_000_000
    batches = []
    for i in range(n):
        cell = ds.facts[rng.choice(precise)][0]
        muts = [
            {"op": "update", "fact_id": rng.choice(precise),
             "measure": round(rng.uniform(1, 1000), 2)},
            {"op": "update", "fact_id": rng.choice(imprecise),
             "measure": round(rng.uniform(1, 1000), 2)},
            {"op": "insert", "id": base + i, "dims": list(cell),
             "measure": round(rng.uniform(1, 1000), 2)},
        ]
        if i > 0:
            muts.append({"op": "delete", "fact_id": base + i - 1})
        batches.append(muts)
    return batches


def apply_batches(facts, batches):
    facts = dict(facts)
    for muts in batches:
        for m in muts:
            if m["op"] == "update":
                facts[m["fact_id"]] = (facts[m["fact_id"]][0], m["measure"])
            elif m["op"] == "insert":
                facts[m["id"]] = (tuple(m["dims"]), m["measure"])
            else:
                del facts[m["fact_id"]]
    return facts


# ---------------------------------------------------------------------------
# Processes


class Run:
    def __init__(self, workload, seed, seconds, iolap, work):
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.w = WORKLOADS[workload]
        self.iolap, self.work = iolap, work
        self.attempted = self.failed = 0
        self.errors = []
        self.strict = []  # (passed, what): exact checks, reported without setting correct
        self.commands = []  # every finished one-shot program command
        self.servers = []

    def op(self, ok, what):
        """Count one operation of the program; a failed one is reported."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.verify(False, what)

    def verify(self, ok, what):
        """Record one check of the program's output."""
        if not ok and len(self.errors) < 10:
            self.errors.append(what)

    def cmd(self, *args, log_name):
        c = procs.run([self.iolap, *map(str, args)], os.path.join(self.work, log_name))
        self.commands.append(c)
        return c

    def serve_args(self, data):
        """The node allocates at the workload's buffer, as the dump does."""
        return [self.iolap, "serve", "--data", data, "--addr", "127.0.0.1:0", "--cache", "0",
                "--workers", str(WORKERS), "--epsilon", str(EPSILON),
                "--buffer-kb", str(self.w.get("alloc_buffer_kb", SERVE_BUFFER_KB))]

    def setup_once(self, d):
        """gen + serve until it prints its address."""
        os.makedirs(d)
        data = os.path.join(d, "data")
        t0 = time.perf_counter()
        self.cmd("gen", "--kind", self.w["kind"], "--facts", FACTS, "--seed", DATA_SEED,
                 "--out", data, log_name="gen.log")
        servers = procs.start_all([(self.serve_args(data), os.path.join(d, "serve.log"))])
        return time.perf_counter() - t0, data, servers

    def setup(self):
        times = []
        for i in range(SETUP_REPS):
            d = os.path.join(self.work, f"setup{i}")
            seconds, data, servers = self.setup_once(d)
            times.append(seconds)
            if i + 1 < SETUP_REPS:
                procs.stop_all(servers)
                shutil.rmtree(d)
        self.servers, self.data = servers, data
        self.addr = servers[-1].addr
        self.setup_times = times
        return statistics.median(times)

    def allocate(self, buffer_kb, dump, data=None):
        c = self.cmd("allocate", "--data", data or self.data, "--algorithm", "transitive",
                     "--policy", "em-count", "--epsilon", EPSILON, "--buffer-kb", buffer_kb,
                     "--edb-out", dump, log_name="allocate.log")
        io = sum(int(line.split("=")[-1].split()[0]) for line in c.stdout.splitlines()
                 if line.strip().startswith(("prep :", "alloc:", "edb  :")))
        return c.seconds, io

    def stop_servers(self):
        for s in self.servers:
            s.peak()
        for s in self.servers:
            self.verify(s.stop() == 0, f"{s.args[1]} exited non-zero")
        self.servers = []


# ---------------------------------------------------------------------------
# Phases


def read_phase(run, plan, seconds):
    """Closed-loop reads for `seconds`.

    Two connections each cycle the four classes, the second two classes
    behind the first, so a cheap request mostly runs beside a costly one
    rather than beside an idle core.
    """
    by_class = {}
    for cls, path, body, rid in plan:
        by_class.setdefault(cls, []).append((path, body, rid))
    agents = [client.Reader(run.addr, by_class, offset=2 * i) for i in range(2)]
    start, end = client.drive(agents, seconds)
    return [s for a in agents for s in a.samples], start, end


def write_tail(run, batches, probe):
    """The open-loop batches; after each reply the writer sends `probe`, a
    (path, body) read, on a second connection."""
    writer = client.Writer(run.addr, [json.dumps({"mutations": b}) for b in batches],
                           WRITE_RATE, probe)
    client.drive([writer])
    return writer


def check_reads(run, oracle_, requests, samples):
    """Every distinct (request, body) pair against the oracle."""
    seen = {}
    for cls, rid, _, status, body, _ in samples:
        run.op(status == 200, f"{cls} request {rid}: {status} {body[:200]}")
        if status == 200:
            seen[(rid, body)] = cls
    for (rid, body), cls in seen.items():
        run.verify(answer_ok(oracle_, requests[rid], body, READ_TOL),
                  f"{cls} request {rid}: {body[:200]}")
    return len(seen)


def answer_ok(oracle_, request, body, tol):
    return deviation(oracle_, request, body) <= tol


def deviation(oracle_, request, body):
    """Largest relative difference between an answer and the oracle, or
    infinity for a malformed answer or a rollup whose rows are not the
    oracle's. The rows of a whole-cube rollup must also sum to the cube
    total."""
    cls, restr = request
    try:
        v = json.loads(body)
        if cls != "rollup":
            pairs = [((v["sum"], v["count"]), oracle_.answer(restr))]
        else:
            want = oracle_.rollup(*restr[0])
            rows = {r["name"]: (r["sum"], r["count"]) for r in v["rows"]}
            if set(rows) - set(want) or any(want[n][1] > 0 and n not in rows for n in want):
                return math.inf
            pairs = [(rows[n], want[n]) for n in rows]
            pairs.append(((sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values())),
                          tuple(oracle_.total)))
    except (ValueError, KeyError, TypeError):
        return math.inf
    return max(abs(g - e) / max(abs(e), 1.0) for got, exp in pairs for g, e in zip(got, exp))


def epoch_totals(facts, total, batches):
    """The cube's (sum, count) after each acknowledged batch, from the
    allocation's total before them: every batch touches allocated facts
    only, and an allocated fact's weights sum to 1, so a mutation moves
    the total by its change of measure (and the count by an insert or a
    delete)."""
    measure = {fid: m for fid, (_, m) in facts.items()}
    totals = [tuple(total)]
    for muts in batches:
        s, c = totals[-1]
        for m in muts:
            if m["op"] == "update":
                s += m["measure"] - measure[m["fact_id"]]
                measure[m["fact_id"]] = m["measure"]
            elif m["op"] == "insert":
                s, c = s + m["measure"], c + 1
                measure[m["id"]] = m["measure"]
            else:
                s, c = s - measure.pop(m["fact_id"]), c - 1
        totals.append((s, c))
    return totals


def rollup_total_ok(body, totals):
    """Do a rollup's rows sum to the cube total at the answer's epoch?"""
    try:
        v = json.loads(body)
        want = totals[v["epoch"]]
        got = (sum(r["sum"] for r in v["rows"]), sum(r["count"] for r in v["rows"]))
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    return all(abs(g - e) <= READ_TOL * max(abs(e), 1.0) for g, e in zip(got, want))


def check_acks(run, writer, first_epoch=1):
    epochs = []
    for i, _, status, body in sorted(writer.acks):
        ok = status == 200
        if ok:
            try:
                epochs.append(json.loads(body)["epoch"])
            except (ValueError, KeyError):
                ok = False
        run.op(ok, f"update batch {i}: {status} {body[:200]}")
    run.verify(epochs == list(range(first_epoch, first_epoch + len(epochs))),
              f"update epochs are not consecutive: {epochs[:5]}...")


def query_all(run, addr, plan):
    """One reply per distinct request -> {request id: body}."""
    answers, seen = {}, set()
    for cls, path, body, rid in plan:
        if body in seen:
            continue
        seen.add(body)
        status, reply = client.call(addr, path, body)
        run.op(status == 200, f"{cls} {body}: {status}")
        answers[rid] = reply
    return answers


def healthz_epoch(addr):
    status, body = client.call(addr, "/healthz", "", "GET")
    return json.loads(body)["epoch"] if status == 200 else None


def ingest_checks(run, ds, requests, plan, batches_acked, initial):
    """Maintenance equals a rebuild; a restart on the WAL answers the same.
    `initial` is the oracle of the allocation before any batch: it must
    fail the rebuild check, or the check could not see lost updates."""
    before = query_all(run, run.addr, plan)
    final = os.path.join(run.work, "final")
    os.makedirs(final)
    for f in os.listdir(ds.dir):
        if f.startswith("dim"):
            shutil.copy(os.path.join(ds.dir, f), final)
    with open(os.path.join(ds.dir, "facts.csv")) as fh:
        header = fh.readline().strip().split(",")
    oracle.write_facts(os.path.join(final, "facts.csv"), header,
                       apply_batches(ds.facts, batches_acked))
    dump = os.path.join(run.work, "final.edb")
    run.allocate(SERVE_BUFFER_KB, dump, data=final)
    fds = oracle.Dataset(final)
    rebuilt = oracle.Oracle(fds, oracle.read_dump(dump, fds.k))
    worst = stale = 0.0
    for rid, body in before.items():
        dev = deviation(rebuilt, requests[rid], body)
        run.verify(dev <= INGEST_TOL,
                   f"maintained answer differs from a rebuild: {requests[rid]} {body[:200]}")
        worst = max(worst, dev)
        stale = max(stale, deviation(initial, requests[rid], body))
    run.verify(stale > INGEST_TOL, f"the answers are within {INGEST_TOL:g} of the allocation "
                                   f"before the batches too, so the rebuild check shows nothing")

    # Restart on the same data dir and WAL.
    run.stop_servers()
    t0 = time.perf_counter()
    run.servers = procs.start_all([(run.serve_args(run.data), os.path.join(run.work,
                                                                          "restart.log"))])
    restart_s = time.perf_counter() - t0
    run.addr = run.servers[0].addr
    epoch = healthz_epoch(run.addr)
    run.verify(epoch == len(batches_acked),
              f"restart reports epoch {epoch}, {len(batches_acked)} batches were acknowledged")
    after = query_all(run, run.addr, plan)
    identical, moved = 0, 0.0
    for rid, body in before.items():
        identical += after.get(rid) == body
        dev = restart_deviation(body, after.get(rid))
        run.verify(dev <= RESTART_TOL, f"answer changed across restart: {after.get(rid)} vs {body}")
        moved = max(moved, dev)
    run.strict.append((identical == len(before),
                       f"{identical} of {len(before)} answers bit-identical after a restart on "
                       f"the WAL; the others within {moved:.2g} relative"))
    return worst, stale, restart_s, identical, len(before)


def restart_deviation(a, b):
    """Largest relative difference between two answers, field by field, or
    infinity unless both have the same epoch and rows."""
    try:
        a, b = json.loads(a), json.loads(b)
    except (TypeError, ValueError):
        return math.inf
    if a.get("epoch") != b.get("epoch"):
        return math.inf
    pairs = [(a, b)] if "rows" not in a else list(zip(a["rows"], b["rows"]))
    if "rows" in a and [r["name"] for r in a["rows"]] != [r["name"] for r in b["rows"]]:
        return math.inf
    return max(abs(x[f] - y[f]) / max(abs(y[f]), 1.0) for x, y in pairs for f in ("sum", "count"))


# ---------------------------------------------------------------------------
# One end-to-end run


def end_to_end(run):
    w = run.w
    setup_s = run.setup()
    ds = oracle.Dataset(run.data)
    requests, plan = read_plan(ds, run.seed)
    dump = os.path.join(run.work, "alloc.edb")

    # ALLOC_REPS allocations at the workload's buffer; the dump feeds the
    # oracle and the write plan.
    buffer_kb = w.get("alloc_buffer_kb", SERVE_BUFFER_KB)
    alloc_runs = [run.allocate(buffer_kb, dump) for _ in range(ALLOC_REPS)]
    alloc_end = time.perf_counter()
    entries = oracle.read_dump(dump, ds.k)
    oracle_ = oracle.Oracle(ds, entries)
    batches = write_plan(ds, entries, run.seed, int(TAIL_SECONDS * WRITE_RATE) + 1)

    # Closed-loop reads, then the open-loop writes.
    samples, start, end = read_phase(run, plan, run.seconds)
    timed_servers = list(run.servers)
    distinct = check_reads(run, oracle_, requests, samples)
    log(f"checked {distinct} distinct answers against the oracle (relative tolerance "
        f"{READ_TOL:g}; rollup rows also against the cube total)")
    rollup = next((path, body) for cls, path, body, _ in plan if cls == "rollup")
    writer = write_tail(run, batches, rollup)
    check_acks(run, writer)
    ack_window = (writer.t0, writer.t0 + len(batches) / WRITE_RATE)
    # A rollup after each batch: its rows must sum to the cube total at the
    # epoch it answers for.
    totals = epoch_totals(ds.facts, oracle_.total, batches)
    for i, status, body in writer.probes:
        run.op(status == 200, f"rollup after batch {i}: {status} {body[:200]}")
        if status == 200:
            run.verify(rollup_total_ok(body, totals),
                       f"rollup after batch {i}: rows do not sum to the cube total at its "
                       f"epoch: {body[:200]}")
    if w.get("ingest_checks"):
        acked = batches[:len(writer.acks)]
        worst, stale, restart_s, identical, n = ingest_checks(run, ds, requests, plan, acked,
                                                              oracle_)
        log(f"ingest checks: {len(acked)} acknowledged batches; answers within {worst:.2g} "
            f"(relative; allowed {INGEST_TOL:g}) of a rebuild from the final fact table, and "
            f"up to {stale:.2g} from the allocation before the batches; after a restart in "
            f"{restart_s:.2f} s, epoch {len(acked)} and {identical} of {n} answers "
            f"bit-identical, all within {RESTART_TOL:g} (relative)")
    if "alloc_buffer_kb" in w:
        try:
            v = oracle.check_allocation(ds, entries, FIXPOINT_MAX, FIXPOINT_MEAN)
            log(f"allocation checks passed: {v}")
            run.strict.append((v["fixpoint_max"] <= EPSILON and v["fixpoint_mean"] <= EPSILON,
                               f"EM fixpoint within epsilon: one more step moves a weight by "
                               f"up to {v['fixpoint_max'] / EPSILON:.3g} epsilon and by "
                               f"{v['fixpoint_mean'] / EPSILON:.3g} epsilon on average"))
        except oracle.AllocationError as e:
            run.verify(False, f"allocation: {e}")
    run.stop_servers()

    # ALLOC_REPS more allocations, now that no server runs; each dump must
    # be byte-identical to the first.
    gap = time.perf_counter() - alloc_end
    again = os.path.join(run.work, "again.edb")
    for _ in range(ALLOC_REPS):
        alloc_runs.append(run.allocate(buffer_kb, again))
        run.verify(filecmp.cmp(dump, again, shallow=False),
                   f"two allocations at {buffer_kb} KiB wrote different dumps")
    ios = sorted({io for _, io in alloc_runs})
    run.verify(len(ios) == 1, f"alloc_io_pages differs across repetitions: {ios}")
    for _ in alloc_runs:
        run.op(True, "allocate")

    # Metrics.
    ok = [s for s in samples if s[3] == 200]
    metrics = {"setup_s": (setup_s, "s"),
               "alloc_s": (statistics.median(t for t, _ in alloc_runs), "s"),
               "alloc_io_pages": (alloc_runs[0][1], "pages")}
    p50, p95 = {}, {}
    for cls in CLASSES:
        lat = [(s[5], s[2]) for s in ok if s[0] == cls]
        p50[cls] = windowed(lat, 0.50, start, end)
        p95[cls] = windowed(lat, 0.95, start, end)
        if cls in P50_CLASSES:
            metrics[f"{cls}_p50_us"] = (p50[cls], "us")
    width = (end - start) / WINDOWS
    metrics["read_ops_s"] = (statistics.median(
        len([s for s in ok if start + i * width <= s[5] < start + (i + 1) * width]) / width
        for i in range(WINDOWS)), "1/s")
    acks = [(writer.due(i), lat) for i, lat, status, _ in writer.acks if status == 200]
    metrics["update_p50_us"] = (windowed(acks, 0.50, *ack_window), "us")
    update_p90 = windowed(acks, 0.90, *ack_window)
    one_shot = max(run.commands, key=lambda c: c.peak_kib)
    metrics["peak_rss_mb"] = ((sum(s.peak_kib for s in timed_servers) + one_shot.peak_kib)
                              / 1024, "MiB")

    # Report.
    log(f"workload {run.name}: seed {run.seed}, {FACTS} {w['kind']} facts, {WORKERS} server "
        f"workers per process, result cache off, EM-Count epsilon {EPSILON}, WAL on with one "
        f"fsync per batch and a synchronous fold")
    log(f"  setup: median of {SETUP_REPS} ({', '.join(f'{t:.3f}' for t in run.setup_times)} s)")
    log(f"  allocate attempted {len(alloc_runs)} failed 0 at {buffer_kb} KiB: "
        f"{', '.join(f'{t:.3f}' for t, _ in alloc_runs[:ALLOC_REPS])} s before the reads, "
        f"{', '.join(f'{t:.3f}' for t, _ in alloc_runs[ALLOC_REPS:])} s {gap:.0f} s later; "
        f"accounted I/O pages {ios}")
    log(f"  reads: {len(ok)} in {end - start:.2f} s over 2 closed-loop "
        f"connections; percentiles are medians over {WINDOWS} windows")
    for cls in CLASSES:
        mine = [s for s in samples if s[0] == cls]
        n = len([s for s in mine if s[3] == 200])
        log(f"  {cls:7s} attempted {len(mine)} failed {len(mine) - n}  "
            f"p50 {p50[cls]:.0f} us, p95 {p95[cls]:.0f} us"
            f" ({n} samples, {n // WINDOWS - int(0.95 * (n // WINDOWS))} beyond p95 per window)")
    n = len(acks)
    log(f"  update  attempted {len(writer.acks)} failed {len(writer.acks) - n}  "
        f"p50 {metrics['update_p50_us'][0]:.0f} us, p90 {update_p90:.0f} us "
        f"({n} samples) at {WRITE_RATE:g} batches/s; "
        f"writer lateness p50 {pct(writer.lateness, 0.5):.0f} us, "
        f"max {max(writer.lateness):.0f} us")
    for s in timed_servers:
        log(f"  peak RSS {s.args[1]} {os.path.basename(s.args[3])}: "
            f"{s.peak_kib / 1024:.1f} MiB")
    log(f"  peak RSS largest one-shot command ({one_shot.args[1]}): "
        f"{one_shot.peak_kib / 1024:.1f} MiB")
    return metrics


# ---------------------------------------------------------------------------
# Traced run

TRACE_BATCHES = 40


def traced(run, tracer):
    """Replay the workload's inputs in-process through perfbench-trace."""
    d = os.path.join(run.work, "setup0")
    os.makedirs(d)
    run.data = os.path.join(d, "data")
    run.cmd("gen", "--kind", run.w["kind"], "--facts", FACTS, "--seed", DATA_SEED,
            "--out", run.data, log_name="gen.log")
    ds = oracle.Dataset(run.data)
    requests, plan = read_plan(ds, run.seed)
    dump = os.path.join(run.work, "serve.edb")
    run.allocate(SERVE_BUFFER_KB, dump)
    entries = oracle.read_dump(dump, ds.k)
    batches = write_plan(ds, entries, run.seed, TRACE_BATCHES)
    inputs = os.path.join(run.work, "inputs.json")
    with open(inputs, "w") as fh:
        json.dump({"requests": [{"class": c, "path": p, "body": b} for c, p, b, _ in plan],
                   "batches": [json.dumps({"mutations": b}) for b in batches]}, fh)
    spans = os.path.join(ROOT, ".perfbench", f"spans-{run.name}-{run.seed}.jsonl")
    r = subprocess.run([tracer, "--data", run.data, "--inputs", inputs,
                        "--buffer-kb", str(run.w.get("alloc_buffer_kb", SERVE_BUFFER_KB)),
                        "--epsilon", str(EPSILON), "--workers", str(WORKERS),
                        "--work", os.path.join(run.work, "trace"), "--spans", spans],
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=150)
    if r.returncode != 0:
        raise procs.ProgramError(f"perfbench-trace exited {r.returncode}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    oracle_ = oracle.Oracle(ds, entries)
    for rid, body in out["answers"].items():
        rid = int(rid)
        run.op(True, "traced request")
        run.verify(answer_ok(oracle_, requests[rid], body, READ_TOL),
                   f"traced {requests[rid][0]} request {rid}: {body[:200]}")
    run.op(out["batches_applied"] == len(batches), "traced update batches")
    for line in out["report"]:
        log(line)
    log(f"spans written to {os.path.relpath(spans, ROOT)}")
    return {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the iolap binaries.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A stop request still runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    iolap, tracer = build()
    procs.start_launcher()
    work = os.path.join(ROOT, ".perfbench", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = Run(args.workload, args.seed, args.seconds, iolap, work)
    try:
        metrics = traced(run, tracer) if args.trace else end_to_end(run)
    finally:
        procs.stop_all(run.servers)
        procs.stop_launcher()
        shutil.rmtree(work, ignore_errors=True)
    for passed, what in run.strict:
        log(f"STRICT CHECK {'passed' if passed else 'FAILED'} (reported, not gated): {what}")
    for e in run.errors:
        log(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
