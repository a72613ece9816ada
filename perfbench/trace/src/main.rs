//! `perfbench-trace` — replays one perfbench workload's inputs in-process
//! and times the calls into each layer's public functions.
//!
//! ```text
//! perfbench-trace --data DIR --inputs FILE --buffer-kb KB --epsilon E
//!                 --workers N --work DIR --spans FILE
//! ```
//!
//! `DIR` is a dataset written by `iolap gen`; `FILE` holds the workload's
//! read requests and update batches as `run.py` generated them. Every
//! call is recorded as a span (name, start, end, parent, request id) in
//! memory; the spans go to `--spans` as JSON lines when the run ends.
//! The last stdout line is one JSON object with the per-layer metrics,
//! the engine's answer to every request (checked by `run.py`), and a
//! human-readable report.

use iolap::core::maintain::EdbMutation;
use iolap::core::{
    allocate, fold_parts, sort_parts, Algorithm, AllocConfig, ChunkPart, MaintainableEdb,
    MutationWal, PolicySpec, SegScanStats,
};
use iolap::model::{Fact, FactTable, RegionBox, MAX_DIMS};
use iolap::obs::json::{self, Json};
use iolap::query::{AggFn, AggResult, RollupRow};
use iolap::serve::snapshot::{resolve_level, resolve_region};
use iolap::serve::{wire, EdbSnapshot, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Engine timings are taken over this many passes of the request list.
const PASSES: usize = 3;

// ---------------------------------------------------------------------------
// Spans

struct Span {
    name: String,
    req: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder: a stack gives each span its parent.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    fn span<T>(
        &mut self,
        name: &str,
        req: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        if !self.on {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64() * 1e6);
        }
        let id = self.spans.len();
        let s = Span {
            name: name.to_string(),
            req,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        };
        self.spans.push(s);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        (out, start.elapsed().as_secs_f64() * 1e6)
    }

    /// Self time per span name: each span minus the time its children cover.
    fn self_times(&self) -> BTreeMap<String, (u64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns - child[i]) as f64 / 1e6;
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req.map_or("null".into(), |r| r.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

// ---------------------------------------------------------------------------
// Small helpers

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn arg(args: &[String], name: &str) -> String {
    let i =
        args.iter().position(|a| a == name).unwrap_or_else(|| die(&format!("{name} is required")));
    args.get(i + 1).cloned().unwrap_or_else(|| die(&format!("{name} needs a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-trace: {msg}");
    std::process::exit(2)
}

fn ok<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| die(&format!("{what}: {e}")))
}

/// One keep-alive HTTP/1.1 connection.
struct Http {
    reader: BufReader<TcpStream>,
}

impl Http {
    fn connect(addr: &str) -> Http {
        let s = ok(TcpStream::connect(addr), "connect");
        ok(s.set_nodelay(true), "nodelay");
        Http { reader: BufReader::new(s) }
    }

    /// POST and return (status, body, latency µs).
    fn post(&mut self, path: &str, body: &str) -> (u16, String, f64) {
        self.send("POST", path, body)
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, String, f64) {
        let t = Instant::now();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        ok(self.reader.get_mut().write_all(req.as_bytes()), "send");
        let mut line = String::new();
        ok(self.reader.read_line(&mut line), "status line");
        let status: u16 = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let mut len = 0usize;
        loop {
            line.clear();
            ok(self.reader.read_line(&mut line), "header");
            if line == "\r\n" || line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut buf = vec![0u8; len];
        ok(self.reader.read_exact(&mut buf), "body");
        (status, String::from_utf8_lossy(&buf).into_owned(), t.elapsed().as_secs_f64() * 1e6)
    }
}

// ---------------------------------------------------------------------------
// Requests

#[derive(Clone)]
enum Shape {
    Query { region: RegionBox, agg: AggFn },
    Rollup { dim: usize, level: iolap::hierarchy::LevelNo, region: RegionBox, agg: AggFn },
}

struct Request {
    class: String,
    path: String,
    body: String,
    shape: Shape,
}

fn parse_request(schema: &iolap::model::Schema, path: &str, body: &str) -> Shape {
    if path == "/rollup" {
        let r = ok(wire::parse_rollup(body), "rollup body");
        let (dim, level) = ok(resolve_level(schema, &r.dim, &r.level), "rollup level");
        let region = ok(resolve_region(schema, &r.at), "rollup region");
        Shape::Rollup { dim, level, region, agg: r.agg }
    } else {
        let q = ok(wire::parse_query(body), "query body");
        Shape::Query { region: ok(resolve_region(schema, &q.at), "query region"), agg: q.agg }
    }
}

fn shape_region(s: &Shape) -> &RegionBox {
    match s {
        Shape::Query { region, .. } | Shape::Rollup { region, .. } => region,
    }
}

/// An engine answer before it is rendered.
enum Answer {
    Total(AggResult, AggFn),
    Rows(Vec<RollupRow>, AggFn),
}

/// Answer one request the way the server's handlers do; returns the
/// answer and the scan counters.
fn engine(snap: &EdbSnapshot, shape: &Shape) -> (Answer, SegScanStats, u64) {
    match shape {
        Shape::Query { region, agg } => {
            let (r, stats) = ok(snap.aggregate_with_stats(region, *agg), "aggregate");
            (Answer::Total(r, *agg), stats, 0)
        }
        Shape::Rollup { dim, level, region, agg } => {
            let (rows, stats) = ok(snap.rollup(*dim, *level, Some(region), *agg), "rollup");
            (Answer::Rows(rows, *agg), stats.scan, stats.cuboid_hits)
        }
    }
}

/// The response body, as the handlers render it.
fn render(a: &Answer, epoch: u64) -> String {
    match a {
        Answer::Total(r, agg) => wire::query_response(r, *agg, false, epoch),
        Answer::Rows(rows, agg) => wire::rollup_response(rows, *agg, epoch),
    }
}

fn to_mutations(schema: &iolap::model::Schema, body: &str) -> Vec<EdbMutation> {
    let upd = ok(wire::parse_update(body), "update body");
    upd.muts
        .into_iter()
        .map(|m| match m {
            wire::MutationReq::Update { fact_id, measure } => {
                EdbMutation::UpdateMeasure { fact_id, new_measure: measure }
            }
            wire::MutationReq::Delete { fact_id } => EdbMutation::Delete(fact_id),
            wire::MutationReq::Insert { id, dims, measure } => {
                let mut d = [0u32; MAX_DIMS];
                for (i, name) in dims.iter().enumerate() {
                    d[i] =
                        schema.dim(i).node_by_name(name).unwrap_or_else(|| die("unknown node")).0;
                }
                EdbMutation::Insert(Fact { id, dims: d, measure })
            }
        })
        .collect()
}

fn snapshot_of(
    medb: &mut MaintainableEdb,
    table: &FactTable,
    t: &mut Tracer,
) -> (EdbSnapshot, f64, f64) {
    let (segments, seg_us) =
        t.span("core.snapshot_segments", None, |_| ok(medb.snapshot_segments(), "segments"));
    let (lattice, lat_us) = t.span("core.snapshot_lattice", None, |_| medb.snapshot_lattice().ok());
    let snap = EdbSnapshot {
        epoch: 0,
        schema: medb.schema().clone(),
        table: Arc::new(table.clone()),
        segments,
        lattice,
    };
    (snap, seg_us, lat_us)
}

// ---------------------------------------------------------------------------

struct Out {
    metrics: Vec<(String, f64, &'static str)>,
    report: Vec<String>,
}

impl Out {
    fn m(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let data = PathBuf::from(arg(&args, "--data"));
    let inputs = ok(std::fs::read_to_string(arg(&args, "--inputs")), "reading --inputs");
    let buffer_kb: usize = ok(arg(&args, "--buffer-kb").parse(), "--buffer-kb");
    let epsilon: f64 = ok(arg(&args, "--epsilon").parse(), "--epsilon");
    let workers: usize = ok(arg(&args, "--workers").parse(), "--workers");
    let work = PathBuf::from(arg(&args, "--work"));
    let spans_path = PathBuf::from(arg(&args, "--spans"));
    ok(std::fs::create_dir_all(&work), "creating --work");

    let inputs: Json = ok(json::parse(&inputs), "parsing --inputs");
    let policy = PolicySpec::em_count(epsilon);
    let pages = |kb: usize| (kb * 1024).div_ceil(4096).max(8);
    let mut t = Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), on: true };
    let mut out = Out { metrics: Vec::new(), report: Vec::new() };

    // model: CSV load.
    let ((schema, table), load_us) = t.span("model.csv_load", None, |_| {
        ok(iolap::model::csv::read_dataset(&data), "loading CSVs")
    });
    out.m("model.csv_load_s", load_us / 1e6, "s");

    let requests: Vec<Request> = inputs
        .get("requests")
        .and_then(Json::as_array)
        .unwrap_or_else(|| die("inputs without requests"))
        .iter()
        .map(|r| {
            let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            let shape = parse_request(&schema, &s("path"), &s("body"));
            Request { class: s("class"), path: s("path"), body: s("body"), shape }
        })
        .collect();
    let batches: Vec<String> = inputs
        .get("batches")
        .and_then(Json::as_array)
        .unwrap_or_else(|| die("inputs without batches"))
        .iter()
        .map(|b| b.as_str().unwrap_or_default().to_string())
        .collect();
    let classes: Vec<String> = {
        let mut c: Vec<String> = Vec::new();
        for r in &requests {
            if !c.contains(&r.class) {
                c.push(r.class.clone());
            }
        }
        c
    };

    // core allocation, graph, storage: the paper's run at the workload's buffer.
    let cfg = AllocConfig::builder().buffer_pages(pages(buffer_kb)).build();
    let (run, _) = t.span("core.allocate", None, |_| {
        ok(allocate(&table, &policy, Algorithm::Transitive, &cfg), "allocate")
    });
    let r = &run.report;
    out.m("core.prep_s", r.wall_prep.as_secs_f64(), "s");
    out.m("core.prep_io_pages", r.io_prep.total() as f64, "pages");
    out.m("core.passes_s", r.wall_alloc.as_secs_f64(), "s");
    out.m("core.passes_io_pages", r.io_alloc.total() as f64, "pages");
    out.m("core.edb_write_s", r.wall_edb.as_secs_f64(), "s");
    out.m("core.edb_io_pages", r.io_edb.total() as f64, "pages");
    out.m("core.iterations", r.iterations as f64, "count");
    out.m(
        "core.external_tuples",
        r.components.as_ref().map_or(0, |c| c.external_tuples) as f64,
        "count",
    );
    out.m("graph.table_sets", r.num_table_sets as f64, "count");
    out.m("graph.partition_pages", r.partition_pages as f64, "pages");
    let lookups = (r.pool_hits + r.pool_misses).max(1) as f64;
    out.m("storage.pool_hit_ratio", r.pool_hits as f64 / lookups, "ratio");
    drop(run);

    // core start-up: what `iolap serve` does before it listens.
    let serve_cfg = AllocConfig::builder().buffer_pages(pages(4096)).build();
    let (run, alloc_us) = t.span("core.allocate_serving", None, |_| {
        ok(allocate(&table, &policy, Algorithm::Transitive, &serve_cfg), "allocate")
    });
    let (mut medb, build_us) = t.span("core.maintain_build", None, |_| {
        ok(MaintainableEdb::build(run, policy.clone()), "maintain build")
    });
    medb.set_background_compaction(true);
    let (snap, seg_us, lat_us) = snapshot_of(&mut medb, &table, &mut t);
    out.m("core.allocate_s", alloc_us / 1e6, "s");
    out.m("core.maintain_build_s", build_us / 1e6, "s");
    out.m("core.segments_build_s", seg_us / 1e6, "s");
    out.m("core.lattice_build_s", lat_us / 1e6, "s");
    let encoded: u64 = snap.segments.iter().map(|v| v.segment.encoded_bytes()).sum();
    let entries: u64 = snap.segments.iter().map(|v| v.segment.len()).sum();
    out.m("core.edb_encoded_mb", encoded as f64 / (1024.0 * 1024.0), "MiB");
    out.m(
        "core.lattice_bytes",
        snap.lattice.as_ref().map_or(0, |l| l.encoded_bytes()) as f64,
        "bytes",
    );

    // wire: parse and render.
    let mut parse = Vec::new();
    let mut render_us = Vec::new();
    for (i, rq) in requests.iter().enumerate() {
        let (_, us) = t.span("wire.parse", Some(i), |_| parse_request(&schema, &rq.path, &rq.body));
        parse.push(us);
        let (answer, _, _) = engine(&snap, &rq.shape);
        let (_, us) = t.span("wire.render", Some(i), |_| render(&answer, snap.epoch));
        render_us.push(us);
    }
    out.m("wire.parse_us", median(&parse), "us");
    out.m("wire.render_us", median(&render_us), "us");

    // query + segment: the engine per class, untraced then traced.
    let mut answers: BTreeMap<usize, String> = BTreeMap::new();
    let mut engine_p50: BTreeMap<String, f64> = BTreeMap::new();
    let mut untraced_total = 0.0;
    let mut traced_total = 0.0;
    for class in &classes {
        let mine: Vec<usize> =
            (0..requests.len()).filter(|&i| &requests[i].class == class).collect();
        let mut timed = |t: &mut Tracer| {
            let mut lat = Vec::new();
            let mut stats = SegScanStats::default();
            let mut hits = 0;
            for _ in 0..PASSES {
                for &i in &mine {
                    let ((answer, s, h), us) = t.span(&format!("query.{class}"), Some(i), |_| {
                        engine(&snap, &requests[i].shape)
                    });
                    lat.push(us);
                    stats.pages_read += s.pages_read;
                    stats.pages_pruned += s.pages_pruned;
                    stats.bytes_read += s.bytes_read;
                    hits += h;
                    answers.insert(i, render(&answer, snap.epoch));
                }
            }
            (lat, stats, hits)
        };
        t.on = false;
        let (bare, _, _) = timed(&mut t);
        t.on = true;
        let (lat, stats, hits) = timed(&mut t);
        let n = (PASSES * mine.len()) as f64;
        untraced_total += median(&bare);
        traced_total += median(&lat);
        engine_p50.insert(class.clone(), median(&lat));
        out.m(&format!("query.{class}.engine_us"), median(&lat), "us");
        out.m(&format!("query.{class}.cuboid_hits"), hits as f64 / n, "count");
        out.m(&format!("segment.{class}.pages_read"), stats.pages_read as f64 / n, "pages");
        out.m(&format!("segment.{class}.pages_pruned"), stats.pages_pruned as f64 / n, "pages");
        out.m(&format!("segment.{class}.bytes_read"), stats.bytes_read as f64 / n, "bytes");
    }
    out.report.push(format!(
        "tracing overhead: engine p50 summed over classes {traced_total:.1} us traced vs \
         {untraced_total:.1} us untraced ({:+.2}%)",
        (traced_total - untraced_total) / untraced_total.max(1e-9) * 100.0
    ));
    let (_, scan_us) = t.span("segment.full_decode", None, |_| {
        for v in &snap.segments {
            ok(
                v.segment.for_each_entry(|e| {
                    std::hint::black_box(e);
                    Ok(())
                }),
                "decode",
            );
        }
    });
    out.m("segment.decode_ns_per_entry", scan_us * 1e3 / entries.max(1) as f64, "ns");

    // server: an in-process server over the same data, its client p50
    // against the engine's.
    let serve = ServeConfig::builder().workers(workers).cache_capacity(0).build();
    let handle = ok(
        Server::builder(table.clone(), policy.clone())
            .alloc(serve_cfg.clone())
            .config(serve)
            .bind("127.0.0.1:0"),
        "starting the server",
    );
    let node_addr = handle.addr().to_string();
    let node_p50 = client_p50(&node_addr, &requests, &classes, &mut t, "server");
    for class in &classes {
        out.m(&format!("server.{class}.overhead_us"), node_p50[class] - engine_p50[class], "us");
    }
    handle.shutdown();

    // core ingest/maintain: the update batches through the write path.
    let (mut wal, _) =
        ok(MutationWal::open_or_create(work.join("ingest.wal"), medb.io_stats()), "WAL");
    let mut parts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut affected = Vec::new();
    let mut wal_bytes = Vec::new();
    let mut compaction_ms = Vec::new();
    let mut mirror = table.clone();
    for (i, body) in batches.iter().enumerate() {
        let muts = to_mutations(&schema, body);
        t.span("ingest.batch", Some(i), |t| {
            let before = wal.appended_bytes();
            let (_, us) =
                t.span("ingest.wal_append", Some(i), |_| ok(wal.append_batch(&muts), "WAL append"));
            parts.entry("ingest.wal_append_us").or_default().push(us);
            let (_, us) = t.span("ingest.wal_sync", Some(i), |_| ok(wal.sync(), "WAL sync"));
            parts.entry("ingest.wal_sync_us").or_default().push(us);
            wal_bytes.push((wal.appended_bytes() - before) as f64);
            let (rep, us) =
                t.span("core.apply_batch", Some(i), |_| ok(medb.apply_batch(&muts), "apply_batch"));
            parts.entry("core.apply_batch_us").or_default().push(us);
            affected.push(rep.affected_tuples as f64);
            apply_mirror(&mut mirror, &muts);
            let (_, seg, lat) = snapshot_of(&mut medb, &mirror, t);
            parts.entry("core.snapshot_segments_us").or_default().push(seg);
            parts.entry("core.snapshot_lattice_us").or_default().push(lat);
            if medb.needs_compaction() {
                let (_, us) = t.span("core.compaction", Some(i), |_| {
                    if let Some(plan) = ok(medb.prepare_compaction(), "prepare compaction") {
                        let done = ok(plan.run(), "compaction");
                        ok(medb.install_compaction(done), "install compaction");
                    }
                });
                compaction_ms.push(us / 1e3);
            }
        });
    }
    for (k, v) in &parts {
        out.m(k, median(v), "us");
    }
    out.m("ingest.wal_bytes_per_batch", median(&wal_bytes), "bytes");
    out.m("core.affected_tuples", median(&affected), "count");
    out.m("core.compaction_ms", median(&compaction_ms), "ms");
    out.m("core.compactions", medb.num_compactions() as f64, "count");
    let update: f64 = [
        "ingest.wal_append_us",
        "ingest.wal_sync_us",
        "core.apply_batch_us",
        "core.snapshot_segments_us",
        "core.snapshot_lattice_us",
    ]
    .iter()
    .map(|k| median(&parts[*k]))
    .sum();
    out.report.push(format!(
        "update path (medians over {} batches): lattice sync {:.0} us of {:.0} us ({:.0}%), apply_batch {:.0} us, \
         segments {:.0} us, WAL append {:.0} us + sync {:.0} us",
        batches.len(),
        median(&parts["core.snapshot_lattice_us"]),
        update,
        median(&parts["core.snapshot_lattice_us"]) / update * 100.0,
        median(&parts["core.apply_batch_us"]),
        median(&parts["core.snapshot_segments_us"]),
        median(&parts["ingest.wal_append_us"]),
        median(&parts["ingest.wal_sync_us"]),
    ));

    // cluster: partition, two in-process shard servers and a router.
    let fleet = work.join("fleet");
    let (manifest, part_us) = t.span("cluster.partition", None, |_| {
        ok(iolap::cluster::partition_dataset(&data, &fleet, 2, &policy, &serve_cfg), "partition")
    });
    out.m("cluster.partition_s", part_us / 1e6, "s");
    let mut shards = Vec::new();
    for m in &manifest.shards {
        let dir = fleet.join(iolap::cluster::shard_dir_name(m.index));
        let (_, shard_table) = ok(iolap::model::csv::read_dataset(&dir), "shard CSVs");
        let cfg = ServeConfig::builder().workers(workers).cache_capacity(0).role("shard").build();
        shards.push(ok(
            Server::builder(shard_table, policy.clone())
                .alloc(serve_cfg.clone())
                .config(cfg)
                .bind("127.0.0.1:0"),
            "starting a shard",
        ));
    }
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let mut rb = iolap::cluster::Router::builder(&fleet)
        .config(ServeConfig::builder().workers(workers).build());
    for (i, a) in shard_addrs.iter().enumerate() {
        rb = rb.shard_replicas(i, &[a.as_str()]);
    }
    let router = ok(rb.bind("127.0.0.1:0"), "starting the router");
    let router_p50 = client_p50(&router.addr().to_string(), &requests, &classes, &mut t, "router");
    // Legs: what the router sends for each request, timed against each
    // shard. The router's own counters say how many legs a request took and
    // whether it forwarded the original body (one overlapping shard, no
    // merge) or scattered clipped parts bodies that it then merges.
    let mut conns: Vec<Http> = shard_addrs.iter().map(|a| Http::connect(a)).collect();
    let mut to_router = Http::connect(&router.addr().to_string());
    let mut merge = Vec::new();
    for class in &classes {
        let mut slowest = Vec::new();
        let mut legs = 0u64;
        let mine: Vec<usize> =
            (0..requests.len()).filter(|&i| &requests[i].class == class).collect();
        let mut forwarded = BTreeMap::new();
        for &i in &mine {
            let (scattered0, forwards0) = router_counters(&mut to_router);
            let (status, reply, _) = to_router.post(&requests[i].path, &requests[i].body);
            if status != 200 {
                die(&format!("router answered {status}: {reply}"));
            }
            let (scattered1, forwards1) = router_counters(&mut to_router);
            let (scattered, forwards) = (scattered1 - scattered0, forwards1 - forwards0);
            let region = shape_region(&requests[i].shape);
            let overlapping = manifest.shards.iter().filter(|m| m.overlaps(region)).count() as u64;
            let want = if forwards == 1 { 1 } else { scattered };
            if forwards > 1 || (forwards == 1 && scattered > 0) || overlapping != want {
                die(&format!(
                    "request {i}: the router sent {scattered} scatter legs and {forwards} \
                     forwards, which this replay cannot reproduce"
                ));
            }
            legs += scattered + forwards;
            forwarded.insert(i, forwards == 1);
        }
        for _ in 0..PASSES {
            for &i in &mine {
                let region = shape_region(&requests[i].shape);
                let mut worst = 0.0f64;
                let mut chunks: Vec<ChunkPart> = Vec::new();
                let mut rows: Vec<Vec<ChunkPart>> = Vec::new();
                for (s, m) in manifest.shards.iter().enumerate() {
                    if !m.overlaps(region) {
                        continue;
                    }
                    if forwarded[&i] {
                        let ((status, reply, us), _) =
                            t.span(&format!("cluster.{class}.leg"), Some(i), |_| {
                                conns[s].post(&requests[i].path, &requests[i].body)
                            });
                        if status != 200 {
                            die(&format!("shard leg answered {status}: {reply}"));
                        }
                        worst = us;
                        continue;
                    }
                    let b: Vec<(u32, u32)> = (0..region.k as usize)
                        .map(|d| {
                            if d == 0 {
                                (region.lo[0].max(m.lo), region.hi[0].min(m.hi))
                            } else {
                                (region.lo[d], region.hi[d])
                            }
                        })
                        .collect();
                    let (path, body) = match &requests[i].shape {
                        Shape::Query { agg, .. } => ("/query", wire::query_parts_body(&b, *agg)),
                        Shape::Rollup { dim, level, agg, .. } => {
                            let h = schema.dim(*dim);
                            (
                                "/rollup",
                                wire::rollup_parts_body(h.name(), h.level_name(*level), &b, *agg),
                            )
                        }
                    };
                    let ((status, reply, us), _) =
                        t.span(&format!("cluster.{class}.leg"), Some(i), |_| {
                            conns[s].post(path, &body)
                        });
                    if status != 200 {
                        die(&format!("shard leg answered {status}: {reply}"));
                    }
                    worst = worst.max(us);
                    if path == "/query" {
                        chunks.extend(ok(wire::parse_parts_response(&reply), "parts").0);
                    } else {
                        let got = ok(wire::parse_rollup_parts_response(&reply), "rollup parts").0;
                        if rows.is_empty() {
                            rows = got.into_iter().map(|r| r.parts).collect();
                        } else {
                            for (acc, r) in rows.iter_mut().zip(got) {
                                acc.extend(r.parts);
                            }
                        }
                    }
                }
                slowest.push(worst);
                if forwarded[&i] {
                    continue;
                }
                let (_, us) = t.span("cluster.merge", Some(i), |_| {
                    sort_parts(&mut chunks);
                    std::hint::black_box(fold_parts(&chunks));
                    for r in rows.iter_mut() {
                        sort_parts(r);
                        std::hint::black_box(fold_parts(r));
                    }
                });
                merge.push(us);
            }
        }
        out.m(&format!("cluster.{class}.legs"), legs as f64 / mine.len() as f64, "count");
        out.m(&format!("cluster.{class}.overhead_us"), router_p50[class] - median(&slowest), "us");
    }
    out.m("cluster.merge_us", median(&merge), "us");
    drop(conns);
    drop(to_router);
    router.shutdown();
    for s in shards {
        s.shutdown();
    }

    // Self time per span name, then the spans themselves.
    let selfs = t.self_times();
    let mut top: Vec<_> = selfs.iter().collect();
    top.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    out.report.push("self time by span (ms, count):".into());
    for (name, (n, ms)) in top.iter().take(12) {
        out.report.push(format!("  {name:32} {ms:10.2} ms {n:6}"));
    }
    ok(t.write(&spans_path), "writing spans");

    // Result line.
    let mut s = String::from("{\"metrics\":{");
    for (i, (name, v, unit)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", wire::fmt_f64(*v)));
    }
    s.push_str("},\"answers\":{");
    for (i, (rid, body)) in answers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{rid}\":\"{}\"", wire::escape(body)));
    }
    s.push_str(&format!("}},\"batches_applied\":{},\"report\":[", batches.len()));
    for (i, line) in out.report.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", wire::escape(line)));
    }
    s.push_str("]}");
    println!("{s}");
}

/// The router's `cluster.scatter.legs` and `cluster.forward` counters.
fn router_counters(c: &mut Http) -> (u64, u64) {
    let (status, text, _) = c.send("GET", "/metrics", "");
    if status != 200 {
        die(&format!("router /metrics answered {status}"));
    }
    let value = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| die(&format!("router /metrics has no {name}")))
    };
    (value("iolap_cluster_scatter_legs"), value("iolap_cluster_forward"))
}

/// Closed-loop client p50 per class over `PASSES` passes, one connection.
fn client_p50(
    addr: &str,
    requests: &[Request],
    classes: &[String],
    t: &mut Tracer,
    who: &str,
) -> BTreeMap<String, f64> {
    let mut c = Http::connect(addr);
    let mut lat: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..PASSES {
        for (i, rq) in requests.iter().enumerate() {
            let ((status, body, us), _) =
                t.span(&format!("{who}.{}", rq.class), Some(i), |_| c.post(&rq.path, &rq.body));
            if status != 200 {
                die(&format!("{who} answered {status}: {body}"));
            }
            lat.entry(rq.class.clone()).or_default().push(us);
        }
    }
    classes.iter().map(|k| (k.clone(), median(&lat[k]))).collect()
}

/// Keep the fact-table mirror in step with a batch, as the server does.
fn apply_mirror(table: &mut FactTable, muts: &[EdbMutation]) {
    let facts = table.facts_mut();
    for m in muts {
        match m {
            EdbMutation::UpdateMeasure { fact_id, new_measure } => {
                if let Some(f) = facts.iter_mut().find(|f| f.id == *fact_id) {
                    f.measure = *new_measure;
                }
            }
            EdbMutation::Insert(f) => facts.push(f.clone()),
            EdbMutation::Delete(id) => facts.retain(|f| f.id != *id),
        }
    }
}
