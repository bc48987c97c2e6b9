//! `probe layers`: times calls into each layer's public functions.
//!
//! Every call is wrapped in a span (see [`crate::spans`]); a layer's
//! figure is the median span duration of its calls. The cells come from
//! the workload (its telemetry rows or its serve jobs), so `opt` and
//! `session` key costs are measured on the workload's own inputs; the
//! codec, cache, journal and queue figures use the stats of a few small
//! in-process simulations.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use subcore_engine::{GpuConfig, RunStats};
use subcore_experiments::cache::DiskCache;
use subcore_experiments::journal::Journal;
use subcore_experiments::supervisor::{supervise_map, JobTag};
use subcore_experiments::{
    estimate, suite_base, tpch_base, trace, SessionOptions, SimExecutor, SimKey, SimSession,
    SupervisorPolicy,
};
use subcore_isa::{App, Suite};
use subcore_persist::{Json, JsonCodec};
use subcore_sched::Design;
use subcore_serve::{http_call, DurableQueue, JobRecord, JobSpec, JobState, ServeOptions, Server};

use crate::spans::{median, Tracer};
use crate::Args;

/// Apps whose 2-SM runs are short; their stats feed the codec, cache,
/// journal and queue timings.
const SAMPLE_APPS: [&str; 4] = ["cutlass-512", "cutlass-conv-512", "rod-dwt", "db-conv-inf"];

fn base_for(app: &App) -> GpuConfig {
    match app.suite() {
        Suite::TpchUncompressed | Suite::TpchCompressed => tpch_base(),
        _ => suite_base(),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn main(args: &Args) -> Result<(), String> {
    let work = PathBuf::from(args.get("work")?);
    let cells_path = PathBuf::from(args.get("cells")?);
    let out_path = PathBuf::from(args.get("out")?);
    let reps = usize::try_from(args.num("reps")?).map_err(|_| "--reps too large".to_owned())?;
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let t = Tracer::new(true);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // workloads: the registry build every harness process starts with.
    let sec = t.open("layer.workloads", 0, 0);
    for i in 0..5 {
        t.record("workloads.all_apps", sec.id, i, || {
            std::hint::black_box(subcore_workloads::all_apps())
        });
    }
    t.close(sec);
    metrics
        .push(("workloads.registry_ms", median(&t.durations("workloads.all_apps")) as f64 / 1e6));

    // opt + session keys, per cell of the workload.
    let sec = t.open("layer.keys", 0, 0);
    let text = std::fs::read_to_string(&cells_path).map_err(|e| format!("read cells: {e}"))?;
    let mut cells: Vec<(GpuConfig, Design, App)> = Vec::new();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        let (Some(app), Some(design)) = (f.next(), f.next()) else { continue };
        if let (Some(app), Some(design)) = (trace::resolve_target(app), trace::parse_design(design))
        {
            cells.push((base_for(&app), design, app));
        }
    }
    if cells.is_empty() {
        return Err(format!("no resolvable cells in {}", cells_path.display()));
    }
    for (base, design, app) in &cells {
        let key = SimKey::compute(base, *design, app).as_u64();
        t.record("opt.predicted_cycles", sec.id, key, || {
            std::hint::black_box(estimate::predicted_cycles(base, *design, app))
        });
        t.record("session.key", sec.id, key, || {
            std::hint::black_box(SimKey::compute(base, *design, app))
        });
    }
    t.close(sec);
    metrics.push(("opt.predict_us", us(median(&t.durations("opt.predicted_cycles")))));
    metrics.push(("session.key_us", us(median(&t.durations("session.key")))));
    metrics.push(("layers.cells", cells.len() as f64));

    // session: fresh runs of the sample apps, then memo hits.
    let sec = t.open("layer.session", 0, 0);
    let sess = SimSession::in_memory();
    let base2 = GpuConfig::volta_v100().with_sms(2);
    let mut samples: Vec<(SimKey, &str, RunStats)> = Vec::new();
    for name in SAMPLE_APPS {
        let app =
            trace::resolve_target(name).ok_or_else(|| format!("unknown sample app {name}"))?;
        let key = SimKey::compute(&base2, Design::Baseline, &app);
        let stats = t.record("session.try_run.fresh", sec.id, key.as_u64(), || {
            sess.try_run(&base2, Design::Baseline, &app)
        });
        let stats = stats.map_err(|e| format!("sample run {name} failed: {e}"))?;
        samples.push((key, name, (*stats).clone()));
        for _ in 0..reps / SAMPLE_APPS.len() {
            let hit = t.record("session.try_run.memo", sec.id, key.as_u64(), || {
                sess.try_run(&base2, Design::Baseline, &app)
            });
            std::hint::black_box(hit).map_err(|e| format!("memo hit of {name} failed: {e}"))?;
        }
    }
    t.close(sec);
    metrics.push(("session.memo_hit_us", us(median(&t.durations("session.try_run.memo")))));

    // persist: the RunStats codec.
    let sec = t.open("layer.persist", 0, 0);
    let mut sizes = Vec::new();
    for i in 0..reps {
        let (key, _, stats) = &samples[i % samples.len()];
        let text = t.record("persist.encode", sec.id, key.as_u64(), || stats.to_json().render());
        sizes.push(text.len() as u64);
        let back = t.record("persist.decode", sec.id, key.as_u64(), || {
            Json::parse(&text).and_then(|j| RunStats::from_json(&j))
        });
        if back.as_ref().ok() != Some(stats) {
            return Err("RunStats codec round trip changed the stats".to_owned());
        }
    }
    t.close(sec);
    metrics.push(("persist.encode_us", us(median(&t.durations("persist.encode")))));
    metrics.push(("persist.decode_us", us(median(&t.durations("persist.decode")))));
    metrics.push(("persist.record_bytes", median(&sizes) as f64));

    // cache: stores then hits, one entry per rep.
    let sec = t.open("layer.cache", 0, 0);
    let cache = DiskCache::new(work.join("simcache"));
    for i in 0..reps {
        let (_, _, stats) = &samples[i % samples.len()];
        let key = SimKey::from_raw(i as u64 + 1);
        if !t.record("cache.store", sec.id, key.as_u64(), || cache.store(key, stats)) {
            return Err(format!("cache store into {} failed", cache.dir().display()));
        }
    }
    for i in 0..reps {
        let key = SimKey::from_raw(i as u64 + 1);
        let hit = t.record("cache.load", sec.id, key.as_u64(), || cache.load(key));
        if hit.as_ref() != Some(&samples[i % samples.len()].2) {
            return Err(format!("cache entry {key} did not load back"));
        }
    }
    t.close(sec);
    metrics.push(("cache.store_us", us(median(&t.durations("cache.store")))));
    metrics.push(("cache.load_us", us(median(&t.durations("cache.load")))));

    // journal: done records of a campaign.
    let sec = t.open("layer.journal", 0, 0);
    let journal = Journal::open(work.join("journal"), "perfbench");
    for i in 0..reps {
        let (_, app, stats) = &samples[i % samples.len()];
        let key = SimKey::from_raw(i as u64 + 1);
        if !t.record("journal.record_done", sec.id, key.as_u64(), || {
            journal.record_done(key, app, "baseline", stats)
        }) {
            return Err(format!("journal write under {} failed", journal.dir().display()));
        }
    }
    t.close(sec);
    metrics.push(("journal.record_us", us(median(&t.durations("journal.record_done")))));

    // supervisor: per-job cost of supervise_map over no-op jobs.
    let sec = t.open("layer.supervisor", 0, 0);
    let policy = SupervisorPolicy::default();
    let items: Vec<u64> = (0..256).collect();
    for round in 0..5 {
        let tags: Vec<JobTag> = items
            .iter()
            .map(|i| JobTag {
                app: format!("noop {i}"),
                design: String::new(),
                key: None,
                timeout: None,
            })
            .collect();
        let report = t.record("supervisor.supervise_map", sec.id, round, || {
            supervise_map(&items, tags, |i, _| Ok(*i), &policy)
        });
        if report.failed != 0 {
            return Err("no-op supervised jobs failed".to_owned());
        }
    }
    t.close(sec);
    let per_job = median(&t.durations("supervisor.supervise_map")) as f64 / items.len() as f64;
    metrics.push(("supervisor.job_overhead_us", per_job / 1e3));

    // metrics: counter, histogram and span operations with the gate on.
    let sec = t.open("layer.metrics", 0, 0);
    subcore_metrics::set_enabled(true);
    const OPS: u64 = 100_000;
    t.record("metrics.counter", sec.id, 0, || {
        for _ in 0..OPS {
            subcore_metrics::inc("perfbench.counter");
        }
    });
    t.record("metrics.histogram", sec.id, 0, || {
        for i in 0..OPS {
            subcore_metrics::observe("perfbench.histogram", std::hint::black_box(i));
        }
    });
    t.record("metrics.span", sec.id, 0, || {
        for _ in 0..OPS {
            subcore_metrics::span("perfbench.span", "op").finish();
        }
    });
    t.close(sec);
    let op_ns: u64 = ["metrics.counter", "metrics.histogram", "metrics.span"]
        .iter()
        .map(|n| median(&t.durations(n)))
        .sum();
    metrics.push(("metrics.op_ns", op_ns as f64 / (3 * OPS) as f64));
    subcore_metrics::set_enabled(false);

    // serve: durable queue writes, in-process admission, HTTP round trip.
    let sec = t.open("layer.serve", 0, 0);
    let queue = DurableQueue::new(work.join("queue"));
    for i in 0..reps {
        let (key, app, stats) = &samples[i % samples.len()];
        let mut rec = JobRecord {
            id: i as u64,
            spec: JobSpec { app: (*app).to_owned(), ..JobSpec::default() },
            key: key.as_u64(),
            predicted_cycles: 0,
            budget_ms: 0,
            state: JobState::Queued,
            attempts: 0,
            stats: None,
            error: None,
        };
        let ok_queued = t.record("serve.persist.queued", sec.id, i as u64, || queue.persist(&rec));
        rec.state = JobState::Done;
        rec.stats = Some(Box::new(stats.clone()));
        let ok_done = t.record("serve.persist.done", sec.id, i as u64, || queue.persist(&rec));
        if !(ok_queued && ok_done) {
            return Err(format!("queue write under {} failed", queue.dir().display()));
        }
    }
    let queued_us = us(median(&t.durations("serve.persist.queued")));
    let done_us = us(median(&t.durations("serve.persist.done")));
    metrics.push(("serve.persist_us", (queued_us + done_us) / 2.0));

    let executor = || Arc::new(SimExecutor::new(SessionOptions { disk_cache: None }));
    let opts = |dir: &Path| ServeOptions {
        dir: dir.to_path_buf(),
        capacity: 1 << 20,
        ..ServeOptions::default()
    };
    // Admission and the HTTP round trip cost milliseconds each, so they
    // take fewer repetitions than the microsecond layers above.
    let server = Server::open(opts(&work.join("serve-submit")), executor());
    for i in 0..reps / 4 {
        let spec = JobSpec {
            app: SAMPLE_APPS[i % SAMPLE_APPS.len()].to_owned(),
            max_cycles: JobSpec::default().max_cycles + i as u64,
            ..JobSpec::default()
        };
        let outcome = t.record("serve.server_submit", sec.id, i as u64, || server.submit(spec));
        if outcome.is_err() {
            return Err("in-process submit was refused".to_owned());
        }
    }
    metrics.push(("serve.submit_us", us(median(&t.durations("serve.server_submit")))));

    let server = Server::open(opts(&work.join("serve-http")), executor());
    let listener =
        std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
    let rtt: Result<(), String> = std::thread::scope(|s| {
        let daemon = s.spawn(|| subcore_serve::http::run(&server, listener));
        let mut result = Ok(());
        for i in 0..reps / 10 {
            let reply = t.record("serve.http_call", sec.id, i as u64, || {
                http_call(&addr, "GET", "/healthz", None)
            });
            if !matches!(reply, Ok((200, _))) {
                result = Err(format!("GET /healthz failed: {reply:?}"));
                break;
            }
        }
        let drained = http_call(&addr, "POST", "/drain", None);
        let joined = daemon.join();
        if !matches!(drained, Ok((200, _))) || !matches!(joined, Ok(Ok(()))) {
            result = result.and(Err("in-process daemon did not drain cleanly".to_owned()));
        }
        result
    });
    t.close(sec);
    rtt?;
    metrics.push(("serve.http_rtt_us", us(median(&t.durations("serve.http_call")))));

    let obj = Json::Obj(metrics.iter().map(|(k, v)| ((*k).to_owned(), Json::Num(*v))).collect());
    std::fs::write(&out_path, obj.render())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    if let Some(path) = args.opt("spans") {
        t.write(&PathBuf::from(path)).map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(())
}
