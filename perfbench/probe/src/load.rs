//! `probe load`: the open-loop generator of the `serve-open` workload.
//!
//! One sender thread submits the plan's jobs at their due times whatever
//! the daemon's state (an open loop: a slow daemon does not slow the
//! arrivals), and one poller thread reads the queue listing until each
//! admitted job is observed settled. Every time is taken from the job's
//! due time, so a stalled sender shows up as latency of the jobs behind
//! it; how late the sender ran is recorded per job.
//!
//! After the timed phase the probe checks the daemon's queue: every
//! admitted job appears exactly once and settled `done`, and coalesced
//! submissions point at the job of the same cell. It saves each job's
//! record for `probe verify`, which runs once the daemon has exited.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use subcore_persist::{Json, JsonCodec};
use subcore_serve::{http_call, JobSpec};

use crate::spans::Tracer;
use crate::Args;

/// Lead time between the probe's start and the first due time, so the
/// first job is not late because of thread start-up.
const LEAD: Duration = Duration::from_millis(50);

#[derive(Default, Clone)]
struct Op {
    due_ns: u64,
    sent_ns: u64,
    ack_ns: u64,
    status: u16,
    id: Option<u64>,
    key: u64,
    coalesced: bool,
    settle_ns: Option<u64>,
    state: &'static str,
}

fn parse_plan(text: &str) -> Result<Vec<(u64, JobSpec)>, String> {
    let mut plan = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("plan line {}: want `due_us app design sms max_cycles`", n + 1);
        if f.len() != 5 {
            return Err(bad());
        }
        let due_us: u64 = f[0].parse().map_err(|_| bad())?;
        let spec = JobSpec {
            app: f[1].to_owned(),
            design: f[2].to_owned(),
            sms: f[3].parse().map_err(|_| bad())?,
            max_cycles: f[4].parse().map_err(|_| bad())?,
        };
        plan.push((due_us, spec));
    }
    Ok(plan)
}

/// Settled jobs of the daemon's queue listing: id → `done` or `failed`.
/// One call answers for every outstanding job, so how late a settlement
/// is observed does not grow with the number in flight.
fn settled_jobs(addr: &str) -> HashMap<u64, &'static str> {
    let mut out = HashMap::new();
    let listed = http_call(addr, "GET", "/jobs", None)
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| Json::parse(&body).ok());
    let jobs = listed.as_ref().and_then(|j| j.field("jobs").ok()).and_then(|a| a.as_arr().ok());
    for job in jobs.unwrap_or_default() {
        let state = match job.field("state").ok().and_then(|v| v.as_str().ok()) {
            Some("done") => "done",
            Some("failed") => "failed",
            _ => continue,
        };
        if let Some(id) = job.field("id").ok().and_then(|v| v.as_u64().ok()) {
            out.insert(id, state);
        }
    }
    out
}

pub fn main(args: &Args) -> Result<(), String> {
    let addr = args.get("addr")?;
    let plan_path = PathBuf::from(args.get("plan")?);
    let out_path = PathBuf::from(args.get("out")?);
    let poll = Duration::from_micros(args.num("poll-us")?);
    let settle_timeout = Duration::from_secs(args.num("settle-timeout-s")?);
    let tracer = Tracer::new(args.num("trace")? == 1);

    let text = std::fs::read_to_string(&plan_path).map_err(|e| format!("read plan: {e}"))?;
    let plan = parse_plan(&text)?;
    let ops: Mutex<Vec<Op>> = Mutex::new(plan.iter().map(|_| Op::default()).collect());
    // Admitted job id → ops waiting to observe it settled.
    let outstanding: Mutex<BTreeMap<u64, Vec<usize>>> = Mutex::new(BTreeMap::new());
    let sending = AtomicBool::new(true);
    let lead_ns = u64::try_from(LEAD.as_nanos()).expect("lead fits u64");
    let start_ns = tracer.now_ns() + lead_ns;

    std::thread::scope(|s| {
        s.spawn(|| {
            let deadline = std::time::Instant::now() + settle_timeout;
            loop {
                let idle = outstanding.lock().expect("outstanding lock poisoned").is_empty();
                if idle && !sending.load(Ordering::SeqCst) {
                    break;
                }
                if std::time::Instant::now() > deadline {
                    break;
                }
                if !idle {
                    let settled = tracer.record("serve.poll", 0, 0, || settled_jobs(addr));
                    let now = tracer.now_ns();
                    let mut open = outstanding.lock().expect("outstanding lock poisoned");
                    let mut ops = ops.lock().expect("op table lock poisoned");
                    open.retain(|id, waiting| {
                        let Some(&state) = settled.get(id) else { return true };
                        for &i in waiting.iter() {
                            ops[i].settle_ns = Some(now);
                            ops[i].state = state;
                        }
                        false
                    });
                }
                std::thread::sleep(poll);
            }
        });
        for (i, (due_us, spec)) in plan.iter().enumerate() {
            let due = start_ns + due_us * 1000;
            let now = tracer.now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let body = spec.to_json().render();
            let sent_ns = tracer.now_ns();
            let reply = tracer.record("serve.submit", 0, i as u64, || {
                http_call(addr, "POST", "/submit", Some(&body))
            });
            let ack_ns = tracer.now_ns();
            let (status, accepted) = match reply {
                Ok((status, body)) => {
                    let fields = Json::parse(&body).ok().and_then(|j| {
                        let id = j.field("id").ok()?.as_u64().ok()?;
                        let key = j.field("key").ok()?.as_u64().ok()?;
                        let coalesced = j.field("coalesced").ok()?.as_bool().ok()?;
                        Some((id, key, coalesced))
                    });
                    (status, if status == 200 { fields } else { None })
                }
                Err(_) => (0, None),
            };
            {
                let mut ops = ops.lock().expect("op table lock poisoned");
                let op = &mut ops[i];
                op.due_ns = due;
                op.sent_ns = sent_ns;
                op.ack_ns = ack_ns;
                op.status = status;
                if let Some((id, key, coalesced)) = accepted {
                    op.id = Some(id);
                    op.key = key;
                    op.coalesced = coalesced;
                }
            }
            if let Some((id, _, _)) = accepted {
                outstanding
                    .lock()
                    .expect("outstanding lock poisoned")
                    .entry(id)
                    .or_default()
                    .push(i);
            }
        }
        sending.store(false, Ordering::SeqCst);
    });

    let ops = ops.into_inner().expect("op table lock poisoned");
    let (mismatches, job_records) = check_queue(addr, &ops);

    let rel = |ns: u64| Json::Num((ns.saturating_sub(start_ns)) as f64 / 1e6);
    let records: Vec<Json> = ops
        .iter()
        .map(|op| {
            Json::obj([
                ("due_ms", rel(op.due_ns)),
                ("sent_ms", rel(op.sent_ns)),
                ("ack_ms", rel(op.ack_ns)),
                ("status", Json::Uint(u64::from(op.status))),
                ("id", op.id.map_or(Json::Null, Json::Uint)),
                ("coalesced", Json::Bool(op.coalesced)),
                ("settle_ms", op.settle_ns.map_or(Json::Null, rel)),
                ("state", Json::Str(op.state.to_owned())),
            ])
        })
        .collect();
    let out = Json::obj([
        ("ops", Json::Arr(records)),
        ("mismatches", Json::Arr(mismatches.into_iter().map(Json::Str).collect())),
        ("records", Json::Arr(job_records)),
    ]);
    std::fs::write(&out_path, out.render())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    if let Some(path) = args.opt("spans") {
        tracer.write(&PathBuf::from(path)).map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(())
}

/// Checks the daemon's settled queue against what the generator saw:
/// every admitted job is listed exactly once and settled `done`, and
/// coalesced submissions point at the job of the same cell. Returns the
/// contradictions found (empty = pass) and each job's full record, whose
/// stats `probe verify` compares against in-process runs.
fn check_queue(addr: &str, ops: &[Op]) -> (Vec<String>, Vec<Json>) {
    let mut bad = Vec::new();
    // The job each cell was admitted as, from the non-coalesced accepts.
    let mut job_of_key: HashMap<u64, u64> = HashMap::new();
    for op in ops.iter().filter(|op| !op.coalesced) {
        let Some(id) = op.id else { continue };
        if job_of_key.insert(op.key, id).is_some() {
            bad.push(format!("cell {:016x} admitted as two jobs", op.key));
        }
    }
    for op in ops.iter().filter(|op| op.coalesced) {
        if op.id.is_some() && job_of_key.get(&op.key) != op.id.as_ref() {
            bad.push(format!("coalesced submit answered with job {:?}, not its cell's job", op.id));
        }
    }
    let listed = http_call(addr, "GET", "/jobs", None)
        .ok()
        .and_then(|(_, body)| Json::parse(&body).ok())
        .and_then(|j| j.field("jobs").ok().and_then(|a| a.as_arr().ok().map(<[Json]>::to_vec)));
    let Some(listed) = listed else {
        bad.push("GET /jobs gave no job list".to_owned());
        return (bad, Vec::new());
    };
    let admitted: BTreeSet<u64> = job_of_key.values().copied().collect();
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for job in &listed {
        let id = job.field("id").ok().and_then(|v| v.as_u64().ok()).unwrap_or(u64::MAX);
        *seen.entry(id).or_default() += 1;
        let state = job.field("state").ok().and_then(|v| v.as_str().ok()).unwrap_or("?");
        if state != "done" {
            bad.push(format!("job {id} ended `{state}`, not done"));
        }
    }
    for (id, n) in &seen {
        if *n != 1 {
            bad.push(format!("job {id} listed {n} times"));
        }
        if !admitted.contains(id) {
            bad.push(format!("job {id} was never admitted by this generator"));
        }
    }
    let mut records = Vec::new();
    for id in &admitted {
        if !seen.contains_key(id) {
            bad.push(format!("admitted job {id} is missing from the queue"));
            continue;
        }
        match http_call(addr, "GET", &format!("/jobs/{id}"), None) {
            Ok((200, body)) => match Json::parse(&body) {
                Ok(rec) => records.push(rec),
                Err(e) => bad.push(format!("job {id} record is not JSON: {e}")),
            },
            other => bad.push(format!("GET /jobs/{id} failed: {other:?}")),
        }
    }
    (bad, records)
}
