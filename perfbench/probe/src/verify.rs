//! `probe verify`: each `done` job's stats, as the daemon served them,
//! must equal an in-process `SimSession::try_run` of the same spec.
//! Runs after the daemon has exited, so it adds nothing to the daemon's
//! timed wall.

use std::path::PathBuf;
use std::sync::Mutex;

use subcore_engine::GpuConfig;
use subcore_experiments::{trace, SimSession};
use subcore_persist::{Json, JsonCodec};
use subcore_serve::JobRecord;

use crate::Args;

fn check(rec: &JobRecord, sess: &SimSession) -> Result<(), String> {
    let (id, spec) = (rec.id, &rec.spec);
    let served = rec.stats.as_deref().ok_or_else(|| format!("job {id} settled without stats"))?;
    let app =
        trace::resolve_target(&spec.app).ok_or_else(|| format!("unknown app {}", spec.app))?;
    let design = trace::parse_design(&spec.design)
        .ok_or_else(|| format!("unknown design {}", spec.design))?;
    let base = GpuConfig::volta_v100().with_sms(spec.sms).with_max_cycles(spec.max_cycles);
    let reference = sess
        .try_run(&base, design, &app)
        .map_err(|e| format!("reference run of job {id} failed: {e}"))?;
    if *served != *reference {
        return Err(format!(
            "job {id} ({}/{}) stats differ from the in-process run",
            spec.app, spec.design
        ));
    }
    Ok(())
}

pub fn main(args: &Args) -> Result<(), String> {
    let load_out = PathBuf::from(args.get("load-out")?);
    let out_path = PathBuf::from(args.get("out")?);
    let threads = usize::try_from(args.num("threads")?).map_err(|_| "--threads too large")?.max(1);
    let text = std::fs::read_to_string(&load_out)
        .map_err(|e| format!("read {}: {e}", load_out.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", load_out.display()))?;
    let mut bad = Vec::new();
    let mut records = Vec::new();
    for rec in json.field("records").and_then(Json::as_arr).map_err(|e| e.to_string())? {
        match JobRecord::from_json(rec) {
            Ok(rec) => records.push(rec),
            Err(e) => bad.push(format!("a served job record does not decode: {e}")),
        }
    }
    let sess = SimSession::in_memory();
    let found: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for part in records.chunks(records.len().div_ceil(threads).max(1)) {
            let (sess, found) = (&sess, &found);
            s.spawn(move || {
                for rec in part {
                    if let Err(e) = check(rec, sess) {
                        found.lock().expect("mismatch list lock poisoned").push(e);
                    }
                }
            });
        }
    });
    bad.extend(found.into_inner().expect("mismatch list lock poisoned"));
    let out = Json::obj([
        ("checked", Json::Uint(records.len() as u64)),
        ("mismatches", Json::Arr(bad.into_iter().map(Json::Str).collect())),
    ]);
    std::fs::write(&out_path, out.render())
        .map_err(|e| format!("write {}: {e}", out_path.display()))
}
