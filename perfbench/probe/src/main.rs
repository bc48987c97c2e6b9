//! The compiled half of the repo benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! probe load   --addr HOST:PORT --plan FILE --out FILE --poll-us N
//!              --settle-timeout-s N --trace 0|1 [--spans FILE]
//! probe verify --load-out FILE --out FILE --threads N
//! probe layers --work DIR --cells FILE --out FILE --reps N [--spans FILE]
//! ```
//!
//! `load` is the open-loop generator of the `serve-open` workload, and
//! `verify` checks the stats the daemon served. `layers` times calls into
//! each layer's public functions for the traced run. All three write
//! their results as JSON to `--out`.

#![forbid(unsafe_code)]

mod layers;
mod load;
mod spans;
mod verify;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--flag value` pairs of the command line.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    pub fn opt(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.opt(name).ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num(&self, name: &str) -> Result<u64, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("--{name} needs a whole number, got `{v}`"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("load") => Args::parse(&raw[1..]).and_then(|a| load::main(&a)),
        Some("layers") => Args::parse(&raw[1..]).and_then(|a| layers::main(&a)),
        Some("verify") => Args::parse(&raw[1..]).and_then(|a| verify::main(&a)),
        _ => Err("usage: probe load|verify|layers --flag value ...".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}
