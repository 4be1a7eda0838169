#![forbid(unsafe_code)]

//! The repository's benchmark: repeated, verified join queries through
//! the public secmed API, on four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pm_join --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's spans
//! off and the engine's trace discarded; `--trace 1` is the separate
//! traced run that attributes each query's time to the repository's
//! layers (see `layers.rs`).  Every query is checked against a plaintext
//! reference.  A human-readable table goes to stderr; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed`, and
//! `metrics` (each `{"value", "unit"}`).  The exit code is non-zero on
//! any wrong result.

mod driver;
mod layers;
mod sys;
mod workloads;

use std::process::ExitCode;

use driver::Stop;
use secmed_server::Server;
use workloads::{Name, QueryOut};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One metric as printed.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Failure descriptions (at most a few, for stderr).
    errors: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one query and remembers why it failed, if it did.
    pub fn count(&mut self, error: Option<&str>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e.to_string());
            }
        }
    }

    /// Counts a failure that is not a query (a server ledger check).
    pub fn fail_check(&mut self, why: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(1);
        self.errors.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-query figures kept from the end-to-end window.
struct Sample {
    ms: Option<f64>,
    error: Option<String>,
    bytes: u64,
    client_bytes: u64,
}

fn sample(out: QueryOut, ms: Option<f64>) -> Sample {
    Sample {
        ms,
        bytes: out.bytes(),
        client_bytes: out.client_bytes(),
        error: out.error,
    }
}

/// Times `SETUP_REPS` full set-ups and keeps the last one.
fn timed_setups(name: Name, seed: u64) -> Result<(workloads::Setup, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t0 = sys::now_ns();
        last = Some(workloads::setup(name, seed, rep)?);
        secs.push(sys::ms_since(t0) / 1e3);
    }
    let setup = last.ok_or("no set-up ran")?;
    Ok((setup, sys::median(&secs)))
}

/// Checks a server's ledger once it has shut down: one `Completed` line
/// per session and an empty session table.  Returns the sessions left.
pub fn check_server(server: &Server, out: &mut Outcome) -> usize {
    let bad = server.summaries().iter().filter(|s| !s.completed()).count();
    if bad > 0 {
        out.fail_check(format!("{bad} server ledger line(s) not Completed"));
    }
    let active = server.active_sessions();
    if active != 0 {
        out.fail_check(format!("{active} session(s) left in the server table"));
    }
    active
}

fn end_to_end(name: Name, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut setup, setup_s) = timed_setups(name, seed)?;
    let window = {
        let workloads::Setup { clients, server } = &mut setup;
        driver::with_server(server.as_ref(), |addr| {
            driver::run_clients(
                clients,
                name,
                false,
                addr,
                1,
                Stop::Seconds(seconds),
                &sample,
            )
        })
    };
    let mut out = Outcome::new();
    let mut lat = Vec::new();
    let (mut bytes, mut client_bytes, mut timed_failed) = (0u64, 0u64, 0u64);
    for s in window.records.iter().flatten() {
        out.count(s.error.as_deref());
        match (s.ms, &s.error) {
            (Some(ms), None) => {
                lat.push(ms);
                bytes += s.bytes;
                client_bytes += s.client_bytes;
            }
            (Some(_), Some(_)) => timed_failed += 1,
            (None, _) => {}
        }
    }
    if let Some(server) = &setup.server {
        check_server(server, &mut out);
    }
    let wall_s = window.wall_ms() / 1e3;
    let verified = lat.len() as f64;
    let per = verified.max(1.0);
    let failed_frac = timed_failed as f64 / (verified + timed_failed as f64).max(1.0);
    out.push("query_p50_ms", sys::median(&lat), "ms");
    out.push("query_p90_ms", sys::quantile(&lat, 0.9), "ms");
    out.push("queries_per_s", verified / wall_s.max(1e-9), "1/s");
    out.push("cpu_ms_per_query", window.cpu_ns as f64 / 1e6 / per, "ms");
    out.push("bytes_per_query", bytes as f64 / per, "B");
    out.push("client_bytes_per_query", client_bytes as f64 / per, "B");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    eprintln!("measured queries: {} over {wall_s:.3} s", lat.len());
    eprintln!("{:<34} {:>16} frac", "failed_frac", failed_frac);
    Ok(out)
}

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Name::ALL.iter().map(|n| n.key()).collect();
                workload = Some(Name::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload.key(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_cpus()
    );
    let run = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &out.metrics {
        eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("failure: {e}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
