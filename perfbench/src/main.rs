//! The repository's benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <device_loop|fanout_64|gateway_2c|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--workload all` runs the three workloads one after another.
//! `BENCHMARK.json` lists only `device_loop` and `gateway_2c`:
//! `fanout_64`'s median latency moves by more than a quarter between
//! runs of the same code on a small shared host, so it is run by hand,
//! for its per-layer numbers.
//!
//! Inputs come from `--seed` only. Every op's output is checked against
//! the server's framebuffer outside the timed interval. With `--trace 0`
//! the run reports end-to-end metrics; with `--trace 1` it times every
//! other op layer by layer, from the benchmark's own calls into each
//! layer's public functions, and reports per-layer metrics, the tracing
//! overhead and a self-time table. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! All three workloads are closed loops: the next op starts when the
//! previous one's result is visible, as for a person at a panel.
//!
//! | workload      | loads                                        | bypasses                 |
//! |---------------|----------------------------------------------|--------------------------|
//! | `device_loop` | output adaptation (about 80% of an op), server encode, codec, input plug-ins | fan-out, sockets |
//! | `fanout_64`   | per-viewer server encode (about 90%), proxy decode, codec | adaptation, sockets |
//! | `gateway_2c`  | TCP framing, gateway reader/state/writer threads and queues, encode at fan-out 2 | adaptation |
//!
//! Which end-to-end metric each layer should move:
//!
//! - `devices.adapt_us.*`, `devices.adapt_useful_ratio`: latency and
//!   `ops_per_s` on `device_loop`; nothing on the other two.
//! - `server.pump_us` and the `server.*` counts: latency and `ops_per_s`
//!   on `fanout_64` (most of an op) and `gateway_2c`, a little on
//!   `device_loop`; also `setup_s` and `wire_bytes_per_op`.
//!   `server.encode_unique_ratio` bounds what sharing encodes across
//!   viewers could save on `fanout_64`; it is 1 on `device_loop`.
//! - `proxy.handle_server_us`: latency on `fanout_64` (64 decodes per
//!   click) and `gateway_2c`.
//! - `protocol.*`: a small share on every workload.
//! - `gateway.*`: `latency_ms_p99`, `ops_per_s` and `peak_rss_mb` on
//!   `gateway_2c` only.
//! - `wsys.render_us`, `apps.process_us`, `devices.translate_us`,
//!   `server.handle_message_us`: each about 2% or less of a
//!   `device_loop` op; no end-to-end change expected.
//!
//! `raster` has no public boundary of its own on these paths; it shows in
//! `devices.adapt_us.*` and `server.pump_us`.

mod common;
mod device_loop;
mod fanout;
mod gateway;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use common::{Outcome, Settings, END_TO_END, PER_LAYER, REPORTED};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["device_loop", "fanout_64", "gateway_2c"];

const USAGE: &str = "usage: uniint-perfbench --workload <device_loop|fanout_64|gateway_2c|all> \
                     --seed N --seconds S --trace <0|1>";

fn parse() -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Settings {
            seed: seed.unwrap_or(1),
            window: Duration::from_secs(seconds),
            trace: trace.unwrap_or(false),
        },
    ))
}

/// Lines of Rust per crate, informational: `crates/*` plus the root
/// facade (its `src`, `tests` and `examples`).
fn lines_per_crate(root: &Path) -> BTreeMap<String, usize> {
    fn count(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    count(&p)
                } else if p.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&p)
                        .map(|s| s.lines().count())
                        .unwrap_or(0)
                } else {
                    0
                }
            })
            .sum()
    }
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            out.insert(
                e.file_name().to_string_lossy().into_owned(),
                count(&e.path()),
            );
        }
    }
    let facade: usize = ["src", "tests", "examples"]
        .iter()
        .map(|d| count(&root.join(d)))
        .sum();
    out.insert("uniint (root)".into(), facade);
    out
}

/// Runs every workload in turn, each in a fresh process so set-up and
/// `peak_rss_mb` stay per workload, and exits with the first failure.
fn run_all(settings: &Settings) -> ! {
    let exe = std::env::current_exe().expect("own executable path");
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &settings.seed.to_string()])
            .args(["--seconds", &settings.window.as_secs().to_string()])
            .args(["--trace", if settings.trace { "1" } else { "0" }])
            .status()
            .expect("workload process starts");
        if !status.success() {
            std::process::exit(status.code().unwrap_or(1));
        }
    }
    std::process::exit(0);
}

fn main() {
    let (workload, settings) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if workload == "all" {
        run_all(&settings);
    }
    let run: fn(Settings) -> Outcome = match workload.as_str() {
        "device_loop" => device_loop::run,
        "fanout_64" => fanout::run,
        "gateway_2c" => gateway::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {workload}, seed {}, {} s, trace {}, {} hardware threads",
        settings.seed,
        settings.window.as_secs(),
        u8::from(settings.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = run(settings);
    out.e2e.insert("peak_rss_mb", common::peak_rss_mb());

    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("end-to-end:");
    for (name, unit) in REPORTED {
        println!(
            "  {name:<20} {:>14.4} {unit}",
            out.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "  {:<20} {failed_ratio:>14.4} ({} failed / {} attempted)",
        "failed_ratio", out.failed, out.attempted
    );
    println!("lines of Rust per crate (informational):");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for (krate, lines) in lines_per_crate(&root) {
        println!("  {krate:<16} {lines:>7}");
    }

    let (table, source) = if settings.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = source
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
