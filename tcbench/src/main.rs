//! `tcbench`: the repository's end-to-end and per-layer host-performance
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tcbench/Cargo.toml -- \
//!     --workload tensor_gemm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. One run measures one workload for about
//! `--seconds` seconds and checks every output. With `--trace 0` it
//! prints the end-to-end metrics (untraced); with `--trace 1` it installs
//! a counting tracer and times each layer's public calls from outside,
//! printing the per-layer metrics and writing its spans under
//! `.bench_out/`. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit code is non-zero when any output or simulated statistic is
//! wrong.

mod launches;
mod metrics;
mod replay;
mod serve_mix;
mod spans;
mod stats;
mod tracer;

use launches::SimWorkload;
use metrics::{peak_rss_mb, Layers, Rep, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use tcsim_serve::hash::Fnv128;
use tcsim_sim::JsonWriter;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Sim(SimWorkload),
    ServeMix,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("tensor_gemm", Workload::Sim(SimWorkload::TensorGemm)),
    ("simt_gemm", Workload::Sim(SimWorkload::SimtGemm)),
    ("mem_chase", Workload::Sim(SimWorkload::MemChase)),
    ("serve_mix", Workload::ServeMix),
];

struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|(n, _)| *n == value);
                workload = Some(*found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured, ready to print.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    digest: String,
    spans: Option<spans::Spans>,
}

/// Digest of a workload's simulated statistics: every launch digest of
/// one pass, in launch order. Repeated passes must all agree; the
/// mismatches are returned as failures.
fn fidelity(passes: &[&Rep]) -> (String, u64) {
    let first = passes[0].digests();
    let mut mismatches = 0;
    for p in &passes[1..] {
        if p.digests() != first {
            eprintln!("simulated statistics differ between passes");
            mismatches += 1;
        }
    }
    let mut h = Fnv128::new();
    for d in &first {
        h.field(d.as_bytes());
    }
    (h.hex(), mismatches)
}

fn end_to_end(values: BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "peak_rss_mb" {
                peak_rss_mb()
            } else {
                values[name]
            };
            (name, v, unit)
        })
        .collect()
}

fn per_layer(
    mut layers: Layers,
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    layers.set(
        "bench.ops_failed_frac",
        failed as f64 / attempted.max(1) as f64,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name), unit))
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let sum = |reps: &[&Rep], f: fn(&Rep) -> u64| reps.iter().map(|r| f(r)).sum::<u64>();
    match (args.workload, args.trace) {
        (Workload::Sim(w), false) => {
            let reps = launches::run_untraced(w, args.seed, args.seconds);
            let all: Vec<&Rep> = reps.iter().collect();
            let (digest, mismatches) = fidelity(&all);
            Ok(Outcome {
                metrics: end_to_end(metrics::sim_end_to_end(&reps)),
                attempted: sum(&all, |r| r.attempted),
                failed: sum(&all, |r| r.failed) + mismatches,
                digest,
                spans: None,
            })
        }
        (Workload::Sim(w), true) => {
            let (plain, traced, layers, spans) = launches::run_traced(w, args.seed, args.seconds);
            let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
            let (digest, mismatches) = fidelity(&all);
            let (attempted, failed) = (
                sum(&all, |r| r.attempted),
                sum(&all, |r| r.failed) + mismatches,
            );
            Ok(Outcome {
                metrics: per_layer(layers, attempted, failed),
                attempted,
                failed,
                digest,
                spans: Some(spans),
            })
        }
        (Workload::ServeMix, false) => {
            let passes = serve_mix::run_untraced(args.seed, args.seconds)?;
            let direct: Vec<&Rep> = passes.iter().flat_map(|p| &p.direct).collect();
            let (digest, mismatches) = fidelity(&direct);
            let attempted =
                sum(&direct, |r| r.attempted) + passes.iter().map(|p| p.attempted).sum::<u64>();
            let failed = sum(&direct, |r| r.failed)
                + passes.iter().map(|p| p.failed).sum::<u64>()
                + mismatches;
            Ok(Outcome {
                metrics: end_to_end(serve_mix::end_to_end(&passes)),
                attempted,
                failed,
                digest,
                spans: None,
            })
        }
        (Workload::ServeMix, true) => {
            let serve_mix::Traced {
                pass,
                plain,
                traced,
                layers,
                spans,
            } = serve_mix::run_traced(args.seed)?;
            let all: Vec<&Rep> = pass.direct.iter().chain(&plain).chain(&traced).collect();
            let (digest, mismatches) = fidelity(&all);
            let attempted = sum(&all, |r| r.attempted) + pass.attempted;
            let failed = sum(&all, |r| r.failed) + pass.failed + mismatches;
            Ok(Outcome {
                metrics: per_layer(layers, attempted, failed),
                attempted,
                failed,
                digest,
                spans: Some(spans),
            })
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcbench: {e}");
            eprintln!(
                "usage: tcbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tcbench: {}: {e}", args.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.name, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("tcbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "workload {} seed {} trace {}",
        args.name,
        args.seed,
        u8::from(args.trace)
    );
    if args.workload == Workload::ServeMix {
        println!("  open-loop offered rate {} jobs/s", serve_mix::OPEN_RATE);
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<28} {frac:>16.6} ratio ({} of {} operations)",
        "ops_failed_frac", out.failed, out.attempted
    );
    println!("stats_digest {} {}", args.name, out.digest);

    let mut metrics = JsonWriter::object();
    for (name, value, unit) in &out.metrics {
        let mut m = JsonWriter::object();
        m.raw_field(
            "value",
            &format!("{}", if value.is_finite() { *value } else { 0.0 }),
        );
        m.field_str("unit", unit);
        metrics.raw_field(name, &m.finish());
    }
    let mut line = JsonWriter::object();
    line.raw_field("correct", if out.failed == 0 { "true" } else { "false" });
    line.field_u64("attempted", out.attempted.max(1));
    line.field_u64("failed", out.failed);
    line.raw_field("metrics", &metrics.finish());
    println!("{}", line.finish());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
