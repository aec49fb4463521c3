//! tcsim-serve: a persistent simulation job server.
//!
//! Reproduction context: "Modeling Deep Learning Accelerator Enabled
//! GPUs" (ISPASS 2019). Conformance campaigns and figure sweeps
//! re-simulate the same (kernel, config, input) points over and over;
//! because the simulator is deterministic (fresh [`tcsim_sim::Gpu`] per
//! job, byte-identical serial/parallel results), those points are
//! *content-addressable*. This crate turns that property into a
//! long-lived server:
//!
//! * [`job`] — the job descriptor, its FNV-1a/128 cache key over
//!   canonical content, and the execution path shared by the serial and
//!   server-side runners;
//! * [`cache`] — the in-memory + on-disk persistent result cache;
//! * [`proto`] — the line-delimited JSON TCP protocol (requests,
//!   streamed progress/completion events, counters);
//! * [`server`] — admission control, per-connection quotas, in-flight
//!   coalescing, and the dispatcher that shards misses across the
//!   [`tcsim_sim::Sweep`] worker pool;
//! * [`client`] — a blocking client used by the load generator, the CI
//!   smoke, and the end-to-end determinism gate;
//! * [`json`] — `tcsim_trace::json` re-exported: the byte-exact JSON
//!   tree (raw number text, key order preserved) that lets cached stats
//!   survive the wire verbatim;
//! * [`hash`] — the std-only FNV-1a/128 hasher behind cache keys and
//!   output digests.
//!
//! Everything is `std`-only, in keeping with the workspace rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod job;
pub mod proto;
pub mod server;

pub use cache::{CacheEntry, ResultCache};
pub use client::Client;
pub use hash::fnv128_hex;
pub use job::{ConfigId, InputSpec, JobOutcome, JobSpec};
pub use proto::{Event, Request, ServerStats};
pub use server::{ServeOptions, Server};
pub use tcsim_trace::json;

use tcsim_sim::LaunchStats;

/// Checks that a launch's JSON rendering survives a parse → re-serialize
/// round trip byte-identically, and that the tree agrees with the struct
/// on its headline counters. Returns the parsed tree on success.
///
/// This is the glue the whole serve layer stands on: the cache persists
/// `LaunchStats::to_json` output verbatim and the protocol re-parses it
/// at every hop, so any drift between writer and parser would silently
/// corrupt cached results. `to_json` is deliberately lossy (per-launch
/// WMMA samples are summarized), so the round trip is pinned at the JSON
/// tree level, not by reconstructing the struct.
pub fn verify_stats_round_trip(stats: &LaunchStats) -> Result<json::JsonValue, String> {
    let text = stats.to_json();
    let tree = json::parse(&text).map_err(|e| format!("stats JSON does not parse: {e}"))?;
    let re = tree.to_json();
    if re != text {
        return Err(format!(
            "stats JSON does not round-trip byte-identically:\n  wrote: {text}\n  round: {re}"
        ));
    }
    let re_tree = json::parse(&re).map_err(|e| format!("re-serialized stats do not parse: {e}"))?;
    if re_tree != tree {
        return Err("re-parsed stats tree differs from the original".into());
    }
    for (field, want) in [
        ("cycles", stats.cycles),
        ("instructions", stats.instructions),
    ] {
        match tree.u64_field(field) {
            Some(got) if got == want => {}
            got => {
                return Err(format!(
                    "stats JSON field `{field}` is {got:?}, struct says {want}"
                ))
            }
        }
    }
    Ok(tree)
}
