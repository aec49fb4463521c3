//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON-object form of the [trace-event format] that both
//! `chrome://tracing` and Perfetto load: a `traceEvents` array of
//! complete (`"ph":"X"`) duration events plus metadata (`"ph":"M"`)
//! events naming processes and threads. Cycle numbers are written
//! directly as microsecond timestamps, so one display "µs" equals one
//! core cycle.
//!
//! Track layout — one process per SM plus one for the shared memory
//! system; inside an SM process one thread per sub-core issue slot,
//! per sub-core stall ledger, per sub-core FEDP array and per
//! tensor-core octet, so the Fig 10/11 set/step staircase renders
//! directly as nested slices:
//!
//! | pid | tid | track |
//! |---|---|---|
//! | sm | `sc` | sub-core `sc` issue slot |
//! | sm | `40 + sc` | sub-core `sc` stalls |
//! | sm | `80 + sc` | sub-core `sc` FEDP stages |
//! | sm | `90` | L1 accesses |
//! | sm | `100 + 8*sc + octet` | tensor-core octet tracks |
//! | `1_000_000` | `0` | L2 accesses |
//! | `1_000_000` | `100 + ch` | DRAM channel `ch` |
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{CacheLevel, EventKind, TraceEvent, MEM_SM};
use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// The pid used for the shared memory system's pseudo-process.
pub const MEMORY_PID: u64 = 1_000_000;

fn complete_event(
    out: &mut Vec<String>,
    name: &str,
    cat: &str,
    track: (u64, u64),
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) {
    let mut w = JsonWriter::object();
    w.field_str("name", name);
    w.field_str("cat", cat);
    w.field_str("ph", "X");
    w.field_u64("pid", track.0);
    w.field_u64("tid", track.1);
    w.field_u64("ts", ts);
    w.field_u64("dur", dur.max(1));
    if !args.is_empty() {
        let mut a = JsonWriter::object();
        for (k, v) in args {
            a.field_u64(k, *v);
        }
        w.raw_field("args", &a.finish());
    }
    out.push(w.finish());
}

fn meta_event(out: &mut Vec<String>, what: &str, pid: u64, tid: Option<u64>, name: &str) {
    let mut w = JsonWriter::object();
    w.field_str("name", what);
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    if let Some(tid) = tid {
        w.field_u64("tid", tid);
    }
    let mut a = JsonWriter::object();
    a.field_str("name", name);
    w.raw_field("args", &a.finish());
    out.push(w.finish());
}

/// Renders `events` as a Chrome `trace_event` JSON document.
///
/// The output is a complete JSON object (`{"traceEvents":[...]}`)
/// loadable in `chrome://tracing` and Perfetto. Event order follows the
/// input, so two identical event streams serialize byte-identically.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // (pid, tid) -> thread name; pid -> process name. BTreeMaps make the
    // metadata block deterministic regardless of event order.
    let mut processes: BTreeMap<u64, String> = BTreeMap::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut body: Vec<String> = Vec::with_capacity(events.len());

    for ev in events {
        let sm_pid = ev.sm as u64;
        match ev.kind {
            EventKind::WarpIssue {
                sub_core,
                warp,
                unit,
            } => {
                let tid = sub_core as u64;
                processes
                    .entry(sm_pid)
                    .or_insert_with(|| format!("SM {}", ev.sm));
                threads
                    .entry((sm_pid, tid))
                    .or_insert_with(|| format!("sc{sub_core} issue"));
                complete_event(
                    &mut body,
                    &format!("{} w{}", unit.name(), warp),
                    "issue",
                    (sm_pid, tid),
                    ev.cycle,
                    1,
                    &[("warp", warp as u64)],
                );
            }
            EventKind::WarpRetire { sub_core, warp } => {
                let tid = sub_core as u64;
                processes
                    .entry(sm_pid)
                    .or_insert_with(|| format!("SM {}", ev.sm));
                threads
                    .entry((sm_pid, tid))
                    .or_insert_with(|| format!("sc{sub_core} issue"));
                complete_event(
                    &mut body,
                    &format!("retire w{warp}"),
                    "retire",
                    (sm_pid, tid),
                    ev.cycle,
                    1,
                    &[("warp", warp as u64)],
                );
            }
            EventKind::Stall {
                sub_core,
                warp,
                reason,
                until,
            } => {
                let tid = 40 + sub_core as u64;
                processes
                    .entry(sm_pid)
                    .or_insert_with(|| format!("SM {}", ev.sm));
                threads
                    .entry((sm_pid, tid))
                    .or_insert_with(|| format!("sc{sub_core} stall"));
                complete_event(
                    &mut body,
                    reason.name(),
                    "stall",
                    (sm_pid, tid),
                    ev.cycle,
                    until.saturating_sub(ev.cycle),
                    &[("warp", warp as u64)],
                );
            }
            EventKind::HmmaStep {
                sub_core,
                warp,
                octet,
                set,
                step,
                complete,
            } => {
                let tid = 100 + 8 * sub_core as u64 + octet as u64;
                processes
                    .entry(sm_pid)
                    .or_insert_with(|| format!("SM {}", ev.sm));
                threads
                    .entry((sm_pid, tid))
                    .or_insert_with(|| format!("sc{sub_core} octet {octet}"));
                complete_event(
                    &mut body,
                    &format!("set{set} step{step}"),
                    "hmma",
                    (sm_pid, tid),
                    ev.cycle,
                    complete.saturating_sub(ev.cycle),
                    &[
                        ("warp", warp as u64),
                        ("set", set as u64),
                        ("step", step as u64),
                    ],
                );
            }
            EventKind::FedpStage {
                sub_core,
                warp,
                set,
                step,
                stage,
            } => {
                let tid = 80 + sub_core as u64;
                processes
                    .entry(sm_pid)
                    .or_insert_with(|| format!("SM {}", ev.sm));
                threads
                    .entry((sm_pid, tid))
                    .or_insert_with(|| format!("sc{sub_core} fedp"));
                complete_event(
                    &mut body,
                    &format!("s{set}.{step} stage{stage}"),
                    "fedp",
                    (sm_pid, tid),
                    ev.cycle,
                    1,
                    &[("warp", warp as u64)],
                );
            }
            EventKind::CacheAccess { level, hit, store } => {
                let (pid, tid, pname, tname) = match level {
                    CacheLevel::L1 => (sm_pid, 90u64, format!("SM {}", ev.sm), "L1".to_string()),
                    CacheLevel::L2 => (
                        MEMORY_PID,
                        0u64,
                        "memory system".to_string(),
                        "L2".to_string(),
                    ),
                };
                processes.entry(pid).or_insert(pname);
                threads.entry((pid, tid)).or_insert(tname);
                let name = format!(
                    "{} {}{}",
                    level.name(),
                    if hit { "hit" } else { "miss" },
                    if store { " (st)" } else { "" }
                );
                let args: &[(&str, u64)] =
                    &[("sm", if ev.sm == MEM_SM { u64::MAX } else { sm_pid })];
                complete_event(&mut body, &name, "cache", (pid, tid), ev.cycle, 1, args);
            }
            EventKind::DramTxn { channel } => {
                let tid = 100 + channel as u64;
                processes
                    .entry(MEMORY_PID)
                    .or_insert_with(|| "memory system".to_string());
                threads
                    .entry((MEMORY_PID, tid))
                    .or_insert_with(|| format!("dram ch{channel}"));
                complete_event(
                    &mut body,
                    "sector",
                    "dram",
                    (MEMORY_PID, tid),
                    ev.cycle,
                    1,
                    &[],
                );
            }
        }
    }

    let mut all: Vec<String> = Vec::with_capacity(body.len() + processes.len() + threads.len());
    for (pid, name) in &processes {
        meta_event(&mut all, "process_name", *pid, None, name);
    }
    for ((pid, tid), name) in &threads {
        meta_event(&mut all, "thread_name", *pid, Some(*tid), name);
    }
    all.append(&mut body);

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"generator\":\"tcsim-trace\"}}}}",
        all.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StallReason, TraceUnit};
    use crate::json::parse;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 10,
                sm: 0,
                kind: EventKind::WarpIssue {
                    sub_core: 0,
                    warp: 1,
                    unit: TraceUnit::Tensor,
                },
            },
            TraceEvent {
                cycle: 10,
                sm: 0,
                kind: EventKind::HmmaStep {
                    sub_core: 0,
                    warp: 1,
                    octet: 2,
                    set: 1,
                    step: 0,
                    complete: 20,
                },
            },
            TraceEvent {
                cycle: 12,
                sm: 1,
                kind: EventKind::Stall {
                    sub_core: 3,
                    warp: 4,
                    reason: StallReason::Memory,
                    until: 40,
                },
            },
            TraceEvent {
                cycle: 13,
                sm: 1,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L1,
                    hit: false,
                    store: false,
                },
            },
            TraceEvent {
                cycle: 14,
                sm: MEM_SM,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L2,
                    hit: true,
                    store: true,
                },
            },
            TraceEvent {
                cycle: 15,
                sm: MEM_SM,
                kind: EventKind::DramTxn { channel: 5 },
            },
            TraceEvent {
                cycle: 16,
                sm: 0,
                kind: EventKind::WarpRetire {
                    sub_core: 0,
                    warp: 1,
                },
            },
            TraceEvent {
                cycle: 16,
                sm: 0,
                kind: EventKind::FedpStage {
                    sub_core: 0,
                    warp: 1,
                    set: 1,
                    step: 0,
                    stage: 3,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = chrome_trace(&sample_events());
        parse(&json).expect("exporter must emit parseable JSON");
    }

    #[test]
    fn tracks_and_events_present() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("process_name"));
        assert!(json.contains("SM 0"));
        assert!(json.contains("memory system"));
        assert!(json.contains("sc0 octet 2"));
        assert!(json.contains("set1 step0"));
        assert!(
            json.contains("\"name\":\"memory\""),
            "stall reason labels the slice"
        );
        assert!(json.contains("dram ch5"));
    }

    #[test]
    fn stall_duration_spans_until() {
        let json = chrome_trace(&sample_events());
        // Stall at cycle 12 until 40 → dur 28.
        assert!(json.contains("\"ts\":12,\"dur\":28"));
        // HMMA step 10 → 20.
        assert!(json.contains("\"ts\":10,\"dur\":10"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = chrome_trace(&[]);
        parse(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn identical_streams_serialize_identically() {
        let a = chrome_trace(&sample_events());
        let b = chrome_trace(&sample_events());
        assert_eq!(a, b);
    }
}
