//! Derived metrics computed from an event stream: per-interval IPC,
//! tensor-pipeline occupancy and the stall-reason breakdown.
//!
//! Everything here is integer-deterministic: two identical event streams
//! produce identical summaries, so summaries can ride inside
//! `LaunchStats` without weakening the sweep engine's byte-identical
//! determinism contract.

use crate::event::{CacheLevel, EventKind, StallReason, TraceEvent};

/// Aggregated view of one launch's event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Events in the stream (post-ring-truncation).
    pub events: u64,
    /// Events lost to ring-buffer overwrite.
    pub dropped: u64,
    /// Cycle of the earliest event.
    pub first_cycle: u64,
    /// Cycle of the latest event.
    pub last_cycle: u64,
    /// Warp instructions issued.
    pub issues: u64,
    /// Issues per functional unit (see [`crate::TraceUnit::ALL`] order).
    pub issues_by_unit: [u64; 7],
    /// Warps retired.
    pub retires: u64,
    /// Stall occurrences per reason (see [`StallReason::ALL`] order).
    pub stall_counts: [u64; 4],
    /// Cycles lost per stall reason (sum of `until − cycle`).
    pub stall_cycles: [u64; 4],
    /// HMMA set/step starts.
    pub hmma_steps: u64,
    /// Cycles during which at least one HMMA step was in flight.
    pub hmma_busy_cycles: u64,
    /// FEDP stage advances.
    pub fedp_stages: u64,
    /// L1 hits (MSHR merges included).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits (MSHR merges included).
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM sectors transferred.
    pub dram_txns: u64,
}

impl TraceSummary {
    /// Builds the summary of an event stream (`dropped` from the tracer).
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> TraceSummary {
        let mut s = TraceSummary {
            dropped,
            ..TraceSummary::default()
        };
        let mut hmma_spans: Vec<(u64, u64)> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            s.events += 1;
            if i == 0 {
                s.first_cycle = ev.cycle;
            }
            s.first_cycle = s.first_cycle.min(ev.cycle);
            s.last_cycle = s.last_cycle.max(ev.cycle);
            match ev.kind {
                EventKind::WarpIssue { unit, .. } => {
                    s.issues += 1;
                    s.issues_by_unit[unit.index()] += 1;
                }
                EventKind::WarpRetire { .. } => s.retires += 1,
                EventKind::Stall { reason, until, .. } => {
                    s.stall_counts[reason.index()] += 1;
                    s.stall_cycles[reason.index()] += until.saturating_sub(ev.cycle);
                }
                EventKind::HmmaStep { complete, .. } => {
                    s.hmma_steps += 1;
                    hmma_spans.push((ev.cycle, complete.max(ev.cycle + 1)));
                }
                EventKind::FedpStage { .. } => s.fedp_stages += 1,
                EventKind::CacheAccess { level, hit, .. } => match (level, hit) {
                    (CacheLevel::L1, true) => s.l1_hits += 1,
                    (CacheLevel::L1, false) => s.l1_misses += 1,
                    (CacheLevel::L2, true) => s.l2_hits += 1,
                    (CacheLevel::L2, false) => s.l2_misses += 1,
                },
                EventKind::DramTxn { .. } => s.dram_txns += 1,
            }
        }
        s.hmma_busy_cycles = union_length(&mut hmma_spans);
        s
    }

    /// Cycles spanned by the stream (0 for an empty stream).
    pub fn span(&self) -> u64 {
        if self.events == 0 {
            0
        } else {
            self.last_cycle - self.first_cycle + 1
        }
    }

    /// Issues per cycle over the traced span.
    pub fn ipc(&self) -> f64 {
        let span = self.span();
        if span == 0 {
            0.0
        } else {
            self.issues as f64 / span as f64
        }
    }

    /// Fraction of the traced span with at least one HMMA step in flight
    /// — the pipeline-occupancy view of Fig 13.
    pub fn hmma_occupancy(&self) -> f64 {
        let span = self.span();
        if span == 0 {
            0.0
        } else {
            self.hmma_busy_cycles as f64 / span as f64
        }
    }

    /// Cycles lost to stalls, all reasons combined.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// `(reason name, occurrences, cycles)` rows, in `StallReason::ALL`
    /// order — the stall-reason breakdown table.
    pub fn stall_table(&self) -> Vec<(&'static str, u64, u64)> {
        StallReason::ALL
            .iter()
            .map(|r| {
                (
                    r.name(),
                    self.stall_counts[r.index()],
                    self.stall_cycles[r.index()],
                )
            })
            .collect()
    }

    /// Serializes the summary as a JSON object (hand-rolled; no external
    /// crates are reachable from the build environment).
    pub fn to_json(&self) -> String {
        let arr = |v: &[u64]| {
            format!(
                "[{}]",
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        format!(
            concat!(
                "{{\"events\":{},\"dropped\":{},\"first_cycle\":{},\"last_cycle\":{},",
                "\"issues\":{},\"issues_by_unit\":{},\"retires\":{},",
                "\"stall_counts\":{},\"stall_cycles\":{},",
                "\"hmma_steps\":{},\"hmma_busy_cycles\":{},\"fedp_stages\":{},",
                "\"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},",
                "\"dram_txns\":{},\"ipc\":{:.6},\"hmma_occupancy\":{:.6}}}"
            ),
            self.events,
            self.dropped,
            self.first_cycle,
            self.last_cycle,
            self.issues,
            arr(&self.issues_by_unit),
            self.retires,
            arr(&self.stall_counts),
            arr(&self.stall_cycles),
            self.hmma_steps,
            self.hmma_busy_cycles,
            self.fedp_stages,
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.dram_txns,
            self.ipc(),
            self.hmma_occupancy(),
        )
    }
}

/// Total length of the union of half-open `(start, end)` spans.
fn union_length(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in spans.iter() {
        match cur {
            None => cur = Some((s, e)),
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Issue activity of one trace interval (see [`interval_ipc`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: u64,
    /// Warp instructions issued inside it.
    pub issues: u64,
    /// Issues per cycle over the interval width.
    pub ipc: f64,
}

/// Buckets issue events into fixed-width cycle intervals — the
/// per-interval IPC curve used to spot ramp-up, steady state and drain
/// phases of a launch.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn interval_ipc(events: &[TraceEvent], width: u64) -> Vec<Interval> {
    assert!(width > 0, "interval width must be non-zero");
    let issues: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WarpIssue { .. }))
        .map(|e| e.cycle)
        .collect();
    let Some(&max) = issues.iter().max() else {
        return Vec::new();
    };
    let buckets = (max / width + 1) as usize;
    let mut counts = vec![0u64; buckets];
    for c in issues {
        counts[(c / width) as usize] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| Interval {
            start: i as u64 * width,
            issues: n,
            ipc: n as f64 / width as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceUnit;

    fn issue(cycle: u64, unit: TraceUnit) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            kind: EventKind::WarpIssue {
                sub_core: 0,
                warp: 0,
                unit,
            },
        }
    }

    fn hmma(cycle: u64, complete: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: 0,
            kind: EventKind::HmmaStep {
                sub_core: 0,
                warp: 0,
                octet: 0,
                set: 1,
                step: 0,
                complete,
            },
        }
    }

    #[test]
    fn summary_counts_by_kind() {
        let events = vec![
            issue(0, TraceUnit::Int),
            issue(5, TraceUnit::Tensor),
            TraceEvent {
                cycle: 6,
                sm: 0,
                kind: EventKind::Stall {
                    sub_core: 0,
                    warp: 0,
                    reason: StallReason::Memory,
                    until: 16,
                },
            },
            hmma(7, 17),
            TraceEvent {
                cycle: 8,
                sm: 0,
                kind: EventKind::CacheAccess {
                    level: CacheLevel::L1,
                    hit: true,
                    store: false,
                },
            },
            TraceEvent {
                cycle: 20,
                sm: 0,
                kind: EventKind::WarpRetire {
                    sub_core: 0,
                    warp: 0,
                },
            },
        ];
        let s = TraceSummary::from_events(&events, 3);
        assert_eq!(s.events, 6);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.issues, 2);
        assert_eq!(s.issues_by_unit[TraceUnit::Tensor.index()], 1);
        assert_eq!(s.retires, 1);
        assert_eq!(s.stall_counts[StallReason::Memory.index()], 1);
        assert_eq!(s.stall_cycles[StallReason::Memory.index()], 10);
        assert_eq!(s.total_stall_cycles(), 10);
        assert_eq!(s.hmma_steps, 1);
        assert_eq!(s.hmma_busy_cycles, 10);
        assert_eq!(s.l1_hits, 1);
        assert_eq!((s.first_cycle, s.last_cycle), (0, 20));
        assert_eq!(s.span(), 21);
        assert!((s.ipc() - 2.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_merges_overlapping_steps() {
        // Two overlapping steps [10,20) and [15,25) plus [40,44).
        let events = vec![hmma(10, 20), hmma(15, 25), hmma(40, 44)];
        let s = TraceSummary::from_events(&events, 0);
        assert_eq!(s.hmma_busy_cycles, 15 + 4);
        // Span is 10..=40 → 31 cycles.
        assert!((s.hmma_occupancy() - 19.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_summary_is_default() {
        let s = TraceSummary::from_events(&[], 0);
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.span(), 0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.hmma_occupancy(), 0.0);
    }

    #[test]
    fn interval_ipc_buckets_issues() {
        let events = vec![
            issue(0, TraceUnit::Int),
            issue(1, TraceUnit::Int),
            issue(9, TraceUnit::Int),
            issue(25, TraceUnit::Int),
        ];
        let iv = interval_ipc(&events, 10);
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[0].issues, 3);
        assert_eq!(iv[1].issues, 0);
        assert_eq!(iv[2].issues, 1);
        assert_eq!(iv[2].start, 20);
        assert!((iv[0].ipc - 0.3).abs() < 1e-12);
        assert!(interval_ipc(&[], 10).is_empty());
    }

    #[test]
    fn stall_table_rows_follow_reason_order() {
        let s = TraceSummary::from_events(
            &[TraceEvent {
                cycle: 0,
                sm: 0,
                kind: EventKind::Stall {
                    sub_core: 0,
                    warp: 0,
                    reason: StallReason::Raw,
                    until: 4,
                },
            }],
            0,
        );
        let t = s.stall_table();
        assert_eq!(t[0], ("raw", 1, 4));
        assert_eq!(t[1].0, "structural");
        assert_eq!(t[3].0, "barrier");
    }

    #[test]
    fn summary_json_is_valid() {
        let s = TraceSummary::from_events(&[issue(0, TraceUnit::Sp), hmma(1, 5)], 2);
        crate::json::parse(&s.to_json()).unwrap();
        assert!(s.to_json().contains("\"hmma_steps\":1"));
    }
}
