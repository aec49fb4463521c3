//! The benchmark's counting tracer: installed through the public
//! `Tracer` trait, it keeps only totals, shared through an `Arc` so the
//! benchmark can read them while the GPU owns the tracer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcsim_trace::{CacheLevel, EventKind, TraceEvent, Tracer};

/// Event totals since the tracer was created.
#[derive(Debug, Default)]
pub struct TraceCounts {
    /// Stall occurrences per `StallReason::index`.
    pub stall_counts: [AtomicU64; 4],
    /// Cycles warps waited per `StallReason::index` (`until − cycle`).
    pub stall_cycles: [AtomicU64; 4],
    /// HMMA set/step starts.
    pub hmma_steps: AtomicU64,
    /// FEDP stage advances.
    pub fedp_stages: AtomicU64,
    /// L2 lookups.
    pub l2_accesses: AtomicU64,
}

fn add(counter: &AtomicU64, v: u64) {
    // Statistics only: nothing else is published through these.
    counter.fetch_add(v, Ordering::Relaxed);
}

/// A plain-value copy of [`TraceCounts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountSnapshot {
    /// See [`TraceCounts::stall_counts`].
    pub stall_counts: [u64; 4],
    /// See [`TraceCounts::stall_cycles`].
    pub stall_cycles: [u64; 4],
    /// See [`TraceCounts::hmma_steps`].
    pub hmma_steps: u64,
    /// See [`TraceCounts::fedp_stages`].
    pub fedp_stages: u64,
    /// See [`TraceCounts::l2_accesses`].
    pub l2_accesses: u64,
}

impl CountSnapshot {
    /// Counts accumulated since `earlier`.
    pub fn minus(&self, earlier: &CountSnapshot) -> CountSnapshot {
        CountSnapshot {
            stall_counts: std::array::from_fn(|i| self.stall_counts[i] - earlier.stall_counts[i]),
            stall_cycles: std::array::from_fn(|i| self.stall_cycles[i] - earlier.stall_cycles[i]),
            hmma_steps: self.hmma_steps - earlier.hmma_steps,
            fedp_stages: self.fedp_stages - earlier.fedp_stages,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
        }
    }
}

/// A [`Tracer`] that counts events instead of storing them. Clones share
/// one set of counters.
#[derive(Clone, Debug, Default)]
pub struct CountingTracer {
    counts: Arc<TraceCounts>,
}

impl CountingTracer {
    /// A tracer with zeroed counters.
    pub fn new() -> CountingTracer {
        CountingTracer::default()
    }

    /// Current totals.
    pub fn snapshot_counts(&self) -> CountSnapshot {
        let c = &self.counts;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CountSnapshot {
            stall_counts: std::array::from_fn(|i| load(&c.stall_counts[i])),
            stall_cycles: std::array::from_fn(|i| load(&c.stall_cycles[i])),
            hmma_steps: load(&c.hmma_steps),
            fedp_stages: load(&c.fedp_stages),
            l2_accesses: load(&c.l2_accesses),
        }
    }
}

impl Tracer for CountingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        let c = &self.counts;
        match event.kind {
            EventKind::Stall { reason, until, .. } => {
                add(&c.stall_counts[reason.index()], 1);
                add(
                    &c.stall_cycles[reason.index()],
                    until.saturating_sub(event.cycle),
                );
            }
            EventKind::HmmaStep { .. } => add(&c.hmma_steps, 1),
            EventKind::FedpStage { .. } => add(&c.fedp_stages, 1),
            EventKind::CacheAccess {
                level: CacheLevel::L2,
                ..
            } => add(&c.l2_accesses, 1),
            EventKind::WarpIssue { .. }
            | EventKind::WarpRetire { .. }
            | EventKind::CacheAccess { .. }
            | EventKind::DramTxn { .. } => {}
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn box_clone(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_cutlass::{run_gemm, GemmKernel, GemmProblem};
    use tcsim_sim::{Gpu, GpuConfig, SimOptions};
    use tcsim_trace::{RingTracer, TraceSummary};

    #[test]
    fn counts_match_a_ring_tracer_summary() {
        let run = |options: SimOptions| {
            let mut gpu = Gpu::new(options);
            let run = run_gemm(
                &mut gpu,
                GemmProblem::square(64),
                GemmKernel::WmmaShared,
                false,
            );
            (gpu, run.stats)
        };
        let counting = CountingTracer::new();
        let (_, counted_stats) = run(SimOptions::new(GpuConfig::mini()).tracer(counting.clone()));
        let (ring_gpu, ring_stats) =
            run(SimOptions::new(GpuConfig::mini()).tracer(RingTracer::with_capacity(1 << 22)));
        let summary = TraceSummary::from_events(&ring_gpu.trace_events(), 0);
        assert_eq!(
            ring_gpu.tracer().dropped(),
            0,
            "ring must hold the whole launch"
        );

        let got = counting.snapshot_counts();
        assert!(got.hmma_steps > 0 && got.stall_counts.iter().sum::<u64>() > 0);
        assert_eq!(got.stall_counts, summary.stall_counts);
        assert_eq!(got.stall_cycles, summary.stall_cycles);
        assert_eq!(got.hmma_steps, summary.hmma_steps);
        assert_eq!(got.fedp_stages, summary.fedp_stages);
        assert_eq!(got.l2_accesses, summary.l2_hits + summary.l2_misses);
        assert_eq!(counted_stats.cycles, ring_stats.cycles);
    }

    #[test]
    fn clones_share_counters() {
        let a = CountingTracer::new();
        let mut b = a.box_clone();
        b.record(TraceEvent {
            cycle: 3,
            sm: 0,
            kind: EventKind::Stall {
                sub_core: 0,
                warp: 0,
                reason: tcsim_trace::StallReason::Memory,
                until: 10,
            },
        });
        let s = a.snapshot_counts();
        assert_eq!(s.stall_counts[2], 1);
        assert_eq!(s.stall_cycles[2], 7);
    }
}
