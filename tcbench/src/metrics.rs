//! Metric names, units and their computation from measured passes.
//!
//! Every run prints the same metric set: with `--trace 0` every
//! end-to-end metric, with `--trace 1` every per-layer metric. A layer a
//! workload does not exercise reads 0 (for example `serve.*` on the GEMM
//! workloads).

use crate::replay::KernelProfile;
use crate::spans::Spans;
use crate::stats::median;
use crate::tracer::CountSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;
use tcsim_sim::LaunchStats;
use tcsim_trace::TraceUnit;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("warp_instrs_per_s", "instr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("sim.launch_s", "s"),
    ("sim.gpu_new_ms", "ms"),
    ("sim.h2d_ms", "ms"),
    ("sim.launches", "count"),
    ("sim.cycles", "cycles"),
    ("sim.warp_instrs", "count"),
    ("sm.issued.sp", "count"),
    ("sm.issued.int", "count"),
    ("sm.issued.fp64", "count"),
    ("sm.issued.mufu", "count"),
    ("sm.issued.tensor", "count"),
    ("sm.issued.mem", "count"),
    ("sm.issued.control", "count"),
    ("sm.active_cycles", "cycles"),
    ("sm.reg_bank_stalls", "cycles"),
    ("sm.stall.raw", "cycles"),
    ("sm.stall.structural", "cycles"),
    ("sm.stall.memory", "cycles"),
    ("sm.stall.barrier", "cycles"),
    ("core.hmma_steps", "count"),
    ("core.fedp_stages", "count"),
    ("core.wmma_mma_ns", "ns"),
    ("core.wmma_load_ns", "ns"),
    ("core.wmma_store_ns", "ns"),
    ("core.wmma_share", "ratio"),
    ("isa.decode_us", "us"),
    ("isa.exec_ns_per_instr", "ns"),
    ("isa.exec_share", "ratio"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_rate", "ratio"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.dram.sectors", "count"),
    ("mem.global_txns", "count"),
    ("mem.shared_conflict_passes", "count"),
    ("mem.coalesce_ns", "ns"),
    ("mem.l1_access_ns", "ns"),
    ("mem.l2_access_ns", "ns"),
    ("mem.share", "ratio"),
    ("cutlass.kernel_build_us", "us"),
    ("verify.check_us", "us"),
    ("model.estimate_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.validate_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.run_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.accept_wait_ms.p50", "ms"),
    ("serve.accept_wait_ms.p99", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.run_ms.p99", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.gen_late_ms.max", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("bench.ops_failed_frac", "ratio"),
];

/// One measured pass over a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds of each of the pass's set-ups.
    pub setup_s: Vec<f64>,
    /// Host seconds inside each `LaunchBuilder::launch`.
    pub launch_s: Vec<f64>,
    /// Simulated cycles, summed over launches.
    pub cycles: u64,
    /// Simulated warp instructions, summed over launches.
    pub instrs: u64,
    /// Each launch's statistics.
    pub stats: Vec<LaunchStats>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (launch error or output mismatch).
    pub failed: u64,
}

impl Rep {
    /// [`stats_digest`] of each launch, in launch order.
    pub fn digests(&self) -> Vec<String> {
        self.stats.iter().map(stats_digest).collect()
    }
}

/// Digest of a launch's simulated statistics. The trace summary is left
/// out: it is present only when a tracer is installed, and the digest
/// must not depend on tracing.
pub fn stats_digest(stats: &LaunchStats) -> String {
    let mut s = stats.clone();
    s.trace = None;
    tcsim_serve::fnv128_hex(s.to_json().as_bytes())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Passes a run makes: as many as `seconds` holds at the workload's
/// nominal pass time, at least one. The count depends on `--seconds`
/// only, never on how fast the code under test runs, so a faster change
/// gets no more samples (and no luckier fastest pass) than a slower one.
pub fn pass_count(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(1)
}

/// How far past `--seconds` a run may stretch before it stops starting
/// passes. Only a host (or a change) more than this much slower than the
/// nominal pass time ever reaches it; it bounds a run's length when the
/// host is heavily loaded.
const MAX_STRETCH: f64 = 2.0;

/// Indices of the passes a run makes: [`pass_count`] of them, cut short
/// once the run has taken [`MAX_STRETCH`] × `seconds` (at least one).
pub fn run_passes(seconds: f64, nominal_pass_s: f64) -> impl Iterator<Item = usize> {
    let started = Instant::now();
    (0..pass_count(seconds, nominal_pass_s))
        .take_while(move |&i| i == 0 || started.elapsed().as_secs_f64() < MAX_STRETCH * seconds)
}

/// Host seconds of each operation at its fastest pass.
///
/// The host these figures come from is a shared virtual machine on
/// which the simulator's speed swings by up to 2× for seconds to minutes
/// at a time (other tenants contending for the core's caches), which no
/// averaging inside a run removes; only slowdowns are possible, so each
/// operation's fastest pass is its steadiest estimate.
pub fn best_of(passes: &[&[f64]]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// The smallest of `values`: the fastest of several timings of one
/// operation.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host seconds of one pass with every launch at its fastest pass.
pub fn fastest_total(reps: &[Rep]) -> f64 {
    let passes: Vec<&[f64]> = reps.iter().map(|r| r.launch_s.as_slice()).collect();
    best_of(&passes).iter().sum()
}

/// The end-to-end metrics of the simulator workloads, where one job is
/// one launch: throughput over each launch's fastest pass, the median of
/// those fastest launch times, and the fastest set-up of the run.
pub fn sim_end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let passes: Vec<&[f64]> = reps.iter().map(|r| r.launch_s.as_slice()).collect();
    let best = best_of(&passes);
    let busy = fastest_total(reps);
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let mut m = BTreeMap::new();
    m.insert("sim_cycles_per_s", reps[0].cycles as f64 / busy);
    m.insert("warp_instrs_per_s", reps[0].instrs as f64 / busy);
    m.insert("setup_s", fastest(&setup));
    m.insert("jobs_per_s", best.len() as f64 / busy);
    m.insert("job_p50_ms", median(&ms));
    m
}

/// Per-layer figures of a traced run; names not set read 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets one figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The figure, or 0 when the workload does not exercise the layer.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Simulated counts of one traced pass: launch statistics plus the
    /// counting tracer's stall and tensor-core totals.
    pub fn launch_counts(&mut self, stats: &[LaunchStats], counts: &CountSnapshot) {
        let sum = |f: &dyn Fn(&LaunchStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        self.set("sim.launches", stats.len() as f64);
        self.set("sim.cycles", sum(&|s| s.cycles));
        self.set("sim.warp_instrs", sum(&|s| s.instructions));
        const ISSUED: [&str; 7] = [
            "sm.issued.sp",
            "sm.issued.int",
            "sm.issued.fp64",
            "sm.issued.mufu",
            "sm.issued.tensor",
            "sm.issued.mem",
            "sm.issued.control",
        ];
        for (i, (name, unit)) in ISSUED.iter().zip(TraceUnit::ALL).enumerate() {
            debug_assert!(name.ends_with(unit.name()));
            self.set(name, sum(&|s| s.sm.issued_by_unit[i]));
        }
        self.set("sm.active_cycles", sum(&|s| s.sm.active_cycles));
        self.set("sm.reg_bank_stalls", sum(&|s| s.sm.reg_bank_stalls));
        for (i, name) in [
            "sm.stall.raw",
            "sm.stall.structural",
            "sm.stall.memory",
            "sm.stall.barrier",
        ]
        .into_iter()
        .enumerate()
        {
            self.set(name, counts.stall_cycles[i] as f64);
        }
        self.set("core.hmma_steps", counts.hmma_steps as f64);
        self.set("core.fedp_stages", counts.fedp_stages as f64);
        let l1 = sum(&|s| s.l1.accesses());
        let l2 = sum(&|s| s.l2.accesses());
        self.set("mem.l1.accesses", l1);
        self.set("mem.l1.hit_rate", sum(&|s| s.l1.hits) / l1.max(1.0));
        self.set("mem.l2.accesses", l2);
        self.set("mem.l2.hit_rate", sum(&|s| s.l2.hits) / l2.max(1.0));
        self.set("mem.dram.sectors", sum(&|s| s.dram_sectors));
        self.set("mem.global_txns", sum(&|s| s.sm.global_txns));
        self.set(
            "mem.shared_conflict_passes",
            sum(&|s| s.sm.shared_conflict_passes),
        );
    }

    /// Per-call layer costs from the kernel profiles, and the estimated
    /// share of the untraced launch time (`launch_s` per pass) they
    /// account for. Each profile comes with its launch's CTA count and
    /// statistics. Per-call figures are weighted by calls.
    pub fn profile_shares(
        &mut self,
        profiles: &[(KernelProfile, u64, LaunchStats)],
        launch_s: f64,
    ) {
        let mut wmma_ns = [0.0f64; 3];
        let mut wmma_calls = [0.0f64; 3];
        let (mut exec_ns, mut exec_instrs) = (0.0, 0.0);
        let (mut coal_ns, mut coal_calls) = (0.0, 0.0);
        let (mut l1_ns, mut l1_calls, mut l2_ns, mut l2_calls) = (0.0, 0.0, 0.0, 0.0);
        for (p, ctas, s) in profiles {
            let ctas = *ctas as f64;
            let mut wmma_instrs = 0.0;
            for k in 0..3 {
                let calls = p.wmma_calls[k] as f64 * ctas;
                wmma_calls[k] += calls;
                wmma_ns[k] += calls * p.wmma_ns[k];
                wmma_instrs += calls;
            }
            let simt = (s.instructions as f64 - wmma_instrs).max(0.0);
            exec_instrs += simt;
            exec_ns += simt * p.exec_ns_per_instr;
            let calls = p.coalesce_calls as f64 * ctas;
            coal_calls += calls;
            coal_ns += calls * p.coalesce_ns;
            l1_calls += s.l1.accesses() as f64;
            l1_ns += s.l1.accesses() as f64 * p.l1_self_ns;
            l2_calls += s.l2.accesses() as f64;
            l2_ns += s.l2.accesses() as f64 * p.l2_ns;
        }
        let per = |ns: f64, calls: f64| if calls > 0.0 { ns / calls } else { 0.0 };
        self.set("core.wmma_load_ns", per(wmma_ns[0], wmma_calls[0]));
        self.set("core.wmma_mma_ns", per(wmma_ns[1], wmma_calls[1]));
        self.set("core.wmma_store_ns", per(wmma_ns[2], wmma_calls[2]));
        let launch_ns = launch_s * 1e9;
        self.set("core.wmma_share", wmma_ns.iter().sum::<f64>() / launch_ns);
        self.set("isa.exec_ns_per_instr", per(exec_ns, exec_instrs));
        self.set("isa.exec_share", exec_ns / launch_ns);
        self.set("mem.coalesce_ns", per(coal_ns, coal_calls));
        self.set("mem.l1_access_ns", per(l1_ns, l1_calls));
        self.set("mem.l2_access_ns", per(l2_ns, l2_calls));
        self.set("mem.share", (coal_ns + l1_ns + l2_ns) / launch_ns);
    }

    /// Host times derived from span self times: set-up costs per call,
    /// and `sim.h2d_ms` per launch set up (`setups` × `launches`).
    pub fn span_times(&mut self, spans: &Spans, setups: usize, launches: usize) {
        let st = spans.self_times();
        let mean = |name: &str| st.get(name).map_or(0.0, |t| t.mean_ns());
        self.set("sim.gpu_new_ms", mean("sim.gpu_new") * 1e-6);
        let h2d_ns = st.get("sim.h2d").map_or(0, |t| t.self_ns) as f64;
        self.set(
            "sim.h2d_ms",
            h2d_ns * 1e-6 / (setups * launches).max(1) as f64,
        );
        self.set(
            "cutlass.kernel_build_us",
            mean("cutlass.kernel_build") * 1e-3,
        );
        self.set("isa.decode_us", mean("isa.decode") * 1e-3);
        self.set("verify.check_us", mean("verify.check") * 1e-3);
        self.set("model.estimate_us", mean("model.estimate") * 1e-3);
        for (metric, span) in [
            ("serve.parse_us", "serve.parse"),
            ("serve.validate_us", "serve.validate"),
            ("serve.cache_key_us", "serve.cache_key"),
            ("serve.cache_get_us", "serve.cache_get"),
            ("serve.cache_insert_us", "serve.cache_insert"),
            ("serve.run_us", "serve.run"),
            ("serve.encode_us", "serve.encode"),
        ] {
            self.set(metric, mean(span) * 1e-3);
        }
    }

    /// `sim.launch_s` and the tracing overhead: traced against untraced
    /// launch time, each launch at its fastest pass.
    pub fn trace_overhead(&mut self, plain: &[Rep], traced: &[Rep]) {
        let (t, p) = (fastest_total(traced), fastest_total(plain));
        self.set("sim.launch_s", t);
        self.set("trace.overhead_frac", t / p - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = tcsim_serve::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| m.str_field("name").expect("metric name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("per_layer"), layers);
    }

    #[test]
    fn fastest_pass_per_launch_and_fastest_setup() {
        let rep = |setup_s: f64, launch_s: Vec<f64>| Rep {
            setup_s: vec![setup_s, 2.0 * setup_s],
            cycles: 1000,
            instrs: 500,
            launch_s,
            ..Rep::default()
        };
        let reps = [
            rep(0.1, vec![0.5, 0.25]),
            rep(0.3, vec![1.0, 1.0]),
            rep(0.2, vec![0.25, 0.75]),
        ];
        let m = sim_end_to_end(&reps);
        assert_eq!(m["sim_cycles_per_s"], 2000.0);
        assert_eq!(m["warp_instrs_per_s"], 1000.0);
        assert_eq!(m["setup_s"], 0.1);
        assert_eq!(m["jobs_per_s"], 4.0);
        assert_eq!(m["job_p50_ms"], 250.0);
        let m = sim_end_to_end(&reps[1..]);
        assert_eq!(m["job_p50_ms"], 500.0);
    }

    #[test]
    fn pass_count_depends_on_seconds_only() {
        assert_eq!(pass_count(20.0, 2.5), 8);
        assert_eq!(pass_count(20.0, 6.0), 3);
        assert_eq!(pass_count(1.0, 6.0), 1);
        assert_eq!(run_passes(20.0, 2.5).count(), 8);
        assert_eq!(run_passes(0.0, 1.0).count(), 1);
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut l = Layers::default();
        l.set("serve.hit_rate", 0.5);
        assert_eq!(l.get("serve.hit_rate"), 0.5);
        assert_eq!(l.get("core.hmma_steps"), 0.0);
    }
}
