//! Frozen reference footprints for the SM core.
//!
//! `tests/golden/core_reference.json` holds, per workload, the verbatim
//! `LaunchStats::to_json`, the event count and an FNV-1a/128 digest of
//! the full trace event stream (each event's `Debug` rendering plus a
//! newline), and an FNV-1a/128 digest of the output bytes. The file was
//! written while the event-driven core and the original cycle-stepped
//! core both existed and agreed on every entry. The cycle-stepped core
//! has since been retired; these tests hold the remaining core to that
//! frozen reference. Nothing regenerates the file: a change that moves
//! any entry changes the timing model and must say so.
//!
//! Workloads covered here:
//! * every committed fuzzer corpus case (`tests/corpus/*.case`) — SIMT
//!   and WMMA kernels on the Volta and Turing mini configs;
//! * Fig 14a-style WMMA GEMMs (simple and shared-memory kernels) and
//!   Fig 17-style CUDA-core GEMMs (SGEMM/HGEMM) on the mini config, an
//!   INT8 WMMA GEMM on the Turing mini config, and the full Titan V
//!   configuration;
//! * the Titan V pointer chase.

use std::path::Path;
use tcsim::cutlass::{run_gemm, GemmKernel, GemmPrecision, GemmProblem};
use tcsim::sim::{Gpu, GpuConfig, LaunchBuilder, SimOptions};
use tcsim::trace::{RingTracer, TraceEvent};
use tcsim_check::corpus::case_from_text;
use tcsim_check::oracle::{gpu_config, Case};
use tcsim_serve::fnv128_hex;
use tcsim_serve::hash::Fnv128;

const GOLDEN: &str = "tests/golden/core_reference.json";

/// One run's full observable footprint.
struct Footprint {
    stats_json: String,
    events: Vec<TraceEvent>,
    output: Vec<u8>,
}

impl Footprint {
    /// This run's golden-file line.
    fn entry(&self, workload: &str) -> String {
        assert!(
            !self.events.is_empty(),
            "{workload}: a traced launch must produce events"
        );
        let mut trace = Fnv128::new();
        for e in &self.events {
            trace.update(format!("{e:?}\n").as_bytes());
        }
        format!(
            "{{\"workload\":\"{workload}\",\"events\":{},\"trace_fnv\":\"{}\",\
             \"output_fnv\":\"{}\",\"stats\":{}}}",
            self.events.len(),
            trace.hex(),
            fnv128_hex(&self.output),
            self.stats_json
        )
    }
}

fn traced_gpu(cfg: GpuConfig) -> Gpu {
    Gpu::new(SimOptions::new(cfg).tracer(RingTracer::with_capacity(1 << 20)))
}

/// Compares the computed lines of one workload group (`corpus/`,
/// `gemm/`, `chase/`) with the committed ones, in order.
fn check_group(group: &str, computed: &[String]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let text = std::fs::read_to_string(&path).expect("committed core reference");
    let prefix = format!("{{\"workload\":\"{group}");
    let golden: Vec<&str> = text
        .lines()
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with(&prefix))
        .collect();
    let mut msg = String::new();
    for i in 0..golden.len().max(computed.len()) {
        let (want, got) = (golden.get(i).copied(), computed.get(i).map(String::as_str));
        if want != got {
            msg.push_str(&format!(
                "entry {i}:\n  golden:   {}\n  computed: {}\n",
                want.unwrap_or("<none>"),
                got.unwrap_or("<none>")
            ));
        }
    }
    assert!(
        msg.is_empty(),
        "{group} entries differ from {GOLDEN}:\n{msg}"
    );
}

/// Runs a corpus case, mirroring the oracle driver.
fn run_case(case: &Case) -> Footprint {
    let mut gpu = traced_gpu(gpu_config(case.arch));
    let in_addr = gpu.alloc(u64::from(case.in_words) * 4);
    let out_addr = gpu.alloc(u64::from(case.out_words) * 4);
    gpu.memcpy_h2d(in_addr, &case.input_bytes());
    let stats = LaunchBuilder::new(case.kernel.clone())
        .grid(case.grid_x)
        .block(case.block_x)
        .param_u64(in_addr)
        .param_u64(out_addr)
        .launch(&mut gpu);
    Footprint {
        stats_json: stats.to_json(),
        events: gpu.trace_events(),
        output: gpu.memcpy_d2h(out_addr, case.out_words as usize * 4),
    }
}

#[test]
fn corpus_cases_are_core_model_invariant() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("committed corpus directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "expected the seed corpus, found {} cases",
        files.len()
    );
    let entries: Vec<String> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable case");
            let case = case_from_text(&text).expect("parsable case");
            let stem = path.file_stem().expect("case file name").to_string_lossy();
            run_case(&case).entry(&format!("corpus/{stem}"))
        })
        .collect();
    check_group("corpus/", &entries);
}

/// Runs one GEMM; the output is every device byte the run allocated
/// (operands and result).
fn run_gemm_on(cfg: &GpuConfig, size: usize, kernel: GemmKernel) -> Footprint {
    let mut gpu = traced_gpu(cfg.clone());
    let precision = match kernel {
        GemmKernel::Sgemm => GemmPrecision::Fp32,
        GemmKernel::Hgemm => GemmPrecision::Fp16,
        GemmKernel::IgemmWmma => GemmPrecision::Int8,
        _ => GemmPrecision::MixedF32,
    };
    let problem = GemmProblem {
        precision,
        ..GemmProblem::square(size)
    };
    let run = run_gemm(&mut gpu, problem, kernel, false);
    let base = Gpu::new(cfg.clone()).alloc(1);
    let end = gpu.alloc(1);
    Footprint {
        stats_json: run.stats.to_json(),
        events: gpu.trace_events(),
        output: gpu.memcpy_d2h(base, (end - base) as usize),
    }
}

#[test]
fn gemm_workloads_are_core_model_invariant() {
    // Fig 14a (WMMA cycles) and Fig 17 (CUDA-core TFLOPS) kernel families
    // at debug-friendly sizes; mini exercises both schedulers cheaply,
    // Titan V exercises the full 80-SM / sectored-L2 configuration.
    let mini = GpuConfig::mini();
    let turing = gpu_config(tcsim_check::gen::Arch::Turing);
    let titan = GpuConfig::titan_v();
    let mut runs: Vec<(&str, &GpuConfig, GemmKernel, usize)> = Vec::new();
    for kernel in [
        GemmKernel::WmmaSimple,
        GemmKernel::WmmaShared,
        GemmKernel::Sgemm,
        GemmKernel::Hgemm,
    ] {
        for size in [32usize, 64] {
            runs.push(("mini", &mini, kernel, size));
        }
    }
    // INT8 WMMA needs Turing tensor cores.
    runs.push(("mini-turing", &turing, GemmKernel::IgemmWmma, 32));
    for kernel in [GemmKernel::WmmaShared, GemmKernel::Sgemm] {
        runs.push(("titan_v", &titan, kernel, 64));
    }
    let entries: Vec<String> = runs
        .into_iter()
        .map(|(name, cfg, kernel, size)| {
            run_gemm_on(cfg, size, kernel).entry(&format!("gemm/{name}/{kernel:?}/{size}"))
        })
        .collect();
    check_group("gemm/", &entries);
}

/// The pointer-chase microbenchmark: the workload the event core skips
/// the most steps on (hundreds of blocked cycles per instruction).
fn run_chase() -> Footprint {
    use tcsim::cutlass::microbench::{chase_chain, pointer_chase};
    let elems: usize = 1 << 12;
    let warps: u64 = 20 * 256 / 32;
    let mut gpu = traced_gpu(GpuConfig::titan_v());
    let buf = gpu.alloc(elems as u64 * 8);
    let out = gpu.alloc(warps * 8);
    let chain = chase_chain(elems, 33, buf);
    let bytes: Vec<u8> = chain.iter().flat_map(|w| w.to_le_bytes()).collect();
    gpu.memcpy_h2d(buf, &bytes);
    let spread = ((33 * (elems as u64 / warps)) & (elems as u64 - 1)) as u32;
    let stats = LaunchBuilder::new(pointer_chase(96, elems, spread))
        .grid(20)
        .block(256)
        .param_u64(buf)
        .param_u64(out)
        .launch(&mut gpu);
    let output = gpu.memcpy_d2h(out, (warps * 8) as usize);
    // Every warp must have stored a final in-bounds chain pointer.
    for slot in output.chunks_exact(8) {
        let ptr = u64::from_le_bytes(slot.try_into().expect("8-byte slot"));
        assert!(ptr != 0, "warp never stored its final pointer");
    }
    Footprint {
        stats_json: stats.to_json(),
        events: gpu.trace_events(),
        output,
    }
}

#[test]
fn pointer_chase_is_core_model_invariant() {
    check_group("chase/", &[run_chase().entry("chase/titan_v")]);
}
