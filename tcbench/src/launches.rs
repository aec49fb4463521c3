//! The three simulator workloads — `tensor_gemm`, `simt_gemm` and
//! `mem_chase` — built from seeded operands through `LaunchBuilder`,
//! launched on one thread, and checked against host references.

use crate::metrics::{fastest_total, run_passes, Layers, Rep};
use crate::replay::kernel_layers;
use crate::spans::Spans;
use crate::tracer::CountingTracer;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tcsim_check::rng::XorShift64Star;
use tcsim_cutlass::microbench::{chase_chain, pointer_chase};
use tcsim_cutlass::{
    cutlass_gemm, f16_matrix_bytes, f32_matrix_bytes, hgemm, i32_matrix_bytes, i8_matrix_bytes,
    igemm_wmma, reference_gemm, sgemm, verify, wmma_shared_gemm, wmma_simple_gemm, CutlassConfig,
    GemmKernel, GemmPrecision, GemmProblem,
};
use tcsim_f16::F16;
use tcsim_isa::{Dim3, Kernel};
use tcsim_sim::{Gpu, GpuConfig, LaunchBuilder, SimOptions};

/// Chase launch shape: 8 CTAs of 8 warps, every warp chasing the chain
/// from its own entry point with one lane.
const CHASE_GRID: u32 = 8;
const CHASE_BLOCK: u32 = 256;
const CHASE_HOPS: u32 = 480;
/// Set-ups timed per pass; the pass launches on the last one.
const SETUPS_PER_PASS: usize = 2;

/// One of the simulator-bound workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    /// Titan V WMMA and CUTLASS GEMMs plus one Turing INT8 IGEMM.
    TensorGemm,
    /// FFMA SGEMM and HFMA2 HGEMM, no tensor ops.
    SimtGemm,
    /// Latency-bound pointer chase over L1-, L2- and DRAM-sized chains.
    MemChase,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arch {
    TitanV,
    Rtx2080,
}

impl Arch {
    fn config(self) -> GpuConfig {
        match self {
            Arch::TitanV => GpuConfig::titan_v(),
            Arch::Rtx2080 => GpuConfig::rtx_2080(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

enum Plan {
    Gemm {
        label: &'static str,
        arch: Arch,
        problem: GemmProblem,
        kernel: GemmKernel,
    },
    Chase {
        label: &'static str,
        kib: usize,
    },
}

fn square(size: usize, precision: GemmPrecision) -> GemmProblem {
    GemmProblem {
        precision,
        ..GemmProblem::square(size)
    }
}

/// Host seconds of one pass (set-ups plus launches) at the baseline
/// commit on a 2-vCPU Xeon virtual machine; fixes how many passes a run
/// of `--seconds` makes.
fn nominal_pass_s(w: SimWorkload) -> f64 {
    match w {
        SimWorkload::TensorGemm => 0.17,
        SimWorkload::SimtGemm => 0.12,
        SimWorkload::MemChase => 0.3,
    }
}

fn plans(w: SimWorkload) -> Vec<Plan> {
    use GemmPrecision::{Fp16, Fp32, Int8, MixedF32};
    let gemm = |label, arch, problem, kernel| Plan::Gemm {
        label,
        arch,
        problem,
        kernel,
    };
    let cutlass = GemmKernel::Cutlass(CutlassConfig::default_64x64());
    match w {
        SimWorkload::TensorGemm => vec![
            gemm(
                "wmma_shared_64",
                Arch::TitanV,
                square(64, MixedF32),
                GemmKernel::WmmaShared,
            ),
            gemm(
                "wmma_shared_128",
                Arch::TitanV,
                square(128, MixedF32),
                GemmKernel::WmmaShared,
            ),
            gemm(
                "cutlass_64x64_64",
                Arch::TitanV,
                square(64, MixedF32),
                cutlass,
            ),
            gemm(
                "cutlass_64x64_128",
                Arch::TitanV,
                square(128, MixedF32),
                cutlass,
            ),
            gemm(
                "wmma_global_128",
                Arch::TitanV,
                square(128, MixedF32),
                GemmKernel::WmmaSimple,
            ),
            gemm(
                "igemm_turing_128",
                Arch::Rtx2080,
                square(128, Int8),
                GemmKernel::IgemmWmma,
            ),
        ],
        SimWorkload::SimtGemm => vec![
            gemm(
                "sgemm_48",
                Arch::TitanV,
                square(48, Fp32),
                GemmKernel::Sgemm,
            ),
            gemm(
                "sgemm_64",
                Arch::TitanV,
                square(64, Fp32),
                GemmKernel::Sgemm,
            ),
            gemm(
                "hgemm_32",
                Arch::TitanV,
                square(32, Fp16),
                GemmKernel::Hgemm,
            ),
            gemm(
                "hgemm_64",
                Arch::TitanV,
                square(64, Fp16),
                GemmKernel::Hgemm,
            ),
        ],
        SimWorkload::MemChase => vec![
            Plan::Chase {
                label: "chase_l1_16k",
                kib: 16,
            },
            Plan::Chase {
                label: "chase_l2_256k",
                kib: 256,
            },
            Plan::Chase {
                label: "chase_dram_8m",
                kib: 8 * 1024,
            },
        ],
    }
}

/// Operand seeds of a GEMM problem: drawn from the workload seed and the
/// problem shape, so equal problems share operands (and references).
fn gemm_seeds(seed: u64, p: &GemmProblem) -> [u32; 3] {
    let shape = ((p.m as u64) << 40) ^ ((p.n as u64) << 20) ^ p.k as u64;
    let mut rng = XorShift64Star::new(seed ^ shape ^ ((p.precision as u64) << 60));
    [rng.next_u32(), rng.next_u32(), rng.next_u32()]
}

/// Chase stride in 8-byte elements: odd, so one cycle covers the
/// power-of-two chain, and longer than a 128-byte line.
const CHASE_STRIDE: usize = 33;
/// Lines of slack allocated before each chain for its seeded placement.
const CHASE_SLACK_LINES: u64 = 64;

/// Where the chain starts, in bytes past its allocation: a whole number
/// of 128-byte lines, distinct for [`CHASE_SLACK_LINES`] consecutive
/// seeds, which moves every warp's entry address (and so the sets and
/// memory partitions the chase walks through). The simulated cycles
/// change slightly with it.
fn chase_offset(seed: u64) -> u64 {
    128 * (seed % CHASE_SLACK_LINES)
}

fn gemm_kernel(kernel: GemmKernel, p: &GemmProblem) -> (Kernel, Dim3, Dim3) {
    let (m, n) = (p.m as u32, p.n as u32);
    let fp16_out = p.precision == GemmPrecision::Fp16;
    let d = |x: u32, y: u32| Dim3 { x, y, z: 1 };
    match kernel {
        GemmKernel::WmmaSimple => (wmma_simple_gemm(fp16_out), d(n / 16, m / 16), d(32, 1)),
        GemmKernel::WmmaShared => (wmma_shared_gemm(fp16_out), d(n / 32, m / 32), d(128, 1)),
        GemmKernel::Cutlass(cfg) => (
            cutlass_gemm(cfg),
            d(n / cfg.cta_n as u32, m / cfg.cta_m as u32),
            d(cfg.threads() as u32, 1),
        ),
        GemmKernel::Sgemm => (sgemm(), d(n / 16, m / 16), d(16, 16)),
        GemmKernel::Hgemm => (hgemm(), d(n / 32, m / 16), d(16, 16)),
        GemmKernel::IgemmWmma => (igemm_wmma(), d(n / 16, m / 16), d(32, 1)),
    }
}

fn operand_bytes(p: &GemmProblem, s: [u32; 3]) -> [Vec<u8>; 3] {
    let (m, n, k) = (p.m, p.n, p.k);
    match p.precision {
        GemmPrecision::Fp32 => [
            f32_matrix_bytes(s[0], m, k),
            f32_matrix_bytes(s[1], k, n),
            f32_matrix_bytes(s[2], m, n),
        ],
        GemmPrecision::Int8 => [
            i8_matrix_bytes(s[0], m, k),
            i8_matrix_bytes(s[1], k, n),
            i32_matrix_bytes(s[2], m, n),
        ],
        GemmPrecision::Fp16 => [
            f16_matrix_bytes(s[0], m, k),
            f16_matrix_bytes(s[1], k, n),
            f16_matrix_bytes(s[2], m, n),
        ],
        GemmPrecision::MixedF32 => [
            f16_matrix_bytes(s[0], m, k),
            f16_matrix_bytes(s[1], k, n),
            f32_matrix_bytes(s[2], m, n),
        ],
    }
}

fn out_elem_bytes(p: &GemmProblem) -> usize {
    if p.precision == GemmPrecision::Fp16 {
        2
    } else {
        4
    }
}

enum Check {
    Gemm {
        problem: GemmProblem,
        seeds: [u32; 3],
        out: u64,
    },
    Chase {
        buf: u64,
        out: u64,
        spread: u64,
        chain: Vec<u64>,
    },
}

struct Prepared {
    label: &'static str,
    arch: Arch,
    builder: LaunchBuilder,
    check: Check,
}

/// One set-up instance of a workload: its GPUs and ready launches.
struct Rig {
    gpus: [Option<Gpu>; 2],
    launches: Vec<Prepared>,
}

impl Rig {
    fn gpu(&mut self, arch: Arch) -> &mut Gpu {
        self.gpus[arch.index()]
            .as_mut()
            .expect("gpu built in setup")
    }
}

/// Host references, keyed by problem and operand seeds; computed once per
/// run, outside every timed region.
type Refs = HashMap<String, Vec<f32>>;

fn ref_key(p: &GemmProblem, s: [u32; 3]) -> String {
    format!("{p:?}{s:?}")
}

fn references(plans: &[Plan], seed: u64) -> Refs {
    let mut refs = Refs::new();
    for plan in plans {
        if let Plan::Gemm { problem, .. } = plan {
            let s = gemm_seeds(seed, problem);
            refs.entry(ref_key(problem, s))
                .or_insert_with(|| reference_gemm(problem, s[0], s[1], s[2]));
        }
    }
    refs
}

/// Builds every GPU, kernel and operand of the workload and copies the
/// operands in: the part of a run `setup_s` measures.
fn setup(plans: &[Plan], seed: u64, tracer: Option<&CountingTracer>, spans: &mut Spans) -> Rig {
    let mut rig = Rig {
        gpus: [None, None],
        launches: Vec::new(),
    };
    for (op, plan) in plans.iter().enumerate() {
        let op = op as u64;
        let arch = match plan {
            Plan::Gemm { arch, .. } => *arch,
            Plan::Chase { .. } => Arch::TitanV,
        };
        if rig.gpus[arch.index()].is_none() {
            let mut options = SimOptions::new(arch.config());
            if let Some(t) = tracer {
                options = options.tracer(t.clone());
            }
            let gpu = spans.time("sim.gpu_new", op, || Gpu::new(options));
            rig.gpus[arch.index()] = Some(gpu);
        }
        let prepared = match plan {
            Plan::Gemm {
                label,
                problem,
                kernel,
                ..
            } => {
                let seeds = gemm_seeds(seed, problem);
                let (kernel, grid, block) =
                    spans.time("cutlass.kernel_build", op, || gemm_kernel(*kernel, problem));
                let [a, b, c] = spans.time("bench.operands", op, || operand_bytes(problem, seeds));
                let d_len = (problem.m * problem.n * out_elem_bytes(problem)) as u64;
                let gpu = rig.gpu(arch);
                let [pa, pb, pc, pd] = spans.time("sim.h2d", op, || {
                    let addrs = [
                        gpu.alloc(a.len() as u64),
                        gpu.alloc(b.len() as u64),
                        gpu.alloc(c.len() as u64),
                        gpu.alloc(d_len),
                    ];
                    gpu.memcpy_h2d(addrs[0], &a);
                    gpu.memcpy_h2d(addrs[1], &b);
                    gpu.memcpy_h2d(addrs[2], &c);
                    addrs
                });
                let builder = LaunchBuilder::new(kernel)
                    .grid(grid)
                    .block(block)
                    .param_u64(pa)
                    .param_u64(pb)
                    .param_u64(pc)
                    .param_u64(pd)
                    .param_u32(problem.n as u32)
                    .param_u32(problem.k as u32);
                Prepared {
                    label,
                    arch,
                    builder,
                    check: Check::Gemm {
                        problem: *problem,
                        seeds,
                        out: pd,
                    },
                }
            }
            Plan::Chase { label, kib } => {
                let elems = kib * 1024 / 8;
                let stride = CHASE_STRIDE as u64;
                let warps = (CHASE_GRID * CHASE_BLOCK / 32) as u64;
                // Entry points evenly spaced along the chase cycle.
                let spread = (stride * (elems as u64 / warps)).max(stride) & (elems as u64 - 1);
                let kernel = spans.time("cutlass.kernel_build", op, || {
                    pointer_chase(CHASE_HOPS, elems, spread as u32)
                });
                let gpu = rig.gpu(arch);
                let (buf, out) = spans.time("sim.h2d", op, || {
                    let region = gpu.alloc(elems as u64 * 8 + 128 * CHASE_SLACK_LINES);
                    (region + chase_offset(seed), gpu.alloc(warps * 8))
                });
                let (chain, bytes) = spans.time("bench.operands", op, || {
                    let chain = chase_chain(elems, CHASE_STRIDE, buf);
                    let bytes: Vec<u8> = chain.iter().flat_map(|w| w.to_le_bytes()).collect();
                    (chain, bytes)
                });
                spans.time("sim.h2d", op, || gpu.memcpy_h2d(buf, &bytes));
                let builder = LaunchBuilder::new(kernel)
                    .grid(CHASE_GRID)
                    .block(CHASE_BLOCK)
                    .param_u64(buf)
                    .param_u64(out);
                Prepared {
                    label,
                    arch,
                    builder,
                    check: Check::Chase {
                        buf,
                        out,
                        spread,
                        chain,
                    },
                }
            }
        };
        rig.launches.push(prepared);
    }
    rig
}

/// Compares one launch's output with its host reference.
fn check_output(gpu: &Gpu, check: &Check, refs: &Refs) -> Result<(), String> {
    match check {
        Check::Gemm {
            problem,
            seeds,
            out,
        } => {
            let p = problem;
            let raw = gpu.memcpy_d2h(*out, p.m * p.n * out_elem_bytes(p));
            let got: Vec<f32> = match p.precision {
                GemmPrecision::Fp16 => raw
                    .chunks_exact(2)
                    .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])).to_f32())
                    .collect(),
                GemmPrecision::Int8 => raw
                    .chunks_exact(4)
                    .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f32)
                    .collect(),
                _ => raw
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            };
            let reference = &refs[&ref_key(p, *seeds)];
            catch_unwind(AssertUnwindSafe(|| verify(p, &got, reference)))
                .map(|_| ())
                .map_err(|_| "GEMM output differs from the host reference".to_string())
        }
        Check::Chase {
            buf,
            out,
            spread,
            chain,
        } => {
            let elems = chain.len() as u64;
            let warps = (CHASE_GRID * CHASE_BLOCK / 32) as usize;
            let raw = gpu.memcpy_d2h(*out, warps * 8);
            for (gw, word) in raw.chunks_exact(8).enumerate() {
                let mut ptr = buf + 8 * ((gw as u64 * spread) & (elems - 1));
                for _ in 0..CHASE_HOPS {
                    ptr = chain[((ptr - buf) / 8) as usize];
                }
                let got = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                if got != ptr {
                    return Err(format!(
                        "warp {gw} ended at {got:#x}, host walk at {ptr:#x}"
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Sets up the workload [`SETUPS_PER_PASS`] times, then launches every
/// prepared kernel of the last set-up once, checking each output.
/// Launches are timed as spans named `span`.
fn run_rep(
    plans: &[Plan],
    seed: u64,
    refs: &Refs,
    tracer: Option<&CountingTracer>,
    spans: &mut Spans,
    span: &'static str,
) -> (Rep, Rig) {
    let mut rep = Rep::default();
    let mut rig = None;
    for _ in 0..SETUPS_PER_PASS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(setup(plans, seed, tracer, spans));
        rep.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    for i in 0..rig.launches.len() {
        let (arch, builder) = (rig.launches[i].arch, rig.launches[i].builder.clone());
        let gpu = rig.gpu(arch);
        let id = spans.enter(span, i as u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| builder.launch(gpu)));
        let secs = spans.exit(id);
        rep.attempted += 1;
        match outcome {
            Ok(stats) => {
                let gpu = rig.gpus[arch.index()].as_ref().expect("gpu built in setup");
                let checked = check_output(gpu, &rig.launches[i].check, refs);
                if let Err(e) = checked {
                    eprintln!("{}: {e}", rig.launches[i].label);
                    rep.failed += 1;
                }
                rep.launch_s.push(secs);
                rep.cycles += stats.cycles;
                rep.instrs += stats.instructions;
                rep.stats.push(stats);
            }
            Err(_) => {
                eprintln!("{}: launch failed", rig.launches[i].label);
                rep.failed += 1;
            }
        }
    }
    (rep, rig)
}

/// The untraced run: a fixed number of set-up-and-launch passes (see
/// [`run_passes`]).
pub fn run_untraced(w: SimWorkload, seed: u64, seconds: f64) -> Vec<Rep> {
    let plans = plans(w);
    let refs = references(&plans, seed);
    let mut spans = Spans::new();
    run_passes(seconds, nominal_pass_s(w))
        .map(|i| {
            let rep = run_rep(&plans, seed, &refs, None, &mut spans, "sim.launch").0;
            eprintln!(
                "pass {i}: set-up {:.4?} s, launches {:.4?} s",
                rep.setup_s, rep.launch_s
            );
            rep
        })
        .collect()
}

/// The traced run: alternating untraced and traced passes, as many pairs
/// as `seconds` holds (at least one), then the per-call layer
/// measurements on the last traced pass's launches. Returns the untraced
/// passes, the traced passes and the per-layer figures.
pub fn run_traced(w: SimWorkload, seed: u64, seconds: f64) -> (Vec<Rep>, Vec<Rep>, Layers, Spans) {
    let plans = plans(w);
    let refs = references(&plans, seed);
    let mut spans = Spans::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let tracer = CountingTracer::new();
    let mut last = None;
    for _ in run_passes(seconds / 2.0, nominal_pass_s(w)) {
        plain.push(run_rep(&plans, seed, &refs, None, &mut spans, "sim.launch.untraced").0);
        let before = tracer.snapshot_counts();
        let (rep, rig) = run_rep(&plans, seed, &refs, Some(&tracer), &mut spans, "sim.launch");
        traced.push(rep);
        last = Some((rig, before));
    }
    let (mut rig, before) = last.expect("at least one traced pass");
    let counts = tracer.snapshot_counts().minus(&before);

    let rep = traced.last().expect("traced pass");
    let mut layers = Layers::default();
    layers.launch_counts(&rep.stats, &counts);

    // Per-kernel static and functional costs, timed on each launch's own
    // kernel, geometry and operands.
    let mut profiles = Vec::new();
    for i in 0..rig.launches.len() {
        let op = i as u64;
        let arch = rig.launches[i].arch;
        let cfg = arch.config();
        let (kernel, launch, params) = rig.launches[i].builder.clone().into_parts();
        let device = rig.gpu(arch).device_mut();
        let profile = kernel_layers(
            &kernel, &launch, &params, device, &cfg, &mut spans, op, 20_000_000,
        );
        if let Some(stats) = rep.stats.get(i).filter(|_| rep.failed == 0) {
            profiles.push((profile, launch.grid.count(), stats.clone()));
        }
    }
    layers.profile_shares(&profiles, fastest_total(&plain));
    let setups = SETUPS_PER_PASS * (traced.len() + plain.len());
    layers.span_times(&spans, setups, rig.launches.len());
    layers.trace_overhead(&plain, &traced);
    (plain, traced, layers, spans)
}
