//! Per-call host cost of the layers the event loop drives, measured from
//! outside: a functional-only replay of one CTA through the public
//! `exec::step` (with the tensor-core `WmmaHandler` timed per call), and
//! the replay's own global-memory address stream fed through `coalesce`,
//! `L1Path::access` and `MemSystem::access`.

use crate::spans::{time_calls, Spans};
use crate::tracer::CountingTracer;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;
use tcsim_core::TensorCoreModel;
use tcsim_isa::exec::{self, ExecEnv, MemAccess, StepAction, WarpExec, WmmaHandler, FULL_MASK};
use tcsim_isa::{
    ByteMemory, Dim3, Kernel, LaunchConfig, MemSpace, Reg, UopStream, WarpRegisters, WmmaDirective,
};
use tcsim_mem::{coalesce, DeviceMemory, L1Path, MemSystem, SharedMemory, Transaction};
use tcsim_sim::{GpuConfig, LaunchGeometry};
use tcsim_trace::NullTracer;
use tcsim_verify::Verifier;

/// Replay repetitions are capped so a long CTA costs a bounded time.
const MAX_REPEATS: usize = 50;
/// Instruction budget of one CTA replay (guards against a kernel that
/// never exits under the simplified barrier handling).
const STEP_BUDGET: u64 = 50_000_000;

/// Host cost of one kernel's layers, per call, plus the per-CTA call
/// counts needed to scale them to a whole launch.
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    /// WMMA handler calls per CTA: load, mma (or `mma.sync`), store.
    pub wmma_calls: [u64; 3],
    /// Host ns per WMMA handler call, in the order of `wmma_calls`.
    pub wmma_ns: [f64; 3],
    /// Host ns per non-WMMA warp instruction in `exec::step`.
    pub exec_ns_per_instr: f64,
    /// Global-memory instructions (coalescer calls) per CTA.
    pub coalesce_calls: u64,
    /// Host ns per `coalesce` call.
    pub coalesce_ns: f64,
    /// Host ns per `L1Path::access`, excluding the L2 accesses it makes.
    pub l1_self_ns: f64,
    /// Host ns per `MemSystem::access`.
    pub l2_ns: f64,
}

/// Delegates to the tensor-core model, timing every call.
struct TimedWmma {
    inner: TensorCoreModel,
    ns: Cell<[u64; 3]>,
    calls: Cell<[u64; 3]>,
}

impl TimedWmma {
    fn charge(&self, kind: usize, started: Instant) {
        let mut ns = self.ns.get();
        let mut calls = self.calls.get();
        ns[kind] += started.elapsed().as_nanos() as u64;
        calls[kind] += 1;
        self.ns.set(ns);
        self.calls.set(calls);
    }
}

impl WmmaHandler for TimedWmma {
    fn wmma_load(
        &self,
        dir: &WmmaDirective,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut dyn WarpRegisters,
    ) -> Vec<MemAccess> {
        let t = Instant::now();
        let out = self.inner.wmma_load(dir, dst, base, stride, mem, regs);
        self.charge(0, t);
        out
    }

    fn wmma_mma(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        regs: &mut dyn WarpRegisters,
    ) {
        let t = Instant::now();
        self.inner.wmma_mma(dir, d, a, b, c, regs);
        self.charge(1, t);
    }

    fn mma_sync(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        meta: Option<Reg>,
        regs: &mut dyn WarpRegisters,
    ) {
        let t = Instant::now();
        self.inner.mma_sync(dir, d, a, b, c, meta, regs);
        self.charge(1, t);
    }

    fn wmma_store(
        &self,
        dir: &WmmaDirective,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &dyn WarpRegisters,
    ) -> Vec<MemAccess> {
        let t = Instant::now();
        let out = self.inner.wmma_store(dir, src, base, stride, mem, regs);
        self.charge(2, t);
        out
    }
}

/// The tensor-core model the SMs of `cfg` attach.
pub fn tensor_model(cfg: &GpuConfig) -> TensorCoreModel {
    if cfg.sm.volta_tensor {
        TensorCoreModel::volta()
    } else {
        TensorCoreModel::turing()
    }
}

struct ReplayRun {
    instrs: u64,
    total_ns: u64,
    /// `(is_store, accesses)` of every global-memory instruction.
    global: Vec<(bool, Vec<MemAccess>)>,
}

/// Runs CTA (0,0,0) to completion, functionally only. Warps run until
/// they reach a barrier or exit; a barrier releases once every live warp
/// of the CTA has arrived.
fn replay_cta(
    kernel: &Kernel,
    launch: &LaunchConfig,
    params: &[u8],
    global: &mut DeviceMemory,
    wmma: &TimedWmma,
    record: bool,
) -> ReplayRun {
    let threads = launch.block.count() as u32;
    let nwarps = threads.div_ceil(32);
    let mut warps: Vec<WarpExec> = (0..nwarps)
        .map(|w| {
            let live = threads - 32 * w;
            let mask = if live >= 32 {
                FULL_MASK
            } else {
                (1u32 << live) - 1
            };
            WarpExec::new(kernel.num_regs(), w, mask)
        })
        .collect();
    let mut shared = SharedMemory::new((kernel.shared_bytes() + launch.shared_bytes).max(1));
    let mut at_barrier = vec![false; warps.len()];
    let mut done = vec![false; warps.len()];
    let mut run = ReplayRun {
        instrs: 0,
        total_ns: 0,
        global: Vec::new(),
    };
    let started = Instant::now();
    while done.iter().any(|d| !d) {
        for w in 0..warps.len() {
            while !done[w] && !at_barrier[w] {
                let mut env = ExecEnv {
                    global: &mut *global,
                    shared: &mut shared,
                    params,
                    block: launch.block,
                    grid: launch.grid,
                    cta: Dim3 { x: 0, y: 0, z: 0 },
                    clock: run.instrs,
                };
                let out = exec::step(&mut warps[w], kernel, &mut env, wmma);
                run.instrs += 1;
                assert!(
                    run.instrs < STEP_BUDGET,
                    "replay of {} exceeded its budget",
                    kernel.name()
                );
                if record {
                    if let Some(m) = out.mem {
                        if m.space == MemSpace::Global {
                            run.global.push((m.is_store, m.accesses));
                        }
                    }
                }
                match out.action {
                    StepAction::Continue => {}
                    StepAction::Barrier => at_barrier[w] = true,
                    StepAction::Exited => done[w] = true,
                }
            }
        }
        // Every live warp is now at the barrier (or done): release it.
        at_barrier.iter_mut().for_each(|b| *b = false);
    }
    run.total_ns = started.elapsed().as_nanos() as u64;
    run
}

/// Profiles one launch's kernel: replays CTA 0 (repeatedly, until about
/// `min_ns` has been measured per figure) and then times the memory layers on its address
/// stream. `global` is the launch's device memory, already holding its
/// inputs; the replay rewrites the same outputs the launch wrote.
#[allow(clippy::too_many_arguments)]
fn profile_kernel(
    kernel: &Kernel,
    launch: &LaunchConfig,
    params: &[u8],
    global: &mut DeviceMemory,
    cfg: &GpuConfig,
    spans: &mut Spans,
    op: u64,
    min_ns: u64,
) -> KernelProfile {
    let mut p = KernelProfile::default();
    let wmma = TimedWmma {
        inner: tensor_model(cfg),
        ns: Cell::new([0; 3]),
        calls: Cell::new([0; 3]),
    };

    // Functional replay: exec ns per non-WMMA instruction is the replay
    // time minus the time inside the WMMA handler.
    let span = spans.enter("isa.exec_replay", op);
    let first = replay_cta(kernel, launch, params, global, &wmma, true);
    p.wmma_calls = wmma.calls.get();
    p.coalesce_calls = first.global.len() as u64;
    let (mut total_ns, mut runs) = (first.total_ns, 1u64);
    while total_ns < min_ns && (runs as usize) < MAX_REPEATS {
        total_ns += replay_cta(kernel, launch, params, global, &wmma, false).total_ns;
        runs += 1;
    }
    spans.exit(span);
    let (ns, calls) = (wmma.ns.get(), wmma.calls.get());
    for k in 0..3 {
        p.wmma_ns[k] = if calls[k] == 0 {
            0.0
        } else {
            ns[k] as f64 / calls[k] as f64
        };
    }
    let wmma_total: u64 = ns.iter().sum();
    let simt_instrs = (first.instrs - p.wmma_calls.iter().sum::<u64>()) * runs;
    p.exec_ns_per_instr = total_ns.saturating_sub(wmma_total) as f64 / simt_instrs.max(1) as f64;

    // Memory layers on the replay's global address stream.
    if first.global.is_empty() {
        return p;
    }
    let span = spans.enter("mem.coalesce", op);
    let (ns, calls) = passes(min_ns, || {
        let t = Instant::now();
        for (_, acc) in &first.global {
            black_box(coalesce(black_box(acc)));
        }
        (t.elapsed().as_nanos() as u64, first.global.len() as u64)
    });
    spans.exit(span);
    p.coalesce_ns = ns as f64 / calls as f64;
    let txns: Vec<(bool, Vec<Transaction>)> = first
        .global
        .iter()
        .map(|(st, acc)| (*st, coalesce(acc)))
        .collect();
    let ntxn: u64 = txns.iter().map(|(_, t)| t.len() as u64).sum();

    let span = spans.enter("mem.l2_access", op);
    let (l2_ns, l2_calls) = passes(min_ns, || {
        let mut sys = MemSystem::new(cfg.mem);
        let mut now = 0u64;
        let t = Instant::now();
        for (store, ts) in &txns {
            for txn in ts {
                now += 1;
                black_box(sys.access(txn.addr, *store, now, 0, &mut NullTracer));
            }
        }
        (t.elapsed().as_nanos() as u64, ntxn)
    });
    spans.exit(span);
    p.l2_ns = l2_ns as f64 / l2_calls as f64;

    let span = spans.enter("mem.l1_access", op);
    let counter = CountingTracer::new();
    let (l1_ns, l1_calls) = passes(min_ns, || {
        let mut sys = MemSystem::new(cfg.mem);
        let mut l1 = L1Path::new(cfg.sm.l1_kib);
        let mut tracer = counter.clone();
        let mut now = 0u64;
        let t = Instant::now();
        for (store, ts) in &txns {
            for txn in ts {
                now += 1;
                black_box(l1.access(txn, *store, now, &mut sys, 0, &mut tracer));
            }
        }
        (t.elapsed().as_nanos() as u64, ntxn)
    });
    spans.exit(span);
    // The counting tracer sees every L2 lookup the L1 path made; their
    // cost is charged to the L2 figure, not to the L1's self time.
    let inner_l2 = counter.snapshot_counts().l2_accesses as f64 * p.l2_ns;
    p.l1_self_ns = (l1_ns as f64 - inner_l2).max(0.0) / l1_calls as f64;
    p
}

/// Times every per-kernel layer on one launch's own kernel, geometry,
/// parameters and device memory: `UopStream::decode`, `Verifier::check`
/// and the model's `estimate` (one span per call), then
/// [`profile_kernel`].
#[allow(clippy::too_many_arguments)]
pub fn kernel_layers(
    kernel: &Kernel,
    launch: &LaunchConfig,
    params: &[u8],
    global: &mut DeviceMemory,
    cfg: &GpuConfig,
    spans: &mut Spans,
    op: u64,
    min_ns: u64,
) -> KernelProfile {
    let geom = LaunchGeometry {
        grid: launch.grid,
        block: launch.block,
        dynamic_shared: launch.shared_bytes,
        gen: cfg.sm.tensor_gen(),
    };
    time_calls(spans, "isa.decode", op, || {
        black_box(UopStream::decode(kernel, cfg.sm.volta_tensor));
    });
    time_calls(spans, "verify.check", op, || {
        black_box(Verifier::new().check(kernel, &geom));
    });
    time_calls(spans, "model.estimate", op, || {
        black_box(tcsim_model::estimate(kernel, &geom, params, cfg));
    });
    profile_kernel(kernel, launch, params, global, cfg, spans, op, min_ns)
}

/// Repeats a timed pass `f` (returning `(ns, calls)`) until `min_ns`
/// has been measured, and returns the totals.
fn passes(min_ns: u64, mut f: impl FnMut() -> (u64, u64)) -> (u64, u64) {
    let (mut ns, mut calls, mut n) = (0u64, 0u64, 0usize);
    while ns < min_ns && n < MAX_REPEATS {
        let (dn, dc) = f();
        ns += dn;
        calls += dc;
        n += 1;
    }
    (ns, calls)
}
