//! Functional (architectural) execution of warp instructions.
//!
//! Following GPGPU-Sim's PTX mode — which the paper's tensor-core model
//! extends (§V-A) — functional execution happens when an instruction
//! issues; the timing model only decides *when* that happens and when the
//! results become visible. This module implements the architectural
//! semantics of every opcode for one warp: 32 lanes stepped in lockstep
//! under an active mask with a stack-based reconvergence scheme for
//! divergent branches.
//!
//! WMMA instructions are warp-synchronous whole-tile operations whose
//! element↔thread mapping is the paper's central subject; their semantics
//! are supplied by a [`WmmaHandler`] implementation (the Volta and Turing
//! models live in `tcsim-core`).

use crate::instr::{AtomOp, Instr, Op, Operand, Reg, ShflMode, UnitClass};
use crate::kernel::Kernel;
use crate::traits::{ByteMemory, WarpRegFile, WarpRegisters};
use crate::types::{DataType, Dim3, MemSpace, MemWidth, SpecialReg};
use crate::wmma::{WmmaDirective, WARP_SIZE};
use tcsim_f16::{F16x2, F16};

/// Mask with all 32 lanes set.
pub const FULL_MASK: u32 = u32::MAX;

/// One SIMT reconvergence stack entry: resume `mask` at `pc`; the entry is
/// popped when execution reaches `reconv`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimtEntry {
    /// Program counter to resume at.
    pub pc: usize,
    /// Lanes resumed.
    pub mask: u32,
    /// Reconvergence point guarding this entry.
    pub reconv: usize,
}

/// Architectural state of one warp.
#[derive(Debug)]
pub struct WarpExec {
    /// Next program counter.
    pub pc: usize,
    /// Active lane mask.
    pub active: u32,
    /// Lanes that have executed `exit`.
    pub exited: u32,
    /// SIMT reconvergence stack.
    pub stack: Vec<SimtEntry>,
    /// Register file (32 lanes).
    pub regs: WarpRegFile,
    /// Predicate registers, one byte of 8 predicate bits per lane.
    pub preds: [u8; WARP_SIZE],
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
}

impl WarpExec {
    /// Creates a fresh warp with all lanes of `live_lanes` active at pc 0.
    pub fn new(num_regs: u32, warp_in_cta: u32, live_lanes: u32) -> WarpExec {
        WarpExec {
            pc: 0,
            active: live_lanes,
            exited: !live_lanes,
            stack: Vec::new(),
            regs: WarpRegFile::new(num_regs as usize),
            preds: [0; WARP_SIZE],
            warp_in_cta,
        }
    }

    /// Whether every lane has exited.
    pub fn done(&self) -> bool {
        self.exited == FULL_MASK
    }

    /// Reads predicate `p` of `lane`.
    pub fn pred(&self, lane: usize, p: u8) -> bool {
        self.preds[lane] & (1 << p) != 0
    }

    /// Writes predicate `p` of `lane`.
    pub fn set_pred(&mut self, lane: usize, p: u8, v: bool) {
        if v {
            self.preds[lane] |= 1 << p;
        } else {
            self.preds[lane] &= !(1 << p);
        }
    }

    /// Global thread linear id of `lane` within the CTA.
    pub fn thread_linear(&self, lane: usize) -> u32 {
        self.warp_in_cta * WARP_SIZE as u32 + lane as u32
    }
}

/// Per-warp execution environment: memories, parameters and geometry.
pub struct ExecEnv<'a> {
    /// Device global memory.
    pub global: &'a mut dyn ByteMemory,
    /// This CTA's shared memory.
    pub shared: &'a mut dyn ByteMemory,
    /// Kernel parameter buffer.
    pub params: &'a [u8],
    /// CTA extent.
    pub block: Dim3,
    /// Grid extent.
    pub grid: Dim3,
    /// This CTA's index.
    pub cta: Dim3,
    /// Current cycle (for `clock`).
    pub clock: u64,
}

impl ExecEnv<'_> {
    fn special(&self, warp: &WarpExec, lane: usize, s: SpecialReg) -> u32 {
        let tid = self.block.delinearize(warp.thread_linear(lane) as u64);
        match s {
            SpecialReg::TidX => tid.x,
            SpecialReg::TidY => tid.y,
            SpecialReg::TidZ => tid.z,
            SpecialReg::CtaIdX => self.cta.x,
            SpecialReg::CtaIdY => self.cta.y,
            SpecialReg::CtaIdZ => self.cta.z,
            SpecialReg::NTidX => self.block.x,
            SpecialReg::NTidY => self.block.y,
            SpecialReg::NCtaIdX => self.grid.x,
            SpecialReg::NCtaIdY => self.grid.y,
            SpecialReg::LaneId => lane as u32,
            SpecialReg::WarpId => warp.warp_in_cta,
        }
    }
}

/// One memory access generated by a lane (for the coalescer/timing model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Lane that issued the access.
    pub lane: u8,
    /// Byte address (space-relative).
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u8,
}

/// The memory traffic of one executed instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemTrace {
    /// Address space accessed.
    pub space: MemSpace,
    /// Whether the accesses are stores.
    pub is_store: bool,
    /// Per-lane accesses.
    pub accesses: Vec<MemAccess>,
}

/// What a step did, for the caller's scheduling decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepAction {
    /// Normal completion; the warp has advanced.
    Continue,
    /// The warp hit a CTA barrier and must not advance until released.
    Barrier,
    /// All lanes have exited; the warp is finished.
    Exited,
}

/// Result of executing one instruction.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Control effect of the instruction.
    pub action: StepAction,
    /// PC of the instruction that executed.
    pub pc: usize,
    /// The functional unit class it issues to.
    pub unit: UnitClass,
    /// Memory traffic, if it was a load/store/WMMA memory operation.
    pub mem: Option<MemTrace>,
}

/// Implements the warp-synchronous WMMA operations (supplied by
/// `tcsim-core`'s Volta/Turing tensor-core models).
pub trait WmmaHandler {
    /// Executes `wmma.load`, reading the operand matrix at `base` (byte
    /// address, space chosen by the caller) with leading-dimension `stride`
    /// (in elements) into the fragment registers at `dst`. Returns the
    /// per-lane memory accesses the operation decomposes into (§III-C).
    fn wmma_load(
        &self,
        dir: &WmmaDirective,
        dst: Reg,
        base: u64,
        stride: usize,
        mem: &dyn ByteMemory,
        regs: &mut dyn WarpRegisters,
    ) -> Vec<MemAccess>;

    /// Executes `wmma.mma` on register fragments.
    fn wmma_mma(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        regs: &mut dyn WarpRegisters,
    );

    /// Executes an Ampere per-instruction `mma.sync` on register
    /// fragments. `meta` is the 2:4 sparsity metadata register (one u32
    /// per thread; read from the quad leaders) and is `Some` exactly when
    /// the directive is sparse.
    #[allow(clippy::too_many_arguments)]
    fn mma_sync(
        &self,
        dir: &WmmaDirective,
        d: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        meta: Option<Reg>,
        regs: &mut dyn WarpRegisters,
    );

    /// Executes `wmma.store`, writing the D fragment to memory. Returns the
    /// per-lane accesses.
    fn wmma_store(
        &self,
        dir: &WmmaDirective,
        src: Reg,
        base: u64,
        stride: usize,
        mem: &mut dyn ByteMemory,
        regs: &dyn WarpRegisters,
    ) -> Vec<MemAccess>;
}

/// A [`WmmaHandler`] that panics; for kernels known to be WMMA-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoWmma;

impl WmmaHandler for NoWmma {
    fn wmma_load(
        &self,
        _dir: &WmmaDirective,
        _dst: Reg,
        _base: u64,
        _stride: usize,
        _mem: &dyn ByteMemory,
        _regs: &mut dyn WarpRegisters,
    ) -> Vec<MemAccess> {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn wmma_mma(
        &self,
        _dir: &WmmaDirective,
        _d: Reg,
        _a: Reg,
        _b: Reg,
        _c: Reg,
        _regs: &mut dyn WarpRegisters,
    ) {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn mma_sync(
        &self,
        _dir: &WmmaDirective,
        _d: Reg,
        _a: Reg,
        _b: Reg,
        _c: Reg,
        _meta: Option<Reg>,
        _regs: &mut dyn WarpRegisters,
    ) {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }

    fn wmma_store(
        &self,
        _dir: &WmmaDirective,
        _src: Reg,
        _base: u64,
        _stride: usize,
        _mem: &mut dyn ByteMemory,
        _regs: &dyn WarpRegisters,
    ) -> Vec<MemAccess> {
        panic!("kernel executed a wmma instruction but no tensor-core model is attached")
    }
}

fn value32(warp: &WarpExec, env: &ExecEnv<'_>, lane: usize, op: Operand) -> u32 {
    match op {
        Operand::Reg(r) => warp.regs.read(lane, r),
        Operand::RegPair(r) => warp.regs.read(lane, r),
        Operand::Imm(i) => i as u32,
        Operand::Special(s) => env.special(warp, lane, s),
        Operand::Pred(p) => warp.pred(lane, p.0) as u32,
    }
}

fn value64(warp: &WarpExec, env: &ExecEnv<'_>, lane: usize, op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => warp.regs.read(lane, r) as u64,
        Operand::RegPair(r) => warp.regs.read_pair(lane, r),
        Operand::Imm(i) => i as u64,
        Operand::Special(s) => env.special(warp, lane, s) as u64,
        Operand::Pred(p) => warp.pred(lane, p.0) as u64,
    }
}

fn f32v(warp: &WarpExec, env: &ExecEnv<'_>, lane: usize, op: Operand) -> f32 {
    f32::from_bits(value32(warp, env, lane, op))
}

/// The value an integer instruction writes: to its destination register,
/// its destination register pair, or its destination predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntValue {
    /// A 32-bit register value.
    B32(u32),
    /// A 64-bit register-pair value.
    B64(u64),
    /// A predicate value (`setp`).
    Pred(bool),
}

/// One lane's source operands, as [`int_alu`] reads them. `None` marks a
/// value the reader does not know: the executor always knows, while a
/// static walk knows only the values it has folded.
pub trait IntSources {
    /// Source operand `i` at 32-bit width.
    fn b32(&self, i: usize) -> Option<u32>;
    /// Source operand `i` at 64-bit width.
    fn b64(&self, i: usize) -> Option<u64>;
    /// Source operand `i` as a predicate.
    fn pred(&self, i: usize) -> Option<bool>;
}

/// The scalar semantics of the integer instructions, for one lane: moves,
/// the 32-bit ALU ops, `imad`, the 64-bit adds, `selp`, the integer
/// `cvt` pairs and the integer `setp` orderings. This is the one
/// definition both [`step`] and static analyses fold with.
///
/// Returns `None` for any other opcode, and when a source the result
/// depends on is unknown (`selp` reads only the selected source).
pub fn int_alu(op: Op, src: &impl IntSources) -> Option<IntValue> {
    use IntValue::{Pred, B32, B64};
    Some(match op {
        Op::Mov => B32(src.b32(0)?),
        Op::Mov64 => B64(src.b64(0)?),
        Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IMin
        | Op::IMax
        | Op::Shl
        | Op::Shr
        | Op::Sar
        | Op::And
        | Op::Or
        | Op::Xor => {
            let (a, b) = (src.b32(0)?, src.b32(1)?);
            B32(match op {
                Op::IAdd => a.wrapping_add(b),
                Op::ISub => a.wrapping_sub(b),
                Op::IMul => a.wrapping_mul(b),
                Op::IMin => (a as i32).min(b as i32) as u32,
                Op::IMax => (a as i32).max(b as i32) as u32,
                Op::Shl => a.wrapping_shl(b),
                Op::Shr => a.wrapping_shr(b),
                Op::Sar => ((a as i32).wrapping_shr(b)) as u32,
                Op::And => a & b,
                Op::Or => a | b,
                _ => a ^ b,
            })
        }
        Op::Not => B32(!src.b32(0)?),
        Op::IMad => B32(src
            .b32(0)?
            .wrapping_mul(src.b32(1)?)
            .wrapping_add(src.b32(2)?)),
        Op::IAdd64 => B64(src.b64(0)?.wrapping_add(src.b64(1)?)),
        Op::IMadWide => B64((src.b32(0)? as u64)
            .wrapping_mul(src.b32(1)? as u64)
            .wrapping_add(src.b64(2)?)),
        Op::SelP => B32(if src.pred(0)? {
            src.b32(1)?
        } else {
            src.b32(2)?
        }),
        Op::Cvt { from, to } => match (from, to) {
            // Same-width integer conversions copy the bits.
            (DataType::U32, DataType::S32) | (DataType::S32, DataType::U32) => B32(src.b32(0)?),
            (DataType::U32, DataType::U64) => B64(src.b32(0)? as u64),
            (DataType::U64, DataType::U32) => B32(src.b64(0)? as u32),
            _ => return None,
        },
        Op::Setp { cmp, ty } => Pred(cmp.eval(match ty {
            DataType::S32 => (src.b32(0)? as i32).cmp(&(src.b32(1)? as i32)),
            DataType::U32 => src.b32(0)?.cmp(&src.b32(1)?),
            DataType::U64 => src.b64(0)?.cmp(&src.b64(1)?),
            _ => return None,
        })),
        _ => return None,
    })
}

/// One executing lane's sources: every value is known.
struct LaneSources<'a, 'e> {
    warp: &'a WarpExec,
    env: &'a ExecEnv<'e>,
    lane: usize,
    srcs: &'a [Operand],
}

impl IntSources for LaneSources<'_, '_> {
    fn b32(&self, i: usize) -> Option<u32> {
        Some(value32(self.warp, self.env, self.lane, self.srcs[i]))
    }

    fn b64(&self, i: usize) -> Option<u64> {
        Some(value64(self.warp, self.env, self.lane, self.srcs[i]))
    }

    fn pred(&self, i: usize) -> Option<bool> {
        let Operand::Pred(p) = self.srcs[i] else {
            panic!("selp pred operand")
        };
        Some(self.warp.pred(self.lane, p.0))
    }
}

/// Executes the instruction at `warp.pc` and advances architectural state.
///
/// # Panics
///
/// Panics on malformed instructions (wrong operand kinds), on divergent
/// branches without a reconvergence point, and on WMMA instructions issued
/// with a partially active warp.
pub fn step(
    warp: &mut WarpExec,
    kernel: &Kernel,
    env: &mut ExecEnv<'_>,
    wmma: &dyn WmmaHandler,
) -> StepOutcome {
    let pc = warp.pc;
    let instr = &kernel.instrs()[pc];
    let unit = instr.op.unit();

    // Guard evaluation: per-lane execution mask for this instruction.
    let mut exec_mask = warp.active;
    if let Some((p, sense)) = instr.guard {
        let mut m = 0u32;
        for lane in 0..WARP_SIZE {
            if exec_mask & (1 << lane) != 0 && warp.pred(lane, p.0) == sense {
                m |= 1 << lane;
            }
        }
        exec_mask = m;
    }

    let mut outcome = StepOutcome {
        action: StepAction::Continue,
        pc,
        unit,
        mem: None,
    };

    match &instr.op {
        Op::Bra => {
            let target = instr.target.expect("unresolved branch");
            if exec_mask == warp.active {
                warp.pc = target;
            } else if exec_mask == 0 {
                warp.pc = pc + 1;
            } else {
                // Divergence: needs a reconvergence point.
                let reconv = instr
                    .reconv
                    .expect("divergent branch without reconvergence point");
                let fall = warp.active & !exec_mask;
                // Join entry resumes the full mask at the reconvergence pc.
                warp.stack.push(SimtEntry {
                    pc: reconv,
                    mask: warp.active,
                    reconv,
                });
                // Else entry runs the fall-through lanes up to reconv.
                warp.stack.push(SimtEntry {
                    pc: pc + 1,
                    mask: fall,
                    reconv,
                });
                warp.active = exec_mask;
                warp.pc = target;
            }
            check_reconvergence(warp);
            return outcome;
        }
        Op::Exit => {
            warp.exited |= exec_mask;
            warp.active &= !exec_mask;
            if warp.active == 0 {
                // Resume a pending path or finish.
                if let Some(e) = warp.stack.pop() {
                    warp.active = e.mask & !warp.exited;
                    warp.pc = e.pc;
                    if warp.active == 0 && warp.stack.is_empty() {
                        outcome.action = StepAction::Exited;
                    }
                } else {
                    outcome.action = StepAction::Exited;
                }
            } else {
                warp.pc = pc + 1;
            }
            if warp.done() {
                outcome.action = StepAction::Exited;
            }
            return outcome;
        }
        Op::Bar => {
            warp.pc = pc + 1;
            outcome.action = StepAction::Barrier;
            return outcome;
        }
        _ => {}
    }

    // Straight-line instruction: execute on each lane in exec_mask.
    match &instr.op {
        Op::Nop => {}
        Op::Mov
        | Op::Mov64
        | Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IMad
        | Op::IMin
        | Op::IMax
        | Op::Shl
        | Op::Shr
        | Op::Sar
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Not
        | Op::IAdd64
        | Op::IMadWide
        | Op::SelP
        | Op::Cvt {
            from: DataType::U32,
            to: DataType::S32 | DataType::U64,
        }
        | Op::Cvt {
            from: DataType::S32 | DataType::U64,
            to: DataType::U32,
        }
        | Op::Setp {
            ty: DataType::S32 | DataType::U32 | DataType::U64,
            ..
        } => each_lane(warp, exec_mask, |warp, lane| {
            let src = LaneSources {
                warp,
                env,
                lane,
                srcs: &instr.srcs,
            };
            match int_alu(instr.op, &src) {
                Some(IntValue::B32(v)) => warp.regs.write(lane, instr.dst.expect("alu dst"), v),
                Some(IntValue::B64(v)) => {
                    warp.regs.write_pair(lane, instr.dst.expect("alu dst"), v)
                }
                Some(IntValue::Pred(v)) => {
                    warp.set_pred(lane, instr.pred_dst.expect("setp pred dst").0, v)
                }
                None => unreachable!("{:?} has no integer semantics", instr.op),
            }
        }),
        Op::FAdd | Op::FMul | Op::FMin | Op::FMax => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            let b = f32v(warp, env, lane, instr.srcs[1]);
            let v = match instr.op {
                Op::FAdd => a + b,
                Op::FMul => a * b,
                Op::FMin => a.min(b),
                _ => a.max(b),
            };
            warp.regs
                .write(lane, instr.dst.expect("fp dst"), v.to_bits());
        }),
        Op::FFma => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            let b = f32v(warp, env, lane, instr.srcs[1]);
            let c = f32v(warp, env, lane, instr.srcs[2]);
            warp.regs.write(
                lane,
                instr.dst.expect("ffma dst"),
                a.mul_add(b, c).to_bits(),
            );
        }),
        Op::FRcp => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            warp.regs
                .write(lane, instr.dst.expect("frcp dst"), (1.0 / a).to_bits());
        }),
        Op::FSqrt => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            warp.regs
                .write(lane, instr.dst.expect("fsqrt dst"), a.sqrt().to_bits());
        }),
        Op::FEx2 => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            warp.regs
                .write(lane, instr.dst.expect("fex2 dst"), a.exp2().to_bits());
        }),
        Op::FLg2 => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            warp.regs
                .write(lane, instr.dst.expect("flg2 dst"), a.log2().to_bits());
        }),
        Op::DAdd | Op::DMul => each_lane(warp, exec_mask, |warp, lane| {
            let a = f64::from_bits(value64(warp, env, lane, instr.srcs[0]));
            let b = f64::from_bits(value64(warp, env, lane, instr.srcs[1]));
            let v = if matches!(instr.op, Op::DAdd) {
                a + b
            } else {
                a * b
            };
            warp.regs
                .write_pair(lane, instr.dst.expect("fp64 dst"), v.to_bits());
        }),
        Op::DFma => each_lane(warp, exec_mask, |warp, lane| {
            let a = f64::from_bits(value64(warp, env, lane, instr.srcs[0]));
            let b = f64::from_bits(value64(warp, env, lane, instr.srcs[1]));
            let c = f64::from_bits(value64(warp, env, lane, instr.srcs[2]));
            warp.regs.write_pair(
                lane,
                instr.dst.expect("dfma dst"),
                a.mul_add(b, c).to_bits(),
            );
        }),
        Op::HAdd2 | Op::HMul2 => each_lane(warp, exec_mask, |warp, lane| {
            let a = F16x2::from_bits(value32(warp, env, lane, instr.srcs[0]));
            let b = F16x2::from_bits(value32(warp, env, lane, instr.srcs[1]));
            let v = if matches!(instr.op, Op::HAdd2) {
                a.hadd2(b)
            } else {
                a.hmul2(b)
            };
            warp.regs
                .write(lane, instr.dst.expect("h2 dst"), v.to_bits());
        }),
        Op::HFma2 => each_lane(warp, exec_mask, |warp, lane| {
            let a = F16x2::from_bits(value32(warp, env, lane, instr.srcs[0]));
            let b = F16x2::from_bits(value32(warp, env, lane, instr.srcs[1]));
            let c = F16x2::from_bits(value32(warp, env, lane, instr.srcs[2]));
            warp.regs
                .write(lane, instr.dst.expect("hfma2 dst"), a.hfma2(b, c).to_bits());
        }),
        Op::Cvt { from, to } => each_lane(warp, exec_mask, |warp, lane| {
            let dst = instr.dst.expect("cvt dst");
            let src = instr.srcs[0];
            match (from, to) {
                (DataType::F32, DataType::F16) => {
                    let v = F16::from_f32(f32v(warp, env, lane, src));
                    warp.regs.write(lane, dst, v.to_bits() as u32);
                }
                (DataType::F16, DataType::F32) => {
                    let v = F16::from_bits(value32(warp, env, lane, src) as u16);
                    warp.regs.write(lane, dst, v.to_f32().to_bits());
                }
                (DataType::U32, DataType::F32) => {
                    let v = value32(warp, env, lane, src) as f32;
                    warp.regs.write(lane, dst, v.to_bits());
                }
                (DataType::S32, DataType::F32) => {
                    let v = value32(warp, env, lane, src) as i32 as f32;
                    warp.regs.write(lane, dst, v.to_bits());
                }
                (DataType::F32, DataType::S32) => {
                    let v = f32v(warp, env, lane, src).trunc() as i32;
                    warp.regs.write(lane, dst, v as u32);
                }
                (DataType::F32, DataType::U32) => {
                    let v = f32v(warp, env, lane, src).trunc().max(0.0) as u32;
                    warp.regs.write(lane, dst, v);
                }
                (DataType::F32, DataType::F64) => {
                    let v = f32v(warp, env, lane, src) as f64;
                    warp.regs.write_pair(lane, dst, v.to_bits());
                }
                (DataType::F64, DataType::F32) => {
                    let v = f64::from_bits(value64(warp, env, lane, src)) as f32;
                    warp.regs.write(lane, dst, v.to_bits());
                }
                other => panic!("unsupported conversion {other:?}"),
            }
        }),
        Op::Setp {
            cmp,
            ty: DataType::F32,
        } => each_lane(warp, exec_mask, |warp, lane| {
            let a = f32v(warp, env, lane, instr.srcs[0]);
            let b = f32v(warp, env, lane, instr.srcs[1]);
            let ord = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Greater);
            let pd = instr.pred_dst.expect("setp pred dst");
            warp.set_pred(lane, pd.0, cmp.eval(ord));
        }),
        Op::Setp { ty, .. } => panic!("unsupported setp type {ty}"),
        Op::Clock => each_lane(warp, exec_mask, |warp, lane| {
            warp.regs
                .write(lane, instr.dst.expect("clock dst"), env.clock as u32);
        }),
        Op::Ld { space, width } => {
            outcome.mem = Some(exec_load(warp, env, instr, *space, *width, exec_mask));
        }
        Op::St { space, width } => {
            outcome.mem = Some(exec_store(warp, env, instr, *space, *width, exec_mask));
        }
        Op::Atom { space, op } => {
            outcome.mem = Some(exec_atom(warp, env, instr, *space, *op, exec_mask));
        }
        Op::Shfl { mode } => {
            // Two-phase: snapshot all source values, then write, so lanes
            // exchange pre-instruction values.
            let Operand::Reg(src) = instr.srcs[0] else {
                panic!("shfl value operand")
            };
            let dst = instr.dst.expect("shfl dst");
            let mut vals = [0u32; WARP_SIZE];
            let mut srcs_lane = [0usize; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                vals[lane] = warp.regs.read(lane, src);
                let b = value32(warp, env, lane, instr.srcs[1]) as usize;
                let j = match mode {
                    ShflMode::Down => lane + b,
                    ShflMode::Up => lane.wrapping_sub(b),
                    ShflMode::Bfly => lane ^ b,
                    ShflMode::Idx => b,
                };
                srcs_lane[lane] = if j < WARP_SIZE { j } else { lane };
            }
            for lane in 0..WARP_SIZE {
                if exec_mask & (1 << lane) != 0 {
                    warp.regs.write(lane, dst, vals[srcs_lane[lane]]);
                }
            }
        }
        Op::Wmma(dir) => {
            assert_eq!(
                exec_mask, FULL_MASK,
                "wmma instructions are warp-synchronous and need all 32 lanes active"
            );
            outcome.mem = exec_wmma(warp, env, instr, dir, wmma);
        }
        Op::Bra | Op::Bar | Op::Exit => unreachable!("handled above"),
    }

    warp.pc = pc + 1;
    check_reconvergence(warp);
    outcome
}

/// Pops SIMT stack entries whose reconvergence point has been reached.
fn check_reconvergence(warp: &mut WarpExec) {
    while let Some(&top) = warp.stack.last() {
        if warp.pc == top.reconv {
            warp.stack.pop();
            warp.active = top.mask & !warp.exited;
            warp.pc = top.pc;
            // A join entry has pc == reconv; resuming it re-checks deeper
            // entries only if we moved.
            if top.pc == top.reconv {
                continue;
            }
        }
        break;
    }
}

fn each_lane(warp: &mut WarpExec, mask: u32, mut f: impl FnMut(&mut WarpExec, usize)) {
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) != 0 {
            f(warp, lane);
        }
    }
}

fn lane_addr(warp: &WarpExec, env: &ExecEnv<'_>, lane: usize, instr: &Instr) -> u64 {
    let base = value64(warp, env, lane, instr.srcs[0]);
    let off = match instr.srcs[1] {
        Operand::Imm(i) => i,
        other => panic!("load/store offset must be immediate, found {other:?}"),
    };
    base.wrapping_add(off as u64)
}

fn exec_load(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    width: MemWidth,
    mask: u32,
) -> MemTrace {
    let dst = instr.dst.expect("load dst");
    let mut accesses = Vec::with_capacity(WARP_SIZE);
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let addr = if space == MemSpace::Param {
            match instr.srcs[0] {
                Operand::Imm(i) => i as u64,
                other => panic!("param load offset must be immediate, found {other:?}"),
            }
        } else {
            lane_addr(warp, env, lane, instr)
        };
        accesses.push(MemAccess {
            lane: lane as u8,
            addr,
            bytes: width.bytes() as u8,
        });
        let read_u32_at = |env: &ExecEnv<'_>, a: u64| -> u32 {
            match space {
                MemSpace::Global | MemSpace::Local => env.global.read_u32(a),
                MemSpace::Shared => env.shared.read_u32(a),
                MemSpace::Param => {
                    let mut b = [0u8; 4];
                    for (i, out) in b.iter_mut().enumerate() {
                        *out = env.params.get(a as usize + i).copied().unwrap_or(0);
                    }
                    u32::from_le_bytes(b)
                }
            }
        };
        match width {
            MemWidth::B8 => {
                let v = read_u32_at(env, addr) & 0xFF;
                warp.regs.write(lane, dst, v);
            }
            MemWidth::B16 => {
                let v = read_u32_at(env, addr) & 0xFFFF;
                warp.regs.write(lane, dst, v);
            }
            _ => {
                for i in 0..width.regs() {
                    let v = read_u32_at(env, addr + 4 * i as u64);
                    warp.regs.write(lane, Reg(dst.0 + i as u16), v);
                }
            }
        }
    }
    MemTrace {
        space,
        is_store: false,
        accesses,
    }
}

fn exec_store(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    width: MemWidth,
    mask: u32,
) -> MemTrace {
    let Operand::Reg(data) = instr.srcs[2] else {
        panic!("store data operand")
    };
    let mut accesses = Vec::with_capacity(WARP_SIZE);
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let addr = lane_addr(warp, env, lane, instr);
        accesses.push(MemAccess {
            lane: lane as u8,
            addr,
            bytes: width.bytes() as u8,
        });
        let mem: &mut dyn ByteMemory = match space {
            MemSpace::Global | MemSpace::Local => env.global,
            MemSpace::Shared => env.shared,
            MemSpace::Param => panic!("stores to param space are not allowed"),
        };
        match width {
            MemWidth::B8 => mem.write_u8(addr, warp.regs.read(lane, data) as u8),
            MemWidth::B16 => mem.write_u16(addr, warp.regs.read(lane, data) as u16),
            _ => {
                for i in 0..width.regs() {
                    mem.write_u32(
                        addr + 4 * i as u64,
                        warp.regs.read(lane, Reg(data.0 + i as u16)),
                    );
                }
            }
        }
    }
    MemTrace {
        space,
        is_store: true,
        accesses,
    }
}

/// Atomic read-modify-write: lanes apply in ascending lane order (the
/// deterministic serialization the simulator guarantees).
fn exec_atom(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    space: MemSpace,
    op: AtomOp,
    mask: u32,
) -> MemTrace {
    let dst = instr.dst.expect("atom dst");
    let Operand::Reg(data) = instr.srcs[2] else {
        panic!("atom data operand")
    };
    let mut accesses = Vec::with_capacity(WARP_SIZE);
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let addr = lane_addr(warp, env, lane, instr);
        accesses.push(MemAccess {
            lane: lane as u8,
            addr,
            bytes: 4,
        });
        let mem: &mut dyn ByteMemory = match space {
            MemSpace::Global | MemSpace::Local => env.global,
            MemSpace::Shared => env.shared,
            MemSpace::Param => panic!("atomics on param space are not allowed"),
        };
        let old = mem.read_u32(addr);
        let v = warp.regs.read(lane, data);
        let new = match op {
            AtomOp::Add => old.wrapping_add(v),
            AtomOp::Min => (old as i32).min(v as i32) as u32,
            AtomOp::Max => (old as i32).max(v as i32) as u32,
            AtomOp::Exch => v,
        };
        mem.write_u32(addr, new);
        warp.regs.write(lane, dst, old);
    }
    // Atomics read and write; the coalescer/timing treat them as stores
    // plus a returned value (handled by the SM's memory accounting).
    MemTrace {
        space,
        is_store: true,
        accesses,
    }
}

fn exec_wmma(
    warp: &mut WarpExec,
    env: &mut ExecEnv<'_>,
    instr: &Instr,
    dir: &WmmaDirective,
    wmma: &dyn WmmaHandler,
) -> Option<MemTrace> {
    match dir {
        WmmaDirective::Load { .. } => {
            let base = value64(warp, env, 0, instr.srcs[0]);
            let stride = value64(warp, env, 0, instr.srcs[1]) as usize;
            let shared = matches!(instr.srcs[2], Operand::Imm(1));
            let dst = instr.dst.expect("wmma.load dst");
            let accesses = if shared {
                wmma.wmma_load(dir, dst, base, stride, env.shared, &mut warp.regs)
            } else {
                wmma.wmma_load(dir, dst, base, stride, env.global, &mut warp.regs)
            };
            Some(MemTrace {
                space: if shared {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                },
                is_store: false,
                accesses,
            })
        }
        WmmaDirective::Mma { .. } => {
            let d = instr.dst.expect("wmma.mma dst");
            let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                (instr.srcs[0], instr.srcs[1], instr.srcs[2])
            else {
                panic!("wmma.mma operands must be fragment base registers")
            };
            wmma.wmma_mma(dir, d, a, b, c, &mut warp.regs);
            None
        }
        WmmaDirective::MmaSync { sparse, .. } => {
            let d = instr.dst.expect("mma.sync dst");
            let (Operand::Reg(a), Operand::Reg(b), Operand::Reg(c)) =
                (instr.srcs[0], instr.srcs[1], instr.srcs[2])
            else {
                panic!("mma.sync operands must be fragment base registers")
            };
            let meta = if *sparse {
                let Some(Operand::Reg(m)) = instr.srcs.get(3) else {
                    panic!("sparse mma.sync needs a metadata register operand")
                };
                Some(*m)
            } else {
                None
            };
            wmma.mma_sync(dir, d, a, b, c, meta, &mut warp.regs);
            None
        }
        WmmaDirective::Store { .. } => {
            let base = value64(warp, env, 0, instr.srcs[0]);
            let stride = value64(warp, env, 0, instr.srcs[1]) as usize;
            let Operand::Reg(d) = instr.srcs[2] else {
                panic!("wmma.store data operand")
            };
            let shared = matches!(instr.srcs[3], Operand::Imm(1));
            let accesses = if shared {
                wmma.wmma_store(dir, d, base, stride, env.shared, &warp.regs)
            } else {
                wmma.wmma_store(dir, d, base, stride, env.global, &warp.regs)
            };
            Some(MemTrace {
                space: if shared {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                },
                is_store: true,
                accesses,
            })
        }
    }
}

/// Runs a warp to completion (or `max_steps`), for functional tests and
/// single-warp microbenchmarks. Barriers are released immediately (valid
/// only for single-warp CTAs).
///
/// # Panics
///
/// Panics if the warp does not finish within `max_steps`.
pub fn run_warp(
    warp: &mut WarpExec,
    kernel: &Kernel,
    env: &mut ExecEnv<'_>,
    wmma: &dyn WmmaHandler,
    max_steps: usize,
) -> usize {
    for n in 0..max_steps {
        let out = step(warp, kernel, env, wmma);
        env.clock += 1;
        if out.action == StepAction::Exited {
            return n + 1;
        }
    }
    panic!("warp did not finish within {max_steps} steps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CmpOp;
    use crate::kernel::KernelBuilder;
    use crate::traits::VecMemory;

    fn env<'a>(
        global: &'a mut VecMemory,
        shared: &'a mut VecMemory,
        params: &'a [u8],
    ) -> ExecEnv<'a> {
        ExecEnv {
            global,
            shared,
            params,
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: Dim3::new(0, 0, 0),
            clock: 0,
        }
    }

    #[test]
    fn alu_and_special_registers() {
        let mut b = KernelBuilder::new("t");
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let r = b.reg();
        b.imad(r, tid, Operand::Imm(3), Operand::Imm(7));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for lane in 0..32 {
            assert_eq!(w.regs.read(lane, Reg(1)), (lane as u32) * 3 + 7);
        }
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.ld_param(MemWidth::B64, base, 0);
        let tid = b.reg();
        b.mov(tid, Operand::Special(SpecialReg::TidX));
        let addr = b.reg_pair();
        b.imad_wide(addr, tid, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.iadd(v, v, Operand::Imm(100));
        b.st_global(MemWidth::B32, addr, 0, v);
        b.exit();
        let k = b.build();

        let mut g = VecMemory::new();
        for i in 0..32u32 {
            g.write_u32(0x1000 + 4 * i as u64, i);
        }
        let params = 0x1000u64.to_le_bytes();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &params);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for i in 0..32u32 {
            assert_eq!(g.read_u32(0x1000 + 4 * i as u64), i + 100);
        }
    }

    #[test]
    fn uniform_loop_iterates() {
        let mut b = KernelBuilder::new("t");
        let i = b.reg();
        b.mov(i, Operand::Imm(0));
        let acc = b.reg();
        b.mov(acc, Operand::Imm(0));
        let top = b.label();
        b.place(top);
        b.iadd(acc, acc, Operand::Reg(i));
        b.iadd(i, i, Operand::Imm(1));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::S32, i, Operand::Imm(5));
        b.bra_if(p, true, top);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        // 0+1+2+3+4 = 10
        assert_eq!(w.regs.read(0, Reg(1)), 10);
    }

    #[test]
    fn divergent_branch_reconverges_with_both_paths() {
        // if (lane < 16) r1 = 2; else r1 = 1; r2 = r1 + 10 after merge.
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let p = b.pred();
        b.setp(p, CmpOp::Lt, DataType::S32, lane, Operand::Imm(16));
        let taken = b.label();
        let merge = b.label();
        let r1 = b.reg();
        b.bra_div(p, true, taken, merge);
        b.mov(r1, Operand::Imm(1)); // else path (lanes 16..32)
        b.bra(merge);
        b.place(taken);
        b.mov(r1, Operand::Imm(2)); // taken path (lanes 0..16)
        b.place(merge);
        let r2 = b.reg();
        b.iadd(r2, r1, Operand::Imm(10));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        for lanei in 0..32 {
            let expect = if lanei < 16 { 12 } else { 11 };
            assert_eq!(w.regs.read(lanei, Reg(2)), expect, "lane {lanei}");
        }
    }

    #[test]
    fn guarded_instruction_executes_on_matching_lanes_only() {
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let p = b.pred();
        b.setp(p, CmpOp::Eq, DataType::S32, lane, Operand::Imm(0));
        let r = b.reg();
        b.mov(r, Operand::Imm(5));
        b.emit(
            Instr::new(Op::Mov)
                .with_dst(r)
                .with_srcs(vec![Operand::Imm(9)])
                .with_guard(crate::instr::PredReg(0), true),
        );
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 100);
        assert_eq!(w.regs.read(0, Reg(1)), 9);
        assert_eq!(w.regs.read(1, Reg(1)), 5);
    }

    #[test]
    fn shared_memory_and_barrier_action() {
        let mut b = KernelBuilder::new("t");
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let a = b.reg();
        b.shl(a, lane, Operand::Imm(2));
        b.st_shared(MemWidth::B32, a, 0, lane);
        b.bar();
        let v = b.reg();
        b.ld_shared(MemWidth::B32, v, a, 0);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        // Step until the barrier fires.
        let mut saw_barrier = false;
        for _ in 0..10 {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if out.action == StepAction::Barrier {
                saw_barrier = true;
                break;
            }
        }
        assert!(saw_barrier);
        // Continue to completion.
        loop {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if out.action == StepAction::Exited {
                break;
            }
        }
        assert_eq!(w.regs.read(7, Reg(2)), 7);
    }

    #[test]
    fn mem_trace_reports_lane_addresses() {
        let mut b = KernelBuilder::new("t");
        let base = b.reg_pair();
        b.mov64(base, Operand::Imm(0x100));
        let lane = b.reg();
        b.mov(lane, Operand::Special(SpecialReg::LaneId));
        let addr = b.reg_pair();
        b.imad_wide(addr, lane, Operand::Imm(4), base);
        let v = b.reg();
        b.ld_global(MemWidth::B32, v, addr, 0);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        let mut trace = None;
        loop {
            let out = step(&mut w, &k, &mut e, &NoWmma);
            if let Some(m) = out.mem {
                trace = Some(m);
            }
            if out.action == StepAction::Exited {
                break;
            }
        }
        let t = trace.expect("load trace");
        assert_eq!(t.space, MemSpace::Global);
        assert!(!t.is_store);
        assert_eq!(t.accesses.len(), 32);
        assert_eq!(t.accesses[5].addr, 0x100 + 20);
        assert_eq!(t.accesses[5].bytes, 4);
    }

    #[test]
    fn clock_reads_env_cycle() {
        let mut b = KernelBuilder::new("t");
        let c = b.reg();
        b.clock(c);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        e.clock = 1234;
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(w.regs.read(0, Reg(0)), 1234);
    }

    #[test]
    fn cvt_f32_f16_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::fimm(1.5));
        let h = b.reg();
        b.cvt(h, DataType::F32, DataType::F16, Operand::Reg(r));
        let f = b.reg();
        b.cvt(f, DataType::F16, DataType::F32, Operand::Reg(h));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(f32::from_bits(w.regs.read(0, Reg(2))), 1.5);
        assert_eq!(w.regs.read(0, Reg(1)), 0x3E00); // 1.5 in binary16
    }

    #[test]
    fn partial_warp_lanes_stay_inactive() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut e = env(&mut g, &mut s, &[]);
        // Only 8 live lanes (e.g. a 40-thread CTA's second warp).
        let mut w = WarpExec::new(k.num_regs(), 1, 0xFF);
        run_warp(&mut w, &k, &mut e, &NoWmma, 10);
        assert_eq!(w.regs.read(0, Reg(0)), 1);
        assert_eq!(w.regs.read(9, Reg(0)), 0);
    }
}

#[cfg(test)]
mod op_semantics_tests {
    //! Single-op semantic checks across the ALU surface (one lane probed;
    //! the lockstep machinery is covered by the main exec tests).

    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::traits::VecMemory;

    fn run_unop_env(build: impl FnOnce(&mut KernelBuilder, Reg, Reg)) -> u32 {
        let mut b = KernelBuilder::new("op");
        let src = b.reg();
        let dst = b.reg();
        build(&mut b, dst, src);
        b.exit();
        let k = b.build();
        let mut g = VecMemory::new();
        let mut s = VecMemory::new();
        let mut env = ExecEnv {
            global: &mut g,
            shared: &mut s,
            params: &[],
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: Dim3::new(0, 0, 0),
            clock: 0,
        };
        let mut w = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        run_warp(&mut w, &k, &mut env, &NoWmma, 64);
        w.regs.read(0, Reg(1))
    }

    #[test]
    fn shift_and_bit_ops() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0xF0u32 as i64));
            b.shl(d, s, O::Imm(4));
        });
        assert_eq!(v, 0xF00);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x8000_0000u32 as i64));
            b.shr(d, s, O::Imm(4));
        });
        assert_eq!(v, 0x0800_0000, "logical shift");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x8000_0000u32 as i64));
            b.emit(
                Instr::new(Op::Sar)
                    .with_dst(d)
                    .with_srcs(vec![O::Reg(s), O::Imm(4)]),
            );
        });
        assert_eq!(v, 0xF800_0000, "arithmetic shift extends the sign");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(0x0F0Fu32 as i64));
            b.emit(Instr::new(Op::Not).with_dst(d).with_srcs(vec![O::Reg(s)]));
        });
        assert_eq!(v, !0x0F0Fu32);
    }

    #[test]
    fn signed_min_max() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-5i64));
            b.imin(d, s, O::Imm(3));
        });
        assert_eq!(v as i32, -5);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-5i64));
            b.imax(d, s, O::Imm(3));
        });
        assert_eq!(v as i32, 3);
    }

    #[test]
    fn fp32_min_max_and_transcendentals() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-2.5));
            b.emit(
                Instr::new(Op::FMin)
                    .with_dst(d)
                    .with_srcs(vec![O::Reg(s), O::fimm(1.0)]),
            );
        });
        assert_eq!(f32::from_bits(v), -2.5);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(3.0));
            b.fex2(d, s);
        });
        assert_eq!(f32::from_bits(v), 8.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(8.0));
            b.flg2(d, s);
        });
        assert_eq!(f32::from_bits(v), 3.0);
    }

    #[test]
    fn packed_half_ops() {
        use crate::instr::Operand as O;
        // lanes (1.0, 2.0) + (0.5, 0.25) = (1.5, 2.25)
        let a = F16x2::new(F16::from_f32(1.0), F16::from_f32(2.0)).to_bits();
        let bb = F16x2::new(F16::from_f32(0.5), F16::from_f32(0.25)).to_bits();
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(a as i64));
            b.hadd2(d, s, O::Imm(bb as i64));
        });
        let r = F16x2::from_bits(v);
        assert_eq!(r.lo().to_f32(), 1.5);
        assert_eq!(r.hi().to_f32(), 2.25);
    }

    #[test]
    fn conversions_cover_int_float_paths() {
        use crate::instr::Operand as O;
        use crate::types::DataType as T;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(7));
            b.cvt(d, T::U32, T::F32, O::Reg(s));
        });
        assert_eq!(f32::from_bits(v), 7.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(-3i64));
            b.cvt(d, T::S32, T::F32, O::Reg(s));
        });
        assert_eq!(f32::from_bits(v), -3.0);
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-2.7));
            b.cvt(d, T::F32, T::S32, O::Reg(s));
        });
        assert_eq!(v as i32, -2, "round toward zero");
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::fimm(-1.0));
            b.cvt(d, T::F32, T::U32, O::Reg(s));
        });
        assert_eq!(v, 0, "negative clamps to zero for unsigned");
    }

    #[test]
    fn same_width_integer_cvt_copies_bits() {
        use crate::instr::Operand as O;
        use crate::types::DataType as T;
        for (from, to) in [(T::U32, T::S32), (T::S32, T::U32)] {
            for x in [0u32, 7, 0x8000_0000, u32::MAX] {
                let v = run_unop_env(|b, d, s| {
                    b.mov(s, O::Imm(x as i64));
                    b.cvt(d, from, to, O::Reg(s));
                });
                assert_eq!(v, x, "cvt.{to}.{from} of {x:#x}");
            }
        }
    }

    #[test]
    fn selp_picks_by_predicate() {
        use crate::instr::Operand as O;
        let v = run_unop_env(|b, d, s| {
            b.mov(s, O::Imm(10));
            let p = b.pred();
            b.setp(
                p,
                crate::instr::CmpOp::Gt,
                crate::types::DataType::S32,
                s,
                O::Imm(5),
            );
            b.selp(d, p, O::Imm(77), O::Imm(88));
        });
        assert_eq!(v, 77);
    }
}
