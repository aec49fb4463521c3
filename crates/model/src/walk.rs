//! Constant-propagating cost walk over one representative warp.
//!
//! The walk abstractly executes warp 0 of CTA (0,0,0): registers whose
//! values are warp-uniform constants (parameter loads, block/grid
//! extents, integer arithmetic over them) fold exactly, so loop trip
//! counts driven by kernel parameters unroll and the walk visits every
//! dynamic instruction the warp would issue. Thread-varying values
//! (`%tid`, `%laneid`, loads from memory) stay unknown; a branch on an
//! unknown predicate is handled structurally — divergent branches (with
//! a reconvergence point) cost both sides, unknown backward branches
//! exit the loop once — and sets the [`WalkSummary::approx`] flag.
//!
//! Costs are charged from the same [`DecodedKernel`] timing tables the
//! cycle-level scheduler issues from, which is what makes the estimate
//! comparable to the simulator at all.

use std::collections::HashMap;

use tcsim_isa::exec::{int_alu, IntSources, IntValue};
use tcsim_isa::{
    FragmentKind, Instr, Kernel, MemSpace, MemWidth, Op, Operand, SpecialReg, UnitClass,
    WmmaDirective,
};
use tcsim_sm::{DecodedKernel, SmConfig};
use tcsim_verify::LaunchGeometry;

/// Dynamic-instruction budget: a walk that exceeds it stops and flags
/// itself approximate rather than spinning on an unfolded loop.
const FUEL: u64 = 2_000_000;

/// Maximum divergent-branch nesting the walk follows exactly.
const MAX_DEPTH: u32 = 32;

/// What one warp of the kernel does, statically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkSummary {
    /// Dynamic warp instructions issued.
    pub steps: u64,
    /// Dynamic instructions per functional-unit class, indexed in
    /// [`UnitClass::ALL`] order.
    pub issued_by_unit: [u64; UnitClass::COUNT],
    /// Functional-unit occupancy cycles per class (issue intervals and,
    /// for the MIO classes, transaction cycles), same indexing.
    pub issue_cycles: [u64; UnitClass::COUNT],
    /// Dependence-chain critical path in cycles: the longest
    /// register-dataflow chain through the walked trace, using decoded
    /// latencies for ALU/tensor ops and the model's memory latency for
    /// loads.
    pub critical_path: u64,
    /// `bar.sync` executions.
    pub barriers: u64,
    /// 32-byte DRAM sectors touched by this warp's global/local
    /// accesses, assuming coalesced lanes (the perf lints flag the
    /// uncoalesced cases separately).
    pub global_sectors: u64,
    /// MIO-path transactions (shared, global, shuffle, WMMA ld/st).
    pub mio_txns: u64,
    /// Whether any unknown branch, depth cap or fuel exhaustion forced
    /// an approximation.
    pub approx: bool,
}

/// Concrete warp-uniform state: 32-bit registers, 64-bit pairs, and
/// predicates whose values folded to constants.
#[derive(Clone, Default)]
struct St {
    regs: HashMap<u16, u32>,
    pairs: HashMap<u16, u64>,
    preds: HashMap<u8, bool>,
}

impl St {
    /// Kills every written register (and any pair it is half of).
    fn kill_defs(&mut self, i: &Instr, volta: bool) {
        for r in i.def_regs(volta) {
            self.regs.remove(&r.0);
            self.pairs.remove(&r.0);
            if r.0 > 0 {
                self.pairs.remove(&(r.0 - 1));
            }
        }
        if let Some(p) = i.pred_dst {
            self.preds.remove(&p.0);
        }
    }

    /// Keeps only bindings present and equal in both states.
    fn meet(&mut self, other: &St) {
        self.regs.retain(|r, v| other.regs.get(r) == Some(v));
        self.pairs.retain(|r, v| other.pairs.get(r) == Some(v));
        self.preds.retain(|p, v| other.preds.get(p) == Some(v));
    }
}

/// Control-flow outcome of a (sub-)walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Reached the stop PC (a reconvergence point or the kernel end).
    Reached,
    /// Executed `exit` (or ran out of fuel).
    Exited,
}

struct Walker<'a> {
    kernel: &'a Kernel,
    dk: &'a DecodedKernel,
    geom: &'a LaunchGeometry,
    sm: &'a SmConfig,
    params: &'a [u8],
    mem_latency: u64,
    volta: bool,
    lanes: u64,
    fuel: u64,
    /// Cycle each 32-bit register's value becomes ready (dataflow time).
    ready: HashMap<u16, u64>,
    pready: [u64; 8],
    sum: WalkSummary,
}

/// Index of a unit class in [`UnitClass::ALL`].
fn unit_index(u: UnitClass) -> usize {
    UnitClass::ALL
        .iter()
        .position(|x| *x == u)
        .expect("unit in ALL")
}

/// Walks `kernel` as decoded for `sm` under `geom`, with the parameter
/// buffer `params` backing `ld.param` folds and `mem_latency` standing in
/// for a global-memory round trip in the critical path.
pub fn walk_kernel(
    kernel: &Kernel,
    dk: &DecodedKernel,
    geom: &LaunchGeometry,
    sm: &SmConfig,
    params: &[u8],
    mem_latency: u64,
) -> WalkSummary {
    let threads = geom.threads_per_cta() as u64;
    let mut w = Walker {
        kernel,
        dk,
        geom,
        sm,
        params,
        mem_latency,
        volta: sm.volta_tensor,
        lanes: threads.clamp(1, 32),
        fuel: FUEL,
        ready: HashMap::new(),
        pready: [0; 8],
        sum: WalkSummary::default(),
    };
    let mut st = St::default();
    let end = kernel.instrs().len();
    w.run(&mut st, 0, end, 0);
    w.sum
}

impl Walker<'_> {
    fn run(&mut self, st: &mut St, mut pc: usize, stop: usize, depth: u32) -> Flow {
        let instrs = self.kernel.instrs();
        loop {
            if pc >= stop || pc >= instrs.len() {
                return Flow::Reached;
            }
            if self.fuel == 0 {
                self.sum.approx = true;
                return Flow::Exited;
            }
            self.fuel -= 1;
            let i = &instrs[pc];
            self.account(pc, i);

            let guard = i
                .guard
                .map(|(p, sense)| (st.preds.get(&p.0).copied(), sense));
            let known = |g: Option<(Option<bool>, bool)>| -> Option<bool> {
                match g {
                    None => Some(true),
                    Some((Some(v), sense)) => Some(v == sense),
                    Some((None, _)) => None,
                }
            };
            let taken = known(guard);

            match i.op {
                Op::Exit => match taken {
                    Some(true) => return Flow::Exited,
                    // Guard false — or unknown, in which case at least
                    // the representative warp-uniform path continues.
                    _ => pc += 1,
                },
                Op::Bra => {
                    let t = i.target.expect("resolved branch target");
                    match taken {
                        Some(true) => pc = t,
                        Some(false) => pc += 1,
                        None => {
                            if let Some(rc) = i.reconv {
                                // Divergent branch: the warp pays for
                                // both sides, serialized, then rejoins.
                                if depth >= MAX_DEPTH {
                                    self.sum.approx = true;
                                    pc = rc;
                                } else {
                                    let mut side = st.clone();
                                    let f_taken = self.run(&mut side, t, rc, depth + 1);
                                    let f_fall = self.run(st, pc + 1, rc, depth + 1);
                                    st.meet(&side);
                                    if f_taken == Flow::Exited && f_fall == Flow::Exited {
                                        return Flow::Exited;
                                    }
                                    pc = rc;
                                }
                            } else if t <= pc {
                                // Unknown uniform backward branch: a
                                // loop whose trip count did not fold.
                                // Fall through (run it once) and flag.
                                self.sum.approx = true;
                                pc += 1;
                            } else {
                                // Unknown uniform forward branch: take
                                // the fall-through (cost the region).
                                self.sum.approx = true;
                                pc += 1;
                            }
                        }
                    }
                }
                _ => {
                    match taken {
                        Some(true) => self.exec(st, i),
                        Some(false) => {} // masked off: no writes
                        None => st.kill_defs(i, self.volta),
                    }
                    pc += 1;
                }
            }
        }
    }

    /// Charges issue/occupancy/latency and memory traffic for one
    /// dynamic instruction.
    fn account(&mut self, pc: usize, i: &Instr) {
        self.sum.steps += 1;
        let unit = i.op.unit();
        let ui = unit_index(unit);
        self.sum.issued_by_unit[ui] += 1;
        let t = self.dk.timing(pc);

        // Memory traffic and MIO occupancy.
        let mut txns = 0u64;
        match &i.op {
            Op::Ld { space, width } | Op::St { space, width } => match space {
                MemSpace::Global | MemSpace::Local => {
                    let sectors = (self.lanes * width.bytes()).div_ceil(32);
                    self.sum.global_sectors += sectors;
                    txns = sectors;
                }
                MemSpace::Shared => txns = 1,
                MemSpace::Param => txns = 1,
            },
            Op::Atom { space, .. } => {
                // Atomics serialize per lane.
                txns = self.lanes;
                if *space == MemSpace::Global {
                    self.sum.global_sectors += self.lanes;
                }
            }
            Op::Shfl { .. } => txns = 1,
            Op::Wmma(dir) => match dir {
                WmmaDirective::Load {
                    frag, shape, ty, ..
                } => {
                    let bytes = (frag.elements(*shape) * ty.bits() / 8) as u64;
                    txns = bytes.div_ceil(32);
                    self.sum.global_sectors += txns;
                }
                WmmaDirective::Store { shape, ty, .. } => {
                    let bytes = (FragmentKind::D.elements(*shape) * ty.bits() / 8) as u64;
                    txns = bytes.div_ceil(32);
                    self.sum.global_sectors += txns;
                }
                _ => {}
            },
            Op::Bar => self.sum.barriers += 1,
            _ => {}
        }
        self.sum.mio_txns += txns;

        // Functional-unit occupancy.
        let occupancy = match unit {
            UnitClass::Mem => txns.max(1) * self.sm.mio_cycles_per_txn,
            UnitClass::Control => 1,
            _ => t.ii.max(1) + t.bank_conflicts,
        };
        self.sum.issue_cycles[ui] += occupancy;

        // Dataflow critical path.
        let lat = match unit {
            UnitClass::Mem => match &i.op {
                Op::Ld {
                    space: MemSpace::Shared,
                    ..
                }
                | Op::St {
                    space: MemSpace::Shared,
                    ..
                }
                | Op::Atom {
                    space: MemSpace::Shared,
                    ..
                } => self.sm.shared_latency,
                Op::Ld {
                    space: MemSpace::Param,
                    ..
                } => self.sm.shared_latency,
                Op::Shfl { .. } => self.sm.shared_latency,
                Op::Wmma(WmmaDirective::Load { .. } | WmmaDirective::Store { .. }) => {
                    self.mem_latency
                }
                _ => self.mem_latency,
            },
            UnitClass::Control => 0,
            _ => t.latency,
        };
        let mut start = 0u64;
        for r in self.dk.uops().uses(pc) {
            start = start.max(self.ready.get(&r.0).copied().unwrap_or(0));
        }
        if let Some((p, _)) = i.guard {
            start = start.max(self.pready[p.0 as usize % 8]);
        }
        let finish = start + lat;
        for r in self.dk.uops().defs(pc) {
            self.ready.insert(r.0, finish);
        }
        if let Some(p) = i.pred_dst {
            self.pready[p.0 as usize % 8] = finish;
        }
        self.sum.critical_path = self.sum.critical_path.max(finish);
    }

    fn special32(&self, s: SpecialReg) -> Option<u32> {
        match s {
            SpecialReg::CtaIdX | SpecialReg::CtaIdY | SpecialReg::CtaIdZ => Some(0),
            SpecialReg::NTidX => Some(self.geom.block.x),
            SpecialReg::NTidY => Some(self.geom.block.y),
            SpecialReg::NCtaIdX => Some(self.geom.grid.x),
            SpecialReg::NCtaIdY => Some(self.geom.grid.y),
            // Thread-varying within the warp.
            _ => None,
        }
    }

    fn eval32(&self, st: &St, op: &Operand) -> Option<u32> {
        match op {
            Operand::Imm(v) => Some(*v as u32),
            Operand::Reg(r) => st.regs.get(&r.0).copied(),
            Operand::Special(s) => self.special32(*s),
            _ => None,
        }
    }

    fn eval64(&self, st: &St, op: &Operand) -> Option<u64> {
        match op {
            Operand::Imm(v) => Some(*v as u64),
            Operand::RegPair(r) => st.pairs.get(&r.0).copied(),
            // A plain register zero-extends, as the executor's value64.
            Operand::Reg(r) => st.regs.get(&r.0).map(|v| *v as u64),
            _ => None,
        }
    }

    /// Folds the instruction's value semantics into `st`: integer ops
    /// through the simulator's own [`int_alu`], plus `ld.param` from the
    /// parameter buffer; anything else (or any unknown source) kills its
    /// definitions.
    fn exec(&self, st: &mut St, i: &Instr) {
        let v = match i.op {
            Op::Ld {
                space: MemSpace::Param,
                width: MemWidth::B32,
            } => self
                .param_load(st, i, 4)
                .map(|b| IntValue::B32(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))),
            Op::Ld {
                space: MemSpace::Param,
                width: MemWidth::B64,
            } => self
                .param_load(st, i, 8)
                .map(|b| IntValue::B64(u64_from_le(b))),
            op => int_alu(
                op,
                &Folded {
                    walker: self,
                    st,
                    srcs: &i.srcs,
                },
            ),
        };

        // Write-through: defs first killed, then concrete values bound.
        st.kill_defs(i, self.volta);
        match (v, i.dst, i.pred_dst) {
            (Some(IntValue::B32(v)), Some(dst), _) => {
                st.regs.insert(dst.0, v);
            }
            (Some(IntValue::B64(v)), Some(dst), _) => {
                st.pairs.insert(dst.0, v);
            }
            (Some(IntValue::Pred(v)), _, Some(p)) => {
                st.preds.insert(p.0, v);
            }
            _ => {}
        }
    }

    /// Reads `bytes` from the parameter buffer for a `ld.param` whose
    /// address folds to a constant.
    fn param_load(&self, st: &St, i: &Instr, bytes: usize) -> Option<&[u8]> {
        let base = self.eval32(st, &i.srcs[0])? as i64;
        let off = match i.srcs.get(1) {
            Some(Operand::Imm(v)) => *v,
            _ => 0,
        };
        let addr = usize::try_from(base + off).ok()?;
        self.params.get(addr..addr + bytes)
    }
}

/// One instruction's sources as the walk knows them: the constants it
/// has folded, `None` for everything else.
struct Folded<'a> {
    walker: &'a Walker<'a>,
    st: &'a St,
    srcs: &'a [Operand],
}

impl IntSources for Folded<'_> {
    fn b32(&self, i: usize) -> Option<u32> {
        self.walker.eval32(self.st, self.srcs.get(i)?)
    }

    fn b64(&self, i: usize) -> Option<u64> {
        self.walker.eval64(self.st, self.srcs.get(i)?)
    }

    fn pred(&self, i: usize) -> Option<bool> {
        match self.srcs.get(i)? {
            Operand::Pred(p) => self.st.preds.get(&p.0).copied(),
            _ => None,
        }
    }
}

fn u64_from_le(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsim_isa::{CmpOp, DataType, KernelBuilder, PredReg};

    fn walk(k: &Kernel, geom: &LaunchGeometry, params: &[u8]) -> WalkSummary {
        let sm = SmConfig::volta();
        let dk = DecodedKernel::decode(k, &sm);
        walk_kernel(k, &dk, geom, &sm, params, 150)
    }

    #[test]
    fn straight_line_counts_every_instruction() {
        let mut b = KernelBuilder::new("t");
        let r = b.reg();
        b.mov(r, Operand::Imm(1));
        b.iadd(r, r, Operand::Imm(2));
        b.exit();
        let k = b.build();
        let s = walk(&k, &LaunchGeometry::new((1, 1, 1), (32, 1, 1)), &[]);
        assert_eq!(s.steps, 3);
        assert!(!s.approx);
        assert_eq!(s.issued_by_unit[unit_index(UnitClass::Int)], 2);
        assert_eq!(s.issued_by_unit[unit_index(UnitClass::Control)], 1);
    }

    #[test]
    fn param_driven_loop_unrolls_exactly() {
        // for (i = 0; i < n; i++) {} with n = 5 from the param buffer.
        let mut b = KernelBuilder::new("loop");
        let pn = b.param_u32("n");
        let n = b.reg();
        let i = b.reg();
        let p = PredReg(0);
        b.ld_param(MemWidth::B32, n, pn);
        b.mov(i, Operand::Imm(0));
        let head = b.label();
        let done = b.label();
        b.place(head);
        b.setp(p, CmpOp::Ge, DataType::S32, i, Operand::Reg(n));
        b.bra_if(p, true, done);
        b.iadd(i, i, Operand::Imm(1));
        b.bra(head);
        b.place(done);
        b.exit();
        let k = b.build();

        let s = walk(
            &k,
            &LaunchGeometry::new((1, 1, 1), (32, 1, 1)),
            &5u32.to_le_bytes(),
        );
        assert!(!s.approx, "loop bound should fold from the param buffer");
        // 2 setup + 5×(setp, bra, iadd, bra) + final (setp, taken bra) + exit.
        assert_eq!(s.steps, 2 + 5 * 4 + 2 + 1);
    }

    #[test]
    fn folded_integer_ops_match_the_executor() {
        use tcsim_isa::exec::{run_warp, ExecEnv, NoWmma, WarpExec, FULL_MASK};
        use tcsim_isa::{Dim3, Instr, Reg, VecMemory};

        // Every op the walk folds computes the trip count of its own
        // counted loop, from parameter-buffer inputs a = 7, b = 3, c = 2
        // and the pair w = 5. A walk that wires any operand differently
        // from the executor unrolls a different number of iterations.
        let mut b = KernelBuilder::new("alu");
        let (pa, pb, pc, pw) = (
            b.param_u32("a"),
            b.param_u32("b"),
            b.param_u32("c"),
            b.param_u64("w"),
        );
        let (a, bb, c, w) = (b.reg(), b.reg(), b.reg(), b.reg_pair());
        b.ld_param(MemWidth::B32, a, pa);
        b.ld_param(MemWidth::B32, bb, pb);
        b.ld_param(MemWidth::B32, c, pc);
        b.ld_param(MemWidth::B64, w, pw);
        let (n, t, i) = (b.reg(), b.reg(), b.reg());
        let (wide, wide2) = (b.reg_pair(), b.reg_pair());
        let (p, q) = (b.pred(), b.pred());
        let mut trips = Vec::new();
        let mut count_to = |b: &mut KernelBuilder, trip: u32| {
            trips.push(trip);
            b.mov(i, Operand::Imm(0));
            let head = b.label();
            let done = b.label();
            b.place(head);
            b.setp(q, CmpOp::Ge, DataType::S32, i, Operand::Reg(n));
            b.bra_if(q, true, done);
            b.iadd(i, i, Operand::Imm(1));
            b.bra(head);
            b.place(done);
        };
        let setp64 = |b: &mut KernelBuilder, cmp, x: Reg, y: Reg| {
            let mut s = Instr::new(Op::Setp {
                cmp,
                ty: DataType::U64,
            })
            .with_srcs(vec![Operand::RegPair(x), Operand::RegPair(y)]);
            s.pred_dst = Some(p);
            b.emit(s);
        };
        let emit = |b: &mut KernelBuilder, op: Op, srcs: Vec<Operand>| {
            b.emit(Instr::new(op).with_dst(n).with_srcs(srcs));
        };
        let (ra, rb, rc) = (Operand::Reg(a), Operand::Reg(bb), Operand::Reg(c));

        b.mov(n, ra);
        count_to(&mut b, 7);
        b.iadd(n, a, rb);
        count_to(&mut b, 10);
        b.isub(n, a, rb);
        count_to(&mut b, 4);
        b.imul(n, a, rb);
        count_to(&mut b, 21);
        b.imad(n, a, rb, rc);
        count_to(&mut b, 23);
        b.shl(n, c, rb);
        count_to(&mut b, 16);
        b.shr(n, a, Operand::Imm(1));
        count_to(&mut b, 3);
        b.and(n, a, Operand::Imm(13));
        count_to(&mut b, 5);
        b.or(n, c, Operand::Imm(9));
        count_to(&mut b, 11);
        b.xor(n, a, rb);
        count_to(&mut b, 4);
        // t = !b = -4: the signed ops see a negative, the unsigned a huge value.
        emit(&mut b, Op::Not, vec![rb]);
        b.mov(t, Operand::Reg(n));
        b.iadd(n, n, Operand::Imm(10));
        count_to(&mut b, 6);
        b.imin(n, t, Operand::Imm(9));
        b.iadd(n, n, Operand::Imm(12));
        count_to(&mut b, 8);
        b.imax(n, t, rc);
        count_to(&mut b, 2);
        emit(&mut b, Op::Sar, vec![Operand::Reg(t), Operand::Imm(1)]);
        b.iadd(n, n, Operand::Imm(9));
        count_to(&mut b, 7);
        b.cvt(n, DataType::U32, DataType::S32, ra);
        count_to(&mut b, 7);
        b.cvt(n, DataType::S32, DataType::U32, rb);
        count_to(&mut b, 3);
        // 64-bit: w = 5 from the parameter buffer, a = 7 widened.
        b.iadd64(wide, w, Operand::Imm(4));
        b.cvt(n, DataType::U64, DataType::U32, Operand::RegPair(wide));
        count_to(&mut b, 9);
        b.imad_wide(wide, a, rb, w);
        b.cvt(n, DataType::U64, DataType::U32, Operand::RegPair(wide));
        count_to(&mut b, 26);
        b.cvt(wide2, DataType::U32, DataType::U64, ra);
        b.mov64(wide, Operand::RegPair(wide2));
        b.iadd64(wide, wide, Operand::RegPair(w));
        b.cvt(n, DataType::U64, DataType::U32, Operand::RegPair(wide));
        count_to(&mut b, 12);
        // selp on each integer setp ordering.
        b.setp(p, CmpOp::Lt, DataType::S32, t, rc);
        b.selp(n, p, ra, rb);
        count_to(&mut b, 7);
        b.setp(p, CmpOp::Lt, DataType::U32, t, rc);
        b.selp(n, p, ra, rb);
        count_to(&mut b, 3);
        setp64(&mut b, CmpOp::Gt, w, wide2);
        b.selp(n, p, ra, rc);
        count_to(&mut b, 2);
        b.exit();
        let k = b.build();

        let mut params = vec![0u8; k.param_bytes() as usize];
        for (name, v) in [("a", 7u64), ("b", 3), ("c", 2), ("w", 5)] {
            let off = k.param_offset(name) as usize;
            let bytes = if name == "w" { 8 } else { 4 };
            params[off..off + bytes].copy_from_slice(&v.to_le_bytes()[..bytes]);
        }
        let s = walk(&k, &LaunchGeometry::new((1, 1, 1), (32, 1, 1)), &params);
        assert!(!s.approx, "every loop bound should fold");

        let (mut global, mut shared) = (VecMemory::new(), VecMemory::new());
        let mut env = ExecEnv {
            global: &mut global,
            shared: &mut shared,
            params: &params,
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: Dim3::new(0, 0, 0),
            clock: 0,
        };
        let mut warp = WarpExec::new(k.num_regs(), 0, FULL_MASK);
        let executed = run_warp(&mut warp, &k, &mut env, &NoWmma, 10_000);
        assert_eq!(s.steps, executed as u64);

        // Straight-line code runs once; each 5-instruction loop runs its
        // mov once, (setp, bra, iadd, bra) per trip and a final setp, bra.
        let straight = k.instrs().len() - 5 * trips.len();
        let looped: usize = trips.iter().map(|&n| 3 + 4 * n as usize).sum();
        assert_eq!(executed, straight + looped);
    }

    #[test]
    fn divergent_branch_costs_both_sides() {
        let mut b = KernelBuilder::new("div");
        let t = b.reg();
        let p = PredReg(0);
        b.mov(t, Operand::Special(SpecialReg::TidX));
        b.setp(p, CmpOp::Lt, DataType::U32, t, Operand::Imm(16));
        let join = b.label();
        b.bra_div(p, true, join, join);
        // fall-through side: 3 iadds; taken side is empty.
        for _ in 0..3 {
            b.iadd(t, t, Operand::Imm(1));
        }
        b.place(join);
        b.exit();
        let k = b.build();
        let s = walk(&k, &LaunchGeometry::new((1, 1, 1), (32, 1, 1)), &[]);
        // mov, setp, bra, 3 iadds (fall side; taken side is empty), exit.
        assert_eq!(s.steps, 7);
        assert!(!s.approx);
    }

    #[test]
    fn critical_path_sees_dependent_chain() {
        let mut b = KernelBuilder::new("chain");
        let a = b.reg();
        let c = b.reg();
        b.mov(a, Operand::Imm(1));
        b.fadd(a, a, Operand::Reg(a));
        b.fadd(a, a, Operand::Reg(a));
        b.fadd(c, a, Operand::Reg(a));
        b.exit();
        let k = b.build();
        let sm = SmConfig::volta();
        let s = walk(&k, &LaunchGeometry::new((1, 1, 1), (32, 1, 1)), &[]);
        // Four dependent ALU ops at alu_latency each.
        assert_eq!(s.critical_path, 4 * sm.alu_latency);
    }

    #[test]
    fn global_load_charges_sectors_and_latency() {
        let mut b = KernelBuilder::new("g");
        let pp = b.param_u64("p");
        let addr = b.reg_pair();
        let d = b.reg();
        b.ld_param(MemWidth::B64, addr, pp);
        b.ld_global(MemWidth::B32, d, addr, 0);
        b.iadd(d, d, Operand::Imm(1));
        b.exit();
        let k = b.build();
        let s = walk(
            &k,
            &LaunchGeometry::new((1, 1, 1), (32, 1, 1)),
            &64u64.to_le_bytes(),
        );
        // 32 lanes × 4B = 128B = 4 sectors.
        assert_eq!(s.global_sectors, 4);
        // ld.param + ld.global dependent chain dominates: shared_latency
        // (param) + mem latency (150) + alu.
        let sm = SmConfig::volta();
        assert_eq!(s.critical_path, sm.shared_latency + 150 + sm.alu_latency);
    }

    #[test]
    fn unknown_backward_branch_flags_approx() {
        // Loop bound comes from tid — cannot fold; walk must terminate.
        let mut b = KernelBuilder::new("t");
        let t = b.reg();
        let p = PredReg(0);
        b.mov(t, Operand::Special(SpecialReg::TidX));
        let head = b.label();
        b.place(head);
        b.setp(p, CmpOp::Gt, DataType::S32, t, Operand::Imm(0));
        b.iadd(t, t, Operand::Imm(-1));
        b.bra_if(p, true, head);
        b.exit();
        let k = b.build();
        let s = walk(&k, &LaunchGeometry::new((1, 1, 1), (32, 1, 1)), &[]);
        assert!(s.approx);
        assert!(s.steps < 20);
    }
}
