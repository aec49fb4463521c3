//! Per-warp scoreboard tracking in-flight register writes (RAW/WAW
//! hazards), as the paper's GPGPU-Sim changes do for `wmma.mma` (§V-A:
//! "We updated the scoreboard to check for RAW and WAW hazard associated
//! with wmma.mma instructions").
//!
//! The state is dense per-register arrays, so the hot hazard check is a
//! slice walk with no hashing or allocation:
//!
//! * an entry is *pending* iff `ready[r] > now` — stale entries need no
//!   explicit retire pass, they are simply skipped;
//! * [`DenseScoreboard::issue`] keeps the **latest** completion per
//!   register (overwrite-if-greater, OR the memory flag on ties);
//! * completion times never decrease, so a running maximum is exact for
//!   [`DenseScoreboard::all_clear_at`]: if the max is in the past, every
//!   entry is.

use tcsim_isa::Reg;

/// A blocking dependency found by [`DenseScoreboard::check`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// Cycle at which the last blocking write completes.
    pub ready: u64,
    /// Whether any blocking write is an outstanding memory load — this
    /// is what turns a scoreboard stall into a *memory* stall rather
    /// than a plain RAW dependency in the trace breakdown.
    pub from_mem: bool,
}

/// Dense in-flight write tracking for one warp (indexed by register
/// number, sized to the kernel's register count).
#[derive(Clone, Debug)]
pub struct DenseScoreboard {
    /// Cycle each register's latest in-flight write completes (0 = never
    /// written, always ready).
    ready: Box<[u64]>,
    /// Whether that write came from the memory unit.
    from_mem: Box<[bool]>,
    /// Max over all completion times ever recorded.
    max_ready: u64,
}

impl DenseScoreboard {
    /// An empty scoreboard covering registers `0..num_regs`.
    pub fn new(num_regs: usize) -> DenseScoreboard {
        DenseScoreboard {
            ready: vec![0; num_regs].into_boxed_slice(),
            from_mem: vec![false; num_regs].into_boxed_slice(),
            max_ready: 0,
        }
    }

    /// Whether an instruction reading `uses` and writing `defs` can issue
    /// at `now`; returns the blocking [`Hazard`] (latest completion, OR of
    /// memory-origin flags) otherwise: every register it reads (RAW) or
    /// writes (WAW) must be free of pending writes.
    pub fn check(&self, uses: &[Reg], defs: &[Reg], now: u64) -> Result<(), Hazard> {
        let mut block: Option<Hazard> = None;
        for &r in uses.iter().chain(defs) {
            let ready = self.ready[r.0 as usize];
            if ready > now {
                let from_mem = self.from_mem[r.0 as usize];
                block = Some(match block {
                    None => Hazard { ready, from_mem },
                    Some(h) => Hazard {
                        ready: h.ready.max(ready),
                        from_mem: h.from_mem || from_mem,
                    },
                });
            }
        }
        match block {
            None => Ok(()),
            Some(h) => Err(h),
        }
    }

    /// Records an issued instruction's writes to `defs` completing at
    /// `ready`.
    pub fn issue(&mut self, defs: &[Reg], ready: u64, from_mem: bool) {
        // `max_ready` advances only on actual register writes: an
        // instruction without defs (e.g. a store) leaves nothing pending
        // and must not move the barrier fence.
        for &r in defs {
            let slot = &mut self.ready[r.0 as usize];
            if ready > *slot {
                *slot = ready;
                self.from_mem[r.0 as usize] = from_mem;
            } else if ready == *slot {
                self.from_mem[r.0 as usize] |= from_mem;
            }
            self.max_ready = self.max_ready.max(ready);
        }
    }

    /// Cycle when every pending write has completed (`now` if none) —
    /// the barrier-fence query.
    pub fn all_clear_at(&self, now: u64) -> u64 {
        self.max_ready.max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u16) -> Reg {
        Reg(n)
    }

    #[test]
    fn raw_and_waw_block_until_completion() {
        let mut sb = DenseScoreboard::new(8);
        sb.issue(&[r(1)], 50, false);
        assert_eq!(
            sb.check(&[r(1)], &[r(2)], 10),
            Err(Hazard {
                ready: 50,
                from_mem: false
            })
        );
        assert_eq!(
            sb.check(&[r(4)], &[r(1)], 20),
            Err(Hazard {
                ready: 50,
                from_mem: false
            })
        );
        assert_eq!(sb.check(&[r(1)], &[r(2)], 50), Ok(()));
    }

    #[test]
    fn latest_writer_wins_and_memory_flag_tracks_it() {
        let mut sb = DenseScoreboard::new(8);
        sb.issue(&[r(1)], 200, true);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 200,
                from_mem: true
            })
        );
        // A later ALU overwrite clears the memory attribution.
        sb.issue(&[r(1)], 300, false);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 300,
                from_mem: false
            })
        );
        // An *earlier* completion must not mask the pending one.
        sb.issue(&[r(1)], 250, true);
        assert_eq!(
            sb.check(&[r(1)], &[], 10),
            Err(Hazard {
                ready: 300,
                from_mem: false
            })
        );
    }

    #[test]
    fn all_clear_tracks_running_max() {
        let mut sb = DenseScoreboard::new(8);
        assert_eq!(sb.all_clear_at(7), 7);
        sb.issue(&[r(3)], 40, false);
        sb.issue(&[r(5)], 25, true);
        assert_eq!(sb.all_clear_at(10), 40);
        assert_eq!(sb.all_clear_at(90), 90);
    }

    #[test]
    fn independent_instructions_issue_freely() {
        let mut sb = DenseScoreboard::new(8);
        sb.issue(&[r(1)], 100, false);
        assert_eq!(sb.check(&[r(6)], &[r(5)], 1), Ok(()));
        assert_eq!(sb.all_clear_at(1), 100);
    }

    #[test]
    fn completed_writes_stop_blocking_exactly_at_their_cycle() {
        let mut sb = DenseScoreboard::new(8);
        sb.issue(&[r(1)], 10, false);
        sb.issue(&[r(2)], 20, false);
        assert_eq!(sb.check(&[r(1)], &[r(4)], 15), Ok(()));
        assert_eq!(
            sb.check(&[r(2)], &[r(4)], 15),
            Err(Hazard {
                ready: 20,
                from_mem: false
            })
        );
        assert_eq!(sb.check(&[r(2)], &[r(4)], 20), Ok(()));
    }

    #[test]
    fn memory_origin_flag_propagates_through_mixed_dependences() {
        let mut sb = DenseScoreboard::new(8);
        sb.issue(&[r(1)], 200, true);
        sb.issue(&[r(2)], 40, false);
        let load = Hazard {
            ready: 200,
            from_mem: true,
        };
        // Blocking on the load alone: a memory stall.
        assert_eq!(sb.check(&[r(1)], &[r(3)], 10), Err(load));
        // Blocking on both: the flag propagates even though the ALU
        // write is also outstanding.
        assert_eq!(sb.check(&[r(1), r(2)], &[r(4)], 10), Err(load));
        // Blocking on the ALU write alone: plain RAW.
        assert_eq!(
            sb.check(&[r(2)], &[r(5)], 10),
            Err(Hazard {
                ready: 40,
                from_mem: false
            })
        );
    }

    /// A dependent chain of moves and loads, each probed before it
    /// issues at its scheduled cycle, 17 cycles later, one cycle before
    /// its own completion and at its completion.
    #[test]
    fn mixed_sequence_reports_fixed_hazards() {
        struct Step {
            /// `def ← f(uses)`, completing at `ready`.
            uses: u16,
            def: u16,
            ready: u64,
            from_mem: bool,
            /// Expected `check` at each probe: `Some((ready, from_mem))`
            /// of the blocking hazard, or `None` if free to issue.
            checks: [Option<(u64, bool)>; 4],
            /// Expected `all_clear_at` at each probe.
            clear: [u64; 4],
        }
        let step = |uses, def, ready, from_mem, checks, clear| Step {
            uses,
            def,
            ready,
            from_mem,
            checks,
            clear,
        };
        let program = [
            // mov r1, r0
            step(0, 1, 50, false, [None; 4], [0, 17, 49, 50]),
            // ld r2, [r1]
            step(
                1,
                2,
                180,
                true,
                [Some((50, false)), Some((50, false)), None, None],
                [50, 50, 179, 180],
            ),
            // mov r3, r2
            step(2, 3, 60, false, [Some((180, true)); 4], [180; 4]),
            // ld r1, [r3]
            step(
                3,
                1,
                300,
                true,
                [Some((60, false)), Some((60, false)), None, None],
                [180, 180, 299, 300],
            ),
            // mov r4, r1
            step(
                1,
                4,
                310,
                false,
                [Some((300, true)), Some((300, true)), None, None],
                [300, 300, 309, 310],
            ),
        ];
        let mut sb = DenseScoreboard::new(16);
        for (i, s) in program.iter().enumerate() {
            let now = 13 * i as u64;
            for (k, probe) in [now, now + 17, s.ready - 1, s.ready]
                .into_iter()
                .enumerate()
            {
                let want = match s.checks[k] {
                    None => Ok(()),
                    Some((ready, from_mem)) => Err(Hazard { ready, from_mem }),
                };
                let at = format!("instruction {i}, cycle {probe}");
                assert_eq!(sb.check(&[r(s.uses)], &[r(s.def)], probe), want, "{at}");
                assert_eq!(sb.all_clear_at(probe), s.clear[k], "{at}");
            }
            sb.issue(&[r(s.def)], s.ready, s.from_mem);
        }
    }
}
