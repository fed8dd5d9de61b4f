//! Linear-scan register allocation (Poletto/Sarkar style) with spilling.
//!
//! Values that live across calls only take callee-saved registers (or
//! spill), so the finalizer's ABI expansion never has to save caller-saved
//! state around calls. Two registers per class are reserved as assembler
//! scratch for spill reloads and parallel-copy cycle breaking.

use crate::liveness::Interval;
use crate::vcode::{VFunc, Vr};

/// Reserved integer scratch registers (never allocated).
pub const INT_SCRATCH: [u8; 2] = [7, 8];
/// Reserved float scratch registers (never allocated).
pub const FLT_SCRATCH: [u8; 2] = [6, 7];

/// Allocatable caller-saved GPRs.
pub const INT_CALLER: [u8; 7] = [0, 1, 2, 3, 4, 5, 6];
/// Allocatable callee-saved GPRs.
pub const INT_CALLEE: [u8; 5] = [9, 10, 11, 12, 13];
/// Allocatable caller-saved FPRs (all of them — x64 SysV has no
/// callee-saved XMM registers, so float values crossing calls must spill,
/// which is why call-based LLFI instrumentation is so costly for FP codes).
pub const FLT_CALLER: [u8; 14] = [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15];
/// Allocatable callee-saved FPRs: none, as on x64 SysV.
pub const FLT_CALLEE: [u8; 0] = [];

/// Where a virtual register lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A physical register of the vreg's class.
    Reg(u8),
    /// A frame spill slot (8 bytes), numbered from 0.
    Slot(u32),
}

/// Allocation result for one function.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// vreg -> location, one table per class indexed by vreg number
    /// (`[integer, float]`).
    locs: [Vec<Option<Loc>>; 2],
    /// Number of spill slots used.
    pub n_slots: u32,
    /// Callee-saved GPRs written by this function (must be saved).
    pub used_callee_int: Vec<u8>,
    /// Callee-saved FPRs written by this function.
    pub used_callee_flt: Vec<u8>,
}

impl Allocation {
    /// Location of a vreg (must have been allocated).
    pub fn loc(&self, v: Vr) -> Loc {
        self.locs[!v.is_int() as usize]
            .get(v.num() as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("unallocated vreg {v:?}"))
    }

    fn set(&mut self, v: Vr, loc: Loc) {
        let locs = &mut self.locs[!v.is_int() as usize];
        if locs.len() <= v.num() as usize {
            locs.resize(v.num() as usize + 1, None);
        }
        locs[v.num() as usize] = Some(loc);
    }
}

/// Run linear scan over the intervals of `f`.
pub fn allocate(f: &VFunc, intervals: &[Interval], _call_sites: &[u32]) -> Allocation {
    let mut alloc = Allocation::default();

    // One scan per register class keeps pool bookkeeping simple.
    for int_class in [true, false] {
        let caller: &[u8] = if int_class { &INT_CALLER } else { &FLT_CALLER };
        let callee: &[u8] = if int_class { &INT_CALLEE } else { &FLT_CALLEE };
        let mut free_caller: Vec<u8> = caller.to_vec();
        let mut free_callee: Vec<u8> = callee.to_vec();
        // Active intervals: (end, vreg, reg), kept sorted by end.
        let mut active: Vec<(u32, Vr, u8)> = Vec::new();

        for iv in intervals.iter().filter(|i| i.vreg.is_int() == int_class) {
            // Expire finished intervals.
            active.retain(|&(end, _, reg)| {
                if end <= iv.start {
                    if callee.contains(&reg) {
                        free_callee.push(reg);
                    } else {
                        free_caller.push(reg);
                    }
                    false
                } else {
                    true
                }
            });

            // Pick a register respecting the cross-call constraint.
            let reg = if iv.crosses_call {
                free_callee.pop()
            } else {
                free_caller.pop().or_else(|| free_callee.pop())
            };

            match reg {
                Some(r) => {
                    alloc.set(iv.vreg, Loc::Reg(r));
                    let pos = active.partition_point(|&(e, _, _)| e <= iv.end);
                    active.insert(pos, (iv.end, iv.vreg, r));
                }
                None => {
                    // Spill: evict the active interval with the furthest end
                    // whose register we are allowed to use, if it outlives us.
                    let victim = active
                        .iter()
                        .rposition(|&(_, _, r)| !iv.crosses_call || callee.contains(&r));
                    match victim {
                        Some(vi) if active[vi].0 > iv.end => {
                            let (vend, vreg, r) = active.remove(vi);
                            // Safety: the victim may itself cross a call; its
                            // register must remain legal for us and the slot
                            // legal for it — slots are always legal.
                            let _ = vend;
                            let slot = alloc.n_slots;
                            alloc.n_slots += 1;
                            alloc.set(vreg, Loc::Slot(slot));
                            alloc.set(iv.vreg, Loc::Reg(r));
                            let pos = active.partition_point(|&(e, _, _)| e <= iv.end);
                            active.insert(pos, (iv.end, iv.vreg, r));
                        }
                        _ => {
                            let slot = alloc.n_slots;
                            alloc.n_slots += 1;
                            alloc.set(iv.vreg, Loc::Slot(slot));
                        }
                    }
                }
            }
        }
    }

    // Record which callee-saved registers were actually handed out.
    let classes: [(&[u8], &mut Vec<u8>); 2] =
        [(&INT_CALLEE, &mut alloc.used_callee_int), (&FLT_CALLEE, &mut alloc.used_callee_flt)];
    for ((callee, used), locs) in classes.into_iter().zip(&alloc.locs) {
        for loc in locs.iter().flatten() {
            if let &Loc::Reg(r) = loc {
                if callee.contains(&r) && !used.contains(&r) {
                    used.push(r);
                }
            }
        }
    }
    alloc.used_callee_int.sort_unstable();
    alloc.used_callee_flt.sort_unstable();
    let _ = f;
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(n: u32, start: u32, end: u32, crosses: bool) -> Interval {
        Interval { vreg: Vr::Int(n), start, end, crosses_call: crosses }
    }

    fn empty_func() -> VFunc {
        VFunc {
            name: "t".into(),
            blocks: vec![],
            n_int: 0,
            n_flt: 0,
            alloca_words: vec![],
            params: vec![],
        }
    }

    #[test]
    fn disjoint_intervals_share_a_register_pool() {
        let ints = vec![iv(0, 0, 2, false), iv(1, 2, 4, false), iv(2, 4, 6, false)];
        let a = allocate(&empty_func(), &ints, &[]);
        for k in 0..3 {
            assert!(matches!(a.loc(Vr::Int(k)), Loc::Reg(_)));
        }
        assert_eq!(a.n_slots, 0);
    }

    #[test]
    fn no_two_overlapping_intervals_share_a_register() {
        // 20 all-overlapping intervals: 12 allocatable int regs -> 8 spills.
        let ints: Vec<Interval> = (0..20).map(|k| iv(k, 0, 100, false)).collect();
        let a = allocate(&empty_func(), &ints, &[]);
        let mut regs = std::collections::HashSet::new();
        let mut slots = 0;
        for k in 0..20 {
            match a.loc(Vr::Int(k)) {
                Loc::Reg(r) => assert!(regs.insert(r), "register {r} assigned twice"),
                Loc::Slot(_) => slots += 1,
            }
        }
        assert_eq!(regs.len(), 12);
        assert_eq!(slots, 8);
        assert_eq!(a.n_slots, 8);
    }

    #[test]
    fn cross_call_values_get_callee_saved_or_spill() {
        let ints: Vec<Interval> = (0..8).map(|k| iv(k, 0, 100, true)).collect();
        let a = allocate(&empty_func(), &ints, &[50]);
        for k in 0..8 {
            match a.loc(Vr::Int(k)) {
                Loc::Reg(r) => {
                    assert!(INT_CALLEE.contains(&r), "cross-call vreg in caller-saved r{r}")
                }
                Loc::Slot(_) => {}
            }
        }
        // 5 callee-saved regs, 8 candidates -> exactly 3 spills.
        assert_eq!(a.n_slots, 3);
        assert_eq!(a.used_callee_int.len(), 5);
    }

    #[test]
    fn spill_prefers_furthest_end() {
        // Fill all 12 registers with long intervals, then a short one
        // arrives: the furthest-ending victim is evicted in its favor.
        let mut ints: Vec<Interval> = (0..12).map(|k| iv(k, 0, 1000 + k, false)).collect();
        ints.push(iv(99, 5, 10, false));
        ints.sort_by_key(|i| i.start);
        let a = allocate(&empty_func(), &ints, &[]);
        assert!(matches!(a.loc(Vr::Int(99)), Loc::Reg(_)));
        assert!(matches!(a.loc(Vr::Int(11)), Loc::Slot(_)), "furthest interval spilled");
    }

    #[test]
    fn classes_are_independent() {
        let mut ints: Vec<Interval> = (0..12).map(|k| iv(k, 0, 100, false)).collect();
        ints.extend((0..14).map(|k| Interval {
            vreg: Vr::Flt(k),
            start: 0,
            end: 100,
            crosses_call: false,
        }));
        ints.sort_by_key(|i| (i.start, i.end, i.vreg));
        let a = allocate(&empty_func(), &ints, &[]);
        assert_eq!(a.n_slots, 0, "both files fit simultaneously");
    }
}
