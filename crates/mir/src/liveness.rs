//! Dataflow liveness and live-interval construction for linear scan.

use crate::vcode::{VFunc, Vr};
#[cfg(test)]
use crate::vcode::VInst;

/// A live interval over the linearized instruction numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The virtual register.
    pub vreg: Vr,
    /// First position where the value is live (its earliest definition, or
    /// the start of the earliest block it is live into).
    pub start: u32,
    /// One past the last position where the value is read (or block end
    /// where it is live-out).
    pub end: u32,
    /// True when a call-like instruction executes strictly inside the
    /// interval: the value must survive the call, so it cannot live in a
    /// caller-saved register.
    pub crosses_call: bool,
}

/// A fixed-size set of dense vreg indices (see [`VFunc::dense`]).
#[derive(Clone, PartialEq)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: usize) -> BitSet {
        BitSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// Liveness analysis result: intervals (sorted by start) and the positions
/// of call-like instructions (ascending).
pub fn analyze(f: &VFunc) -> (Vec<Interval>, Vec<u32>) {
    let nb = f.blocks.len();
    let nv = (f.n_int + f.n_flt) as usize;
    // Linear positions.
    let mut block_start = vec![0u32; nb];
    let mut block_end = vec![0u32; nb];
    let mut pos = 0u32;
    for (bi, b) in f.blocks.iter().enumerate() {
        block_start[bi] = pos;
        pos += b.insts.len() as u32;
        block_end[bi] = pos;
    }

    // Per-block use/def/live sets over dense vreg indices.
    let mut gen = vec![BitSet::new(nv); nb];
    let mut kill = vec![BitSet::new(nv); nb];
    for (bi, b) in f.blocks.iter().enumerate() {
        let (gen, kill) = (&mut gen[bi], &mut kill[bi]);
        for inst in &b.insts {
            inst.for_each_use(|u| {
                if !kill.contains(f.dense(u)) {
                    gen.insert(f.dense(u));
                }
            });
            if let Some(d) = inst.def() {
                kill.insert(f.dense(d));
            }
        }
    }

    // Backward fixpoint: live_out = union of the successors' live_in,
    // live_in = gen | (live_out & !kill).
    let succs: Vec<Vec<u32>> = (0..nb).map(|bi| f.successors(bi)).collect();
    let mut live_in = vec![BitSet::new(nv); nb];
    let mut live_out = vec![BitSet::new(nv); nb];
    let mut out = BitSet::new(nv);
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nb).rev() {
            out.0.fill(0);
            for &s in &succs[bi] {
                for (o, i) in out.0.iter_mut().zip(&live_in[s as usize].0) {
                    *o |= i;
                }
            }
            if out != live_out[bi] {
                live_out[bi].0.copy_from_slice(&out.0);
                changed = true;
            }
            let (g, k) = (&gen[bi].0, &kill[bi].0);
            for (w, i) in live_in[bi].0.iter_mut().enumerate() {
                let new = g[w] | (out.0[w] & !k[w]);
                changed |= *i != new;
                *i = new;
            }
        }
    }

    // Build intervals: `ranges[f.dense(v)]` spans every position `v` is live.
    let mut ranges: Vec<Option<(u32, u32)>> = vec![None; nv];
    let extend = |i: usize, s: u32, e: u32, ranges: &mut Vec<Option<(u32, u32)>>| {
        let r = ranges[i].get_or_insert((s, e));
        r.0 = r.0.min(s);
        r.1 = r.1.max(e);
    };
    // Parameters are defined at position 0 (the ABI moves in the prologue).
    for &p in &f.params {
        extend(f.dense(p), 0, 1, &mut ranges);
    }
    let mut call_sites = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (p, inst) in (block_start[bi]..).zip(&b.insts) {
            if inst.is_call() {
                call_sites.push(p);
            }
            inst.for_each_use(|u| extend(f.dense(u), p, p + 1, &mut ranges));
            if let Some(d) = inst.def() {
                extend(f.dense(d), p, p + 1, &mut ranges);
            }
        }
        for v in live_in[bi].iter() {
            extend(v, block_start[bi], block_start[bi] + 1, &mut ranges);
        }
        for v in live_out[bi].iter() {
            extend(v, block_start[bi], block_end[bi], &mut ranges);
            // Live-out at a block implies live-in somewhere later too; the
            // extend at the successor covers that side.
        }
    }

    let mut intervals: Vec<Interval> = f
        .vregs()
        .zip(&ranges)
        .filter_map(|(vreg, r)| {
            let (start, end) = (*r)?;
            // A call at position c is crossed when start < c and
            // c + 1 < end: only the first call after `start` can be.
            let next = call_sites.partition_point(|&c| c <= start);
            let crosses_call = call_sites.get(next).is_some_and(|&c| c + 1 < end);
            Some(Interval { vreg, start, end, crosses_call })
        })
        .collect();
    intervals.sort_by_key(|i| (i.start, i.end, i.vreg));
    (intervals, call_sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::VBlock;
    use refine_machine::{AluOp, Cc, RtFunc};

    fn func(blocks: Vec<Vec<VInst>>, n_int: u32) -> VFunc {
        VFunc {
            name: "t".into(),
            blocks: blocks
                .into_iter()
                .map(|insts| VBlock { insts })
                .collect(),
            n_int,
            n_flt: 0,
            alloca_words: vec![],
            params: vec![],
        }
    }

    #[test]
    fn straightline_intervals() {
        let v0 = Vr::Int(0);
        let v1 = Vr::Int(1);
        let f = func(
            vec![vec![
                VInst::MovI { d: v0, imm: 1 },            // 0
                VInst::MovI { d: v1, imm: 2 },            // 1
                VInst::Alu { op: AluOp::Add, d: v0, a: v0, b: v1 }, // 2
                VInst::Ret { val: Some(v0) },             // 3
            ]],
            2,
        );
        let (ints, calls) = analyze(&f);
        assert!(calls.is_empty());
        let i0 = ints.iter().find(|i| i.vreg == v0).unwrap();
        let i1 = ints.iter().find(|i| i.vreg == v1).unwrap();
        assert_eq!(i0.start, 0);
        assert_eq!(i0.end, 4);
        assert_eq!(i1.start, 1);
        assert_eq!(i1.end, 3);
    }

    #[test]
    fn crosses_call_detection() {
        let v0 = Vr::Int(0);
        let v1 = Vr::Int(1);
        let f = func(
            vec![vec![
                VInst::MovI { d: v0, imm: 1 },                                // 0
                VInst::RtCall { func: RtFunc::PrintI64, imm: 0, args: vec![], ret: None }, // 1
                VInst::Mov { d: v1, a: v0 },                                  // 2
                VInst::Ret { val: Some(v1) },                                 // 3
            ]],
            2,
        );
        let (ints, calls) = analyze(&f);
        assert_eq!(calls, vec![1]);
        assert!(ints.iter().find(|i| i.vreg == v0).unwrap().crosses_call);
        assert!(!ints.iter().find(|i| i.vreg == v1).unwrap().crosses_call);
    }

    #[test]
    fn call_args_do_not_cross_their_call() {
        let v0 = Vr::Int(0);
        let f = func(
            vec![vec![
                VInst::MovI { d: v0, imm: 1 }, // 0
                VInst::RtCall { func: RtFunc::PrintI64, imm: 0, args: vec![v0], ret: None }, // 1
                VInst::Ret { val: None },      // 2
            ]],
            1,
        );
        let (ints, _) = analyze(&f);
        assert!(!ints.iter().find(|i| i.vreg == v0).unwrap().crosses_call);
    }

    #[test]
    fn loop_keeps_value_live_through_body() {
        let i = Vr::Int(0);
        let acc = Vr::Int(1);
        // b0: movi i,0; movi acc,0; jmp 1
        // b1: alu acc+=i; alui i+=1; cmpi; jcc->1; jmp 2
        // b2: ret acc
        let f = func(
            vec![
                vec![
                    VInst::MovI { d: i, imm: 0 },
                    VInst::MovI { d: acc, imm: 0 },
                    VInst::Jmp { bb: 1 },
                ],
                vec![
                    VInst::Alu { op: AluOp::Add, d: acc, a: acc, b: i },
                    VInst::AluI { op: AluOp::Add, d: i, a: i, imm: 1 },
                    VInst::CmpI { a: i, imm: 10 },
                    VInst::Jcc { cc: Cc::Lt, bb: 1 },
                    VInst::Jmp { bb: 2 },
                ],
                vec![VInst::Ret { val: Some(acc) }],
            ],
            2,
        );
        let (ints, _) = analyze(&f);
        let ii = ints.iter().find(|x| x.vreg == i).unwrap();
        let ia = ints.iter().find(|x| x.vreg == acc).unwrap();
        // Both must be live through the whole loop body (block 1 spans 3..8).
        assert!(ii.start <= 3 && ii.end >= 8, "i interval {ii:?}");
        assert!(ia.start <= 3 && ia.end >= 9, "acc interval {ia:?}");
    }
}
