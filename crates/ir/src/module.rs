//! Modules, functions, basic blocks and globals.

use crate::instr::{Instr, Operand, Terminator};

/// A first-class IR type. The IR is deliberately small: 64-bit integers,
/// double-precision floats, booleans (`i1`, products of comparisons) and
/// untyped 8-byte-element pointers. All memory traffic is 8 bytes wide, which
/// keeps the backend honest (loads/stores, address arithmetic) without
/// dragging in sub-word semantics that none of the 14 benchmarks need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Boolean produced by comparisons; zero-extended to 64 bits in registers.
    I1,
    /// 64-bit two's-complement integer.
    I64,
    /// IEEE-754 binary64.
    F64,
    /// Byte-addressed pointer (64-bit).
    Ptr,
}

impl Ty {
    /// Width in bits of a value of this type when held in a register.
    /// This is the width used by the fault model when flipping bits at the IR
    /// level (LLFI flips within the *value's* width, e.g. a single bit for
    /// `i1`, which is one of the accuracy differences vs. machine registers).
    pub fn bits(self) -> u32 {
        match self {
            Ty::I1 => 1,
            Ty::I64 | Ty::F64 | Ty::Ptr => 64,
        }
    }

    /// True for the integer-class types held in general-purpose registers.
    pub fn is_int_class(self) -> bool {
        !matches!(self, Ty::F64)
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::I1 => write!(f, "i1"),
            Ty::I64 => write!(f, "i64"),
            Ty::F64 => write!(f, "double"),
            Ty::Ptr => write!(f, "ptr"),
        }
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Index form for direct vector access.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_type!(
    /// Identifies an SSA value within one function (parameters first, then
    /// instruction results in allocation order).
    ValueId
);
id_type!(
    /// Identifies a basic block within one function. Block 0 is the entry.
    BlockId
);
id_type!(
    /// Identifies a function within a module.
    FuncId
);
id_type!(
    /// Identifies a global variable within a module.
    GlobalId
);
id_type!(
    /// Identifies an interned string literal within a module.
    StrId
);

/// Initial contents of a global variable.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// Zero-initialized region of `n` 8-byte words.
    Zero(u32),
    /// Explicit 64-bit integer words.
    I64s(Vec<i64>),
    /// Explicit binary64 words.
    F64s(Vec<f64>),
}

impl GlobalInit {
    /// Size of the global in 8-byte words.
    pub fn words(&self) -> u32 {
        match self {
            GlobalInit::Zero(n) => *n,
            GlobalInit::I64s(v) => v.len() as u32,
            GlobalInit::F64s(v) => v.len() as u32,
        }
    }
}

/// A module-level global variable (the benchmarks keep their arrays here,
/// like the static data of the original C programs).
#[derive(Debug, Clone)]
pub struct Global {
    /// Symbolic name, used by the printer and the linker.
    pub name: String,
    /// Initializer; also determines the size.
    pub init: GlobalInit,
}

/// One basic block: zero or more phis, then ordinary instructions, then a
/// single terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Printable label.
    pub name: String,
    /// Instructions in execution order. The verifier enforces that phis form
    /// a prefix of this list.
    pub instrs: Vec<InstrData>,
    /// Block terminator. `None` only transiently during construction.
    pub term: Option<Terminator>,
}

impl Block {
    /// Successor blocks of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match &self.term {
            Some(Terminator::Br(b)) => vec![*b],
            Some(Terminator::CondBr { t, f, .. }) => vec![*t, *f],
            Some(Terminator::Ret(_)) | None => vec![],
        }
    }
}

/// An instruction together with its (optional) SSA result.
#[derive(Debug, Clone)]
pub struct InstrData {
    /// The operation.
    pub instr: Instr,
    /// Result value, when the instruction produces one.
    pub result: Option<ValueId>,
}

/// A function: a CFG of basic blocks over a private SSA value space.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbolic name (used by `-fi-funcs` filters, the printer, the linker).
    pub name: String,
    /// Parameter types; parameters are values `0..params.len()`.
    pub params: Vec<Ty>,
    /// Return type, or `None` for void functions.
    pub ret: Option<Ty>,
    /// Basic blocks; `BlockId(0)` is the entry block.
    pub blocks: Vec<Block>,
    /// Type of each SSA value, indexed by [`ValueId`].
    pub value_tys: Vec<Ty>,
}

impl Function {
    /// Create an empty function with a single unterminated entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        let value_tys = params.clone();
        Function {
            name: name.into(),
            params,
            ret,
            blocks: vec![Block { name: "entry".into(), instrs: vec![], term: None }],
            value_tys,
        }
    }

    /// Parameter values of this function.
    pub fn param_values(&self) -> impl Iterator<Item = ValueId> {
        (0..self.params.len() as u32).map(ValueId)
    }

    /// Allocate a fresh SSA value of type `ty`.
    pub fn new_value(&mut self, ty: Ty) -> ValueId {
        let id = ValueId(self.value_tys.len() as u32);
        self.value_tys.push(ty);
        id
    }

    /// Type of a value.
    pub fn ty_of(&self, v: ValueId) -> Ty {
        self.value_tys[v.index()]
    }

    /// Append a fresh empty block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { name: name.into(), instrs: vec![], term: None });
        id
    }

    /// Immutable access to one block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to one block.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![vec![]; self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.successors() {
                preds[s.index()].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Reverse postorder over the CFG from the entry block. Unreachable
    /// blocks are omitted.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some((b, i)) = stack.pop() {
            let succs = self.block(b).successors();
            if i < succs.len() {
                stack.push((b, i + 1));
                let s = succs[i];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        post.reverse();
        post
    }

    /// Total number of instructions (excluding terminators).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Visit every operand of every instruction and terminator.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        for b in &self.blocks {
            for id in &b.instrs {
                id.instr.for_each_operand(&mut f);
            }
            match &b.term {
                Some(Terminator::CondBr { cond, .. }) => f(cond),
                Some(Terminator::Ret(Some(op))) => f(op),
                _ => {}
            }
        }
    }
}

/// A whole program: functions, globals, string literals.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// All functions; `main` must exist for a runnable program.
    pub funcs: Vec<Function>,
    /// Module globals.
    pub globals: Vec<Global>,
    /// Interned string literals (for `print_str`).
    pub strings: Vec<String>,
}

impl Module {
    /// Fresh empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Add a function and return its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(id_check(f));
        id
    }

    /// Declare (or re-use) a global variable.
    pub fn add_global(&mut self, name: impl Into<String>, init: GlobalInit) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global { name: name.into(), init });
        id
    }

    /// Intern a string literal.
    pub fn add_string(&mut self, s: impl Into<String>) -> StrId {
        let s = s.into();
        if let Some(i) = self.strings.iter().position(|x| *x == s) {
            return StrId(i as u32);
        }
        let id = StrId(self.strings.len() as u32);
        self.strings.push(s);
        id
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Immutable access to a function.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }
}

fn id_check(f: Function) -> Function {
    debug_assert!(!f.blocks.is_empty(), "function {} has no blocks", f.name);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_bits() {
        assert_eq!(Ty::I1.bits(), 1);
        assert_eq!(Ty::I64.bits(), 64);
        assert_eq!(Ty::F64.bits(), 64);
        assert_eq!(Ty::Ptr.bits(), 64);
        assert!(Ty::I64.is_int_class());
        assert!(Ty::Ptr.is_int_class());
        assert!(!Ty::F64.is_int_class());
    }

    #[test]
    fn function_values_and_blocks() {
        let mut f = Function::new("f", vec![Ty::I64, Ty::F64], Some(Ty::I64));
        assert_eq!(f.param_values().count(), 2);
        assert_eq!(f.ty_of(ValueId(1)), Ty::F64);
        let v = f.new_value(Ty::Ptr);
        assert_eq!(f.ty_of(v), Ty::Ptr);
        let b = f.add_block("loop");
        assert_eq!(b, BlockId(1));
        assert_eq!(f.blocks.len(), 2);
    }

    #[test]
    fn module_string_interning() {
        let mut m = Module::new();
        let a = m.add_string("x");
        let b = m.add_string("y");
        let c = m.add_string("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(m.strings.len(), 2);
    }

    #[test]
    fn reverse_postorder_visits_entry_first() {
        let mut f = Function::new("f", vec![], None);
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        f.block_mut(BlockId(0)).term = Some(Terminator::CondBr {
            cond: Operand::ConstI(1),
            t: b1,
            f: b2,
        });
        f.block_mut(b1).term = Some(Terminator::Ret(None));
        f.block_mut(b2).term = Some(Terminator::Ret(None));
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn predecessors_computed() {
        let mut f = Function::new("f", vec![], None);
        let b1 = f.add_block("b1");
        f.block_mut(BlockId(0)).term = Some(Terminator::Br(b1));
        f.block_mut(b1).term = Some(Terminator::Ret(None));
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId(0)]);
    }

    #[test]
    fn global_init_words() {
        assert_eq!(GlobalInit::Zero(4).words(), 4);
        assert_eq!(GlobalInit::I64s(vec![1, 2, 3]).words(), 3);
        assert_eq!(GlobalInit::F64s(vec![1.0]).words(), 1);
    }
}
