//! Abstract syntax tree for the OpenCL-C kernel subset.
//!
//! The tree borrows every name from the source (`'src`) and keeps its
//! nodes in flat per-kernel arenas: an [`Expr`] refers to its children
//! by [`ExprId`], a block is a [`Stmts`] run of consecutive statements,
//! and a call's arguments are an [`Args`] run of ids. A parse therefore
//! allocates a few growing vectors per kernel instead of one box per
//! node and one vector per block.

use crate::lexer::Span;

/// Scalar value types supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// `void` — function return only.
    Void,
    /// Signed 32-bit integer.
    Int,
    /// Unsigned 32-bit integer.
    Uint,
    /// Signed 64-bit integer.
    Long,
    /// Unsigned 64-bit integer.
    Ulong,
    /// 32-bit IEEE float.
    Float,
    /// Boolean (result of comparisons).
    Bool,
}

impl Scalar {
    /// Whether the scalar is one of the integer types (bool counts as
    /// integer for classification purposes).
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            Scalar::Int | Scalar::Uint | Scalar::Long | Scalar::Ulong | Scalar::Bool
        )
    }

    /// Whether the scalar is a floating point type.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::Float)
    }

    /// Size in bytes of one element when stored in a buffer.
    pub fn size_bytes(self) -> u64 {
        match self {
            Scalar::Void => 0,
            Scalar::Bool => 1,
            Scalar::Int | Scalar::Uint | Scalar::Float => 4,
            Scalar::Long | Scalar::Ulong => 8,
        }
    }
}

/// OpenCL address spaces for pointer parameters and local arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpace {
    /// `__global` device memory.
    Global,
    /// `__local` on-chip shared memory.
    Local,
    /// `__constant` read-only memory (treated as global for traffic).
    Constant,
    /// `__private` registers / stack.
    Private,
}

/// A (possibly pointer) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    /// Element scalar type.
    pub scalar: Scalar,
    /// `true` if this is a pointer to `scalar`.
    pub pointer: bool,
    /// Address space (meaningful for pointers and local arrays).
    pub space: AddressSpace,
}

impl Type {
    /// Scalar value type in private space.
    pub fn scalar(scalar: Scalar) -> Type {
        Type {
            scalar,
            pointer: false,
            space: AddressSpace::Private,
        }
    }

    /// Pointer to `scalar` in `space`.
    pub fn pointer(scalar: Scalar, space: AddressSpace) -> Type {
        Type {
            scalar,
            pointer: true,
            space,
        }
    }
}

/// Binary operators.
#[allow(missing_docs)] // variants are self-describing operator names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// True for comparison operators producing `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
    /// True for logical `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
    /// Bitwise not `~x`.
    BitNot,
}

/// Index of an expression in its kernel's arena (see [`KernelFn::expr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(pub(crate) u32);

/// Index of a statement in its kernel's arena (see [`KernelFn::stmt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId(pub(crate) u32);

/// A block: a run of consecutive statements in its kernel's arena (see
/// [`KernelFn::stmts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmts {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// A call's argument list: a run of consecutive expression ids in its
/// kernel's arena (see [`KernelFn::args`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// Expressions. Children are ids into the kernel's expression arena;
/// names borrow the source text.
#[allow(missing_docs)] // struct-variant fields are self-describing
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr<'src> {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// Variable reference.
    Var(&'src str),
    /// Binary operation.
    Binary { op: BinOp, lhs: ExprId, rhs: ExprId },
    /// Unary operation.
    Unary { op: UnOp, expr: ExprId },
    /// Array / pointer indexing `base[index]`.
    Index { base: ExprId, index: ExprId },
    /// Function / builtin call.
    Call { name: &'src str, args: Args },
    /// C-style cast `(float)x`.
    Cast { ty: Scalar, expr: ExprId },
    /// Ternary conditional `c ? a : b`.
    Ternary {
        cond: ExprId,
        then: ExprId,
        other: ExprId,
    },
}

/// Assignment targets: plain variable or indexed store.
#[allow(missing_docs)] // struct-variant fields are self-describing
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LValue<'src> {
    /// `x = ...`
    Var(&'src str),
    /// `buf[i] = ...`
    Index { base: ExprId, index: ExprId },
}

/// Compound-assignment operators map onto a [`BinOp`]; `None` is plain `=`.
pub type AssignOp = Option<BinOp>;

/// Statements. Nested statements and expressions are ids into the
/// kernel's arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt<'src> {
    /// Variable declaration, e.g. `float acc = 0.0f;` or a local array
    /// `__local float tile[256];`.
    Decl {
        /// Declared type (arrays are pointer-typed with `array_len`).
        ty: Type,
        /// Variable name.
        name: &'src str,
        /// Fixed array length for local/private arrays.
        array_len: Option<u64>,
        /// Optional initializer.
        init: Option<ExprId>,
        /// Source location.
        span: Span,
    },
    /// Assignment (possibly compound).
    Assign {
        /// Target of the store.
        target: LValue<'src>,
        /// `None` for `=`, `Some(op)` for `op=`.
        op: AssignOp,
        /// Right-hand side.
        value: ExprId,
        /// Source location.
        span: Span,
    },
    /// Expression statement (a bare call such as `barrier(...)`).
    Expr(ExprId, Span),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Branch condition.
        cond: ExprId,
        /// Taken branch.
        then: Stmts,
        /// Else branch (empty when absent).
        other: Stmts,
        /// Source location.
        span: Span,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Loop initializer (declaration or assignment).
        init: Option<StmtId>,
        /// Loop condition (None = infinite; rejected later).
        cond: Option<ExprId>,
        /// Loop step statement.
        step: Option<StmtId>,
        /// Loop body.
        body: Stmts,
        /// Source location.
        span: Span,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: ExprId,
        /// Loop body.
        body: Stmts,
        /// Source location.
        span: Span,
    },
    /// `return;` / `return expr;`.
    Return(Option<ExprId>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// Nested block `{ ... }`.
    Block(Stmts, Span),
}

/// A kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param<'src> {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: &'src str,
    /// `const`-qualified (read-only buffer).
    pub is_const: bool,
}

/// A parsed `__kernel` function. It owns the arenas its statements and
/// expressions live in; ids resolve through [`KernelFn::expr`],
/// [`KernelFn::stmt`], [`KernelFn::stmts`] and [`KernelFn::args`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFn<'src> {
    /// Kernel name.
    pub name: &'src str,
    /// Parameter list.
    pub params: Vec<Param<'src>>,
    /// Body statements.
    pub body: Stmts,
    /// Source location of the signature.
    pub span: Span,
    pub(crate) exprs: Vec<Expr<'src>>,
    pub(crate) stmts: Vec<Stmt<'src>>,
    pub(crate) args: Vec<ExprId>,
}

impl<'src> KernelFn<'src> {
    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr<'src> {
        &self.exprs[id.0 as usize]
    }

    /// The statement `id` names.
    pub fn stmt(&self, id: StmtId) -> &Stmt<'src> {
        &self.stmts[id.0 as usize]
    }

    /// The statements of a block.
    pub fn stmts(&self, block: Stmts) -> &[Stmt<'src>] {
        &self.stmts[block.start as usize..block.end as usize]
    }

    /// The argument expressions of a call.
    pub fn args(&self, args: Args) -> &[ExprId] {
        &self.args[args.start as usize..args.end as usize]
    }
}

/// A translation unit: one or more kernels, borrowing the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Program<'src> {
    /// All `__kernel` functions in the source.
    pub kernels: Vec<KernelFn<'src>>,
}

impl<'src> Program<'src> {
    /// Find a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelFn<'src>> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// The first (often only) kernel in the unit.
    pub fn first_kernel(&self) -> Option<&KernelFn<'src>> {
        self.kernels.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_classification() {
        assert!(Scalar::Int.is_integer());
        assert!(Scalar::Uint.is_integer());
        assert!(Scalar::Bool.is_integer());
        assert!(!Scalar::Float.is_integer());
        assert!(Scalar::Float.is_float());
        assert_eq!(Scalar::Float.size_bytes(), 4);
        assert_eq!(Scalar::Long.size_bytes(), 8);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn type_constructors() {
        let t = Type::pointer(Scalar::Float, AddressSpace::Global);
        assert!(t.pointer);
        assert_eq!(t.scalar, Scalar::Float);
        let s = Type::scalar(Scalar::Int);
        assert!(!s.pointer);
        assert_eq!(s.space, AddressSpace::Private);
    }
}
