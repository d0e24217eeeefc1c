//! Lowering of parsed kernels to classed instruction counts.
//!
//! This is the analogue of the paper's LLVM feature-extraction pass
//! (§3.2): it walks the AST, infers expression types, statically
//! resolves loop trip counts, and produces the number of executed
//! instructions per work-item in each [`InstrClass`]. The counts feed
//! both the static feature vector (normalized mix, what the predictor
//! sees) and the execution profile (absolute work, what the simulator
//! uses as ground truth).
//!
//! Counts are `f64` because `if`/`else` branches without static
//! direction are counted in expectation (each side weighted 1/2),
//! mirroring how a static pass must treat data-dependent control flow.

use crate::ast::*;
use crate::builtins::{builtin_return_type, classify_builtin, BuiltinClass};
use crate::lexer::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Instruction classes tracked by the analysis.
///
/// The first ten are the paper's static feature classes; `Branch` and
/// `Other` capture control flow and overhead (work-item queries,
/// synchronization, opaque calls) so the totals stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// Integer add / sub / compare.
    IntAdd,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Integer bitwise / shift / logical.
    IntBitwise,
    /// Float add / sub / compare / cheap float ALU.
    FloatAdd,
    /// Float multiply.
    FloatMul,
    /// Float divide.
    FloatDiv,
    /// Special-function-unit ops (trigonometric, exp, sqrt, ...).
    SpecialFn,
    /// Load from `__global` (or `__constant`) memory.
    GlobalLoad,
    /// Store to `__global` memory.
    GlobalStore,
    /// Load from `__local` memory.
    LocalLoad,
    /// Store to `__local` memory.
    LocalStore,
    /// Control-flow instruction.
    Branch,
    /// Anything else (work-item queries, sync, casts, opaque calls).
    Other,
}

impl InstrClass {
    /// All classes, in a fixed order used for array indexing.
    pub const ALL: [InstrClass; 14] = [
        InstrClass::IntAdd,
        InstrClass::IntMul,
        InstrClass::IntDiv,
        InstrClass::IntBitwise,
        InstrClass::FloatAdd,
        InstrClass::FloatMul,
        InstrClass::FloatDiv,
        InstrClass::SpecialFn,
        InstrClass::GlobalLoad,
        InstrClass::GlobalStore,
        InstrClass::LocalLoad,
        InstrClass::LocalStore,
        InstrClass::Branch,
        InstrClass::Other,
    ];

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class listed in ALL")
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::IntAdd => "int_add",
            InstrClass::IntMul => "int_mul",
            InstrClass::IntDiv => "int_div",
            InstrClass::IntBitwise => "int_bw",
            InstrClass::FloatAdd => "float_add",
            InstrClass::FloatMul => "float_mul",
            InstrClass::FloatDiv => "float_div",
            InstrClass::SpecialFn => "sf",
            InstrClass::GlobalLoad => "gl_load",
            InstrClass::GlobalStore => "gl_store",
            InstrClass::LocalLoad => "loc_load",
            InstrClass::LocalStore => "loc_store",
            InstrClass::Branch => "branch",
            InstrClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Per-class executed-instruction counts for one work-item.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InstructionCounts {
    counts: [f64; 14],
}

impl InstructionCounts {
    /// Empty counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count for one class.
    pub fn get(&self, class: InstrClass) -> f64 {
        self.counts[class.index()]
    }

    /// Add `n` instructions of `class`.
    pub fn add(&mut self, class: InstrClass, n: f64) {
        self.counts[class.index()] += n;
    }

    /// Merge `other` into `self`, scaled by `weight` (used for loop
    /// bodies and expected-value branch counting).
    pub fn merge_scaled(&mut self, other: &InstructionCounts, weight: f64) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i] * weight;
        }
    }

    /// Total instructions across every class.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Total arithmetic + memory instructions (the ten feature classes).
    pub fn feature_total(&self) -> f64 {
        self.total() - self.get(InstrClass::Branch) - self.get(InstrClass::Other)
    }

    /// Global memory accesses (loads + stores), the paper's `k_gl_access`.
    pub fn global_accesses(&self) -> f64 {
        self.get(InstrClass::GlobalLoad) + self.get(InstrClass::GlobalStore)
    }

    /// Local memory accesses (loads + stores), the paper's `k_loc_access`.
    pub fn local_accesses(&self) -> f64 {
        self.get(InstrClass::LocalLoad) + self.get(InstrClass::LocalStore)
    }

    /// Iterate `(class, count)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrClass, f64)> + '_ {
        InstrClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// Result of analyzing one kernel: instruction mix plus memory traffic,
/// all per work-item.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelAnalysis {
    /// Executed instructions per work-item by class.
    pub counts: InstructionCounts,
    /// Bytes read from global/constant memory per work-item.
    pub global_read_bytes: f64,
    /// Bytes written to global memory per work-item.
    pub global_write_bytes: f64,
    /// Bytes moved through local memory per work-item.
    pub local_bytes: f64,
}

impl KernelAnalysis {
    /// Total global memory traffic per work-item in bytes.
    pub fn global_bytes(&self) -> f64 {
        self.global_read_bytes + self.global_write_bytes
    }

    fn merge_scaled(&mut self, other: &KernelAnalysis, weight: f64) {
        self.counts.merge_scaled(&other.counts, weight);
        self.global_read_bytes += other.global_read_bytes * weight;
        self.global_write_bytes += other.global_write_bytes * weight;
        self.local_bytes += other.local_bytes * weight;
    }
}

/// Analysis error: the kernel uses a construct the static pass cannot
/// bound (e.g. a `while` loop whose trip count is not resolvable).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending construct.
    pub span: Span,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analysis error at line {}: {}",
            self.span.line, self.message
        )
    }
}

impl std::error::Error for AnalysisError {}

/// Configuration of the static pass.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Trip count assumed for loops whose bounds cannot be resolved
    /// statically (data-dependent `while`, unresolved parameters).
    pub assumed_trip_count: f64,
    /// Compile-time values for kernel parameters (e.g. problem sizes),
    /// letting parameter-bounded loops resolve exactly. This mirrors
    /// running the LLVM pass after constant specialization.
    pub param_bindings: HashMap<String, i64>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            assumed_trip_count: 16.0,
            param_bindings: HashMap::new(),
        }
    }
}

impl AnalysisConfig {
    /// Config with explicit parameter bindings.
    pub fn with_bindings<I: IntoIterator<Item = (String, i64)>>(bindings: I) -> Self {
        AnalysisConfig {
            param_bindings: bindings.into_iter().collect(),
            ..AnalysisConfig::default()
        }
    }
}

/// Analyze `kernel` with the default configuration.
pub fn analyze_kernel(kernel: &KernelFn<'_>) -> Result<KernelAnalysis, AnalysisError> {
    analyze_kernel_with(kernel, &AnalysisConfig::default())
}

/// Analyze `kernel` under `config`.
pub fn analyze_kernel_with(
    kernel: &KernelFn<'_>,
    config: &AnalysisConfig,
) -> Result<KernelAnalysis, AnalysisError> {
    let mut env = Env::new(config, kernel);
    for p in &kernel.params {
        env.declare(p.name, p.ty);
        if !p.ty.pointer {
            if let Some(&v) = config.param_bindings.get(p.name) {
                env.set_const(p.name, v);
            }
        }
    }
    let mut analysis = KernelAnalysis::default();
    analyze_block(kernel.body, &mut env, &mut analysis)?;
    Ok(analysis)
}

// ---- environment ------------------------------------------------------

/// Lexical environment for the analyzer, stored as flat binding stacks
/// that borrow their names from the AST, plus the kernel whose arenas
/// the walk resolves ids in.
///
/// The previous representation (`Vec<HashMap<String, _>>`, one map per
/// scope) allocated a map plus an owned `String` per binding on every
/// block entry — profiling showed the analysis front end dominated by
/// those allocations. Kernels bind a handful of names per scope, so a
/// reverse linear scan over a flat `Vec<(&str, _)>` beats hashing while
/// allocating nothing per scope (the two `Vec`s amortize across the
/// whole walk).
///
/// Semantics are kept exactly map-per-scope:
/// * a lookup scans innermost-first and within a scope the latest
///   binding decides (each scope holds at most one entry per name —
///   `set_const` updates in place);
/// * `clear_const` removes the name from the *innermost* scope that
///   binds it by tombstoning the entry **in place** (`None`), so a
///   lookup falls through to outer scopes — and so clearing an
///   outer-scope binding from inside a nested scope survives the
///   nested scope's pop, exactly like removing from the outer map;
/// * scope exit truncates to the entry mark, like dropping the map.
struct Env<'a> {
    config: &'a AnalysisConfig,
    kernel: &'a KernelFn<'a>,
    /// Declared variables, innermost bindings last.
    vars: Vec<(&'a str, Type)>,
    /// Known integer constants; `None` is an in-place removal.
    consts: Vec<(&'a str, Option<i64>)>,
    /// Scope entry marks into `vars` and `consts`.
    marks: Vec<(usize, usize)>,
}

impl<'a> Env<'a> {
    fn new(config: &'a AnalysisConfig, kernel: &'a KernelFn<'a>) -> Self {
        Env {
            config,
            kernel,
            vars: Vec::with_capacity(32),
            consts: Vec::with_capacity(16),
            marks: Vec::with_capacity(8),
        }
    }

    fn push(&mut self) {
        self.marks.push((self.vars.len(), self.consts.len()));
    }

    fn pop(&mut self) {
        let (var_mark, const_mark) = self.marks.pop().expect("pop matches a push");
        self.vars.truncate(var_mark);
        self.consts.truncate(const_mark);
    }

    fn declare(&mut self, name: &'a str, ty: Type) {
        self.vars.push((name, ty));
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        self.vars
            .iter()
            .rev()
            .find_map(|&(n, ty)| (n == name).then_some(ty))
    }

    fn set_const(&mut self, name: &'a str, value: i64) {
        let scope_start = self.marks.last().map_or(0, |&(_, c)| c);
        match self.consts[scope_start..]
            .iter_mut()
            .find(|(n, _)| *n == name)
        {
            Some(entry) => entry.1 = Some(value),
            None => self.consts.push((name, Some(value))),
        }
    }

    fn clear_const(&mut self, name: &str) {
        // Innermost live binding only; a tombstone means the name is
        // already absent from that scope, so keep scanning outward.
        if let Some(entry) = self
            .consts
            .iter_mut()
            .rev()
            .find(|(n, v)| *n == name && v.is_some())
        {
            entry.1 = None;
        }
    }

    fn lookup_const(&self, name: &str) -> Option<i64> {
        self.consts
            .iter()
            .rev()
            .filter(|(n, _)| *n == name)
            .find_map(|&(_, v)| v)
    }
}

// ---- constant evaluation (for loop bounds) ----------------------------

fn const_eval(expr: ExprId, env: &Env<'_>) -> Option<i64> {
    match *env.kernel.expr(expr) {
        Expr::IntLit(v) => Some(v),
        Expr::BoolLit(b) => Some(b as i64),
        Expr::Var(name) => env.lookup_const(name),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => const_eval(expr, env).map(|v| -v),
        Expr::Unary {
            op: UnOp::BitNot,
            expr,
        } => const_eval(expr, env).map(|v| !v),
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => const_eval(expr, env).map(|v| (v == 0) as i64),
        Expr::Cast { expr, .. } => const_eval(expr, env),
        Expr::Binary { op, lhs, rhs } => {
            let l = const_eval(lhs, env)?;
            let r = const_eval(rhs, env)?;
            Some(match op {
                BinOp::Add => l.wrapping_add(r),
                BinOp::Sub => l.wrapping_sub(r),
                BinOp::Mul => l.wrapping_mul(r),
                BinOp::Div => l.checked_div(r)?,
                BinOp::Rem => l.checked_rem(r)?,
                BinOp::Shl => l.checked_shl(u32::try_from(r).ok()?)?,
                BinOp::Shr => l.checked_shr(u32::try_from(r).ok()?)?,
                BinOp::BitAnd => l & r,
                BinOp::BitOr => l | r,
                BinOp::BitXor => l ^ r,
                BinOp::LogAnd => ((l != 0) && (r != 0)) as i64,
                BinOp::LogOr => ((l != 0) || (r != 0)) as i64,
                BinOp::Lt => (l < r) as i64,
                BinOp::Gt => (l > r) as i64,
                BinOp::Le => (l <= r) as i64,
                BinOp::Ge => (l >= r) as i64,
                BinOp::Eq => (l == r) as i64,
                BinOp::Ne => (l != r) as i64,
            })
        }
        _ => None,
    }
}

// ---- trip-count resolution ---------------------------------------------

/// Recognize the canonical counted loop
/// `for (T i = START; i CMP END; i += STEP)` (or `i++`, `i--`, `i -= ..`)
/// and return its trip count when all three values are constant.
fn for_trip_count(
    init: Option<&Stmt<'_>>,
    cond: Option<ExprId>,
    step: Option<&Stmt<'_>>,
    env: &Env<'_>,
) -> Option<f64> {
    let k = env.kernel;
    let (var, start) = match *init? {
        Stmt::Decl {
            name,
            init: Some(e),
            ..
        } => (name, const_eval(e, env)?),
        Stmt::Assign {
            target: LValue::Var(name),
            op: None,
            value,
            ..
        } => (name, const_eval(value, env)?),
        _ => return None,
    };
    let (cmp, end) = match *k.expr(cond?) {
        Expr::Binary { op, lhs, rhs } => match (*k.expr(lhs), *k.expr(rhs)) {
            (Expr::Var(v), _) if v == var => (op, const_eval(rhs, env)?),
            (_, Expr::Var(v)) if v == var => (flip_cmp(op)?, const_eval(lhs, env)?),
            _ => return None,
        },
        _ => return None,
    };
    let delta = match *step? {
        Stmt::Assign {
            target: LValue::Var(v),
            op: Some(BinOp::Add),
            value,
            ..
        } if v == var => const_eval(value, env)?,
        Stmt::Assign {
            target: LValue::Var(v),
            op: Some(BinOp::Sub),
            value,
            ..
        } if v == var => -const_eval(value, env)?,
        Stmt::Assign {
            target: LValue::Var(v),
            op: Some(BinOp::Mul),
            value,
            ..
        } if v == var => {
            // Geometric loops (`i *= 2`): count iterations explicitly.
            let factor = const_eval(value, env)?;
            return geometric_trips(start, end, cmp, factor);
        }
        Stmt::Assign {
            target: LValue::Var(v),
            op: Some(BinOp::Shl),
            value,
            ..
        } if v == var => {
            let sh = const_eval(value, env)?;
            return geometric_trips(start, end, cmp, 1i64.checked_shl(u32::try_from(sh).ok()?)?);
        }
        _ => return None,
    };
    if delta == 0 {
        return None;
    }
    let trips = match cmp {
        BinOp::Lt if delta > 0 => ceil_div(end - start, delta),
        BinOp::Le if delta > 0 => ceil_div(end - start + 1, delta),
        BinOp::Gt if delta < 0 => ceil_div(start - end, -delta),
        BinOp::Ge if delta < 0 => ceil_div(start - end + 1, -delta),
        BinOp::Ne => {
            let span = end - start;
            if span % delta == 0 && span / delta >= 0 {
                span / delta
            } else {
                return None;
            }
        }
        _ => return None,
    };
    Some(trips.max(0) as f64)
}

fn geometric_trips(start: i64, end: i64, cmp: BinOp, factor: i64) -> Option<f64> {
    if factor <= 1 || start <= 0 {
        return None;
    }
    let mut v = start;
    let mut n = 0u32;
    while n < 64 {
        let cont = match cmp {
            BinOp::Lt => v < end,
            BinOp::Le => v <= end,
            _ => return None,
        };
        if !cont {
            break;
        }
        v = v.checked_mul(factor)?;
        n += 1;
    }
    Some(n as f64)
}

fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a <= 0 {
        0
    } else {
        (a + b - 1) / b
    }
}

fn flip_cmp(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        BinOp::Ne => BinOp::Ne,
        BinOp::Eq => BinOp::Eq,
        _ => return None,
    })
}

// ---- statement analysis -------------------------------------------------

fn analyze_block(
    block: Stmts,
    env: &mut Env<'_>,
    out: &mut KernelAnalysis,
) -> Result<(), AnalysisError> {
    let k = env.kernel;
    for stmt in k.stmts(block) {
        analyze_stmt(stmt, env, out)?;
    }
    Ok(())
}

fn analyze_stmt<'a>(
    stmt: &Stmt<'a>,
    env: &mut Env<'a>,
    out: &mut KernelAnalysis,
) -> Result<(), AnalysisError> {
    match *stmt {
        Stmt::Decl { ty, name, init, .. } => {
            if let Some(e) = init {
                analyze_expr(e, env, out)?;
                if ty.scalar.is_integer() && !ty.pointer {
                    match const_eval(e, env) {
                        Some(v) => env.set_const(name, v),
                        None => env.clear_const(name),
                    }
                }
            }
            env.declare(name, ty);
            Ok(())
        }
        Stmt::Assign {
            target, op, value, ..
        } => {
            let value_ty = analyze_expr(value, env, out)?;
            match target {
                LValue::Var(name) => {
                    let var_ty = env.lookup(name).unwrap_or(Type::scalar(value_ty)).scalar;
                    if let Some(binop) = op {
                        count_binop(binop, var_ty, &mut out.counts);
                    }
                    // Track constants for trip-count resolution; any
                    // non-constant assignment invalidates the binding.
                    if op.is_none() {
                        match const_eval(value, env) {
                            Some(v) => env.set_const(name, v),
                            None => env.clear_const(name),
                        }
                    } else {
                        env.clear_const(name);
                    }
                }
                LValue::Index { base, index } => {
                    analyze_expr(index, env, out)?;
                    // Address computation lowers to a GEP folded into the
                    // access path, not a datapath ALU op.
                    out.counts.add(InstrClass::Other, 1.0);
                    let base_ty = analyze_base(base, env, out)?;
                    if let Some(binop) = op {
                        // Compound store reads the old value first.
                        record_access(base_ty, false, out);
                        count_binop(binop, base_ty.scalar, &mut out.counts);
                    }
                    record_access(base_ty, true, out);
                }
            }
            Ok(())
        }
        Stmt::Expr(e, _) => {
            analyze_expr(e, env, out)?;
            Ok(())
        }
        Stmt::If {
            cond, then, other, ..
        } => {
            analyze_expr(cond, env, out)?;
            out.counts.add(InstrClass::Branch, 1.0);
            let mut then_a = KernelAnalysis::default();
            env.push();
            analyze_block(then, env, &mut then_a)?;
            env.pop();
            let mut else_a = KernelAnalysis::default();
            env.push();
            analyze_block(other, env, &mut else_a)?;
            env.pop();
            // Static direction unknown: expected-value weighting.
            out.merge_scaled(&then_a, 0.5);
            out.merge_scaled(&else_a, 0.5);
            Ok(())
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let k = env.kernel;
            let (init, step) = (init.map(|i| k.stmt(i)), step.map(|s| k.stmt(s)));
            env.push();
            if let Some(i) = init {
                analyze_stmt(i, env, out)?;
            }
            let trips =
                for_trip_count(init, cond, step, env).unwrap_or(env.config.assumed_trip_count);
            // The induction variable is not constant inside the body.
            if let Some(&Stmt::Decl { name, .. })
            | Some(&Stmt::Assign {
                target: LValue::Var(name),
                ..
            }) = init
            {
                env.clear_const(name);
            }
            let mut iter_a = KernelAnalysis::default();
            if let Some(c) = cond {
                analyze_expr(c, env, &mut iter_a)?;
            }
            iter_a.counts.add(InstrClass::Branch, 1.0);
            let mut body_a = KernelAnalysis::default();
            env.push();
            analyze_block(body, env, &mut body_a)?;
            if let Some(s) = step {
                analyze_stmt(s, env, &mut body_a)?;
            }
            env.pop();
            // cond+branch run trips+1 times, body+step run trips times.
            out.merge_scaled(&iter_a, trips + 1.0);
            out.merge_scaled(&body_a, trips);
            env.pop();
            Ok(())
        }
        Stmt::While { cond, body, .. } => {
            let trips = env.config.assumed_trip_count;
            let mut iter_a = KernelAnalysis::default();
            analyze_expr(cond, env, &mut iter_a)?;
            iter_a.counts.add(InstrClass::Branch, 1.0);
            let mut body_a = KernelAnalysis::default();
            env.push();
            analyze_block(body, env, &mut body_a)?;
            env.pop();
            out.merge_scaled(&iter_a, trips + 1.0);
            out.merge_scaled(&body_a, trips);
            Ok(())
        }
        Stmt::Return(e, _) => {
            if let Some(e) = e {
                analyze_expr(e, env, out)?;
            }
            out.counts.add(InstrClass::Branch, 1.0);
            Ok(())
        }
        Stmt::Break(_) | Stmt::Continue(_) => {
            out.counts.add(InstrClass::Branch, 1.0);
            Ok(())
        }
        Stmt::Block(stmts, _) => {
            env.push();
            let r = analyze_block(stmts, env, out);
            env.pop();
            r
        }
    }
}

// ---- expression analysis -------------------------------------------------

/// Walk an expression, accumulate its instruction counts, and return its
/// inferred scalar type.
fn analyze_expr(
    expr: ExprId,
    env: &Env<'_>,
    out: &mut KernelAnalysis,
) -> Result<Scalar, AnalysisError> {
    match *env.kernel.expr(expr) {
        Expr::IntLit(_) => Ok(Scalar::Int),
        Expr::FloatLit(_) => Ok(Scalar::Float),
        Expr::BoolLit(_) => Ok(Scalar::Bool),
        Expr::Var(name) => Ok(env.lookup(name).map_or(Scalar::Int, |t| t.scalar)),
        Expr::Binary { op, lhs, rhs } => {
            let lt = analyze_expr(lhs, env, out)?;
            let rt = analyze_expr(rhs, env, out)?;
            let operand = promote(lt, rt);
            count_binop(op, operand, &mut out.counts);
            if op.is_comparison() || op.is_logical() {
                Ok(Scalar::Bool)
            } else {
                Ok(operand)
            }
        }
        Expr::Unary { op, expr } => {
            let t = analyze_expr(expr, env, out)?;
            match op {
                UnOp::Neg => {
                    if t.is_float() {
                        out.counts.add(InstrClass::FloatAdd, 1.0);
                    } else {
                        out.counts.add(InstrClass::IntAdd, 1.0);
                    }
                }
                UnOp::Not | UnOp::BitNot => out.counts.add(InstrClass::IntBitwise, 1.0),
            }
            Ok(if op == UnOp::Not { Scalar::Bool } else { t })
        }
        Expr::Index { base, index } => {
            analyze_expr(index, env, out)?;
            out.counts.add(InstrClass::Other, 1.0); // GEP/addressing, not ALU
            let base_ty = analyze_base(base, env, out)?;
            record_access(base_ty, false, out);
            Ok(base_ty.scalar)
        }
        Expr::Call { name, args } => analyze_call(name, args, env, out),
        Expr::Cast { ty, expr } => {
            analyze_expr(expr, env, out)?;
            // Conversions are near-free on the GPU datapath; counted as
            // overhead so they do not skew the arithmetic mix.
            out.counts.add(InstrClass::Other, 1.0);
            Ok(ty)
        }
        Expr::Ternary { cond, then, other } => {
            analyze_expr(cond, env, out)?;
            // GPUs predicate small selects: both sides execute.
            let tt = analyze_expr(then, env, out)?;
            let et = analyze_expr(other, env, out)?;
            let t = promote(tt, et);
            if t.is_float() {
                out.counts.add(InstrClass::FloatAdd, 1.0);
            } else {
                out.counts.add(InstrClass::IntAdd, 1.0);
            }
            Ok(t)
        }
    }
}

fn analyze_call(
    name: &str,
    args: Args,
    env: &Env<'_>,
    out: &mut KernelAnalysis,
) -> Result<Scalar, AnalysisError> {
    let mut first_ty = None;
    for &a in env.kernel.args(args) {
        let ty = analyze_expr(a, env, out)?;
        first_ty.get_or_insert(ty);
    }
    let first_ty = first_ty.unwrap_or(Scalar::Int);
    match classify_builtin(name) {
        BuiltinClass::WorkItem | BuiltinClass::Sync | BuiltinClass::Unknown => {
            out.counts.add(InstrClass::Other, 1.0);
        }
        BuiltinClass::Special => out.counts.add(InstrClass::SpecialFn, 1.0),
        BuiltinClass::FloatAlu => out.counts.add(InstrClass::FloatAdd, 1.0),
        BuiltinClass::IntAlu => out.counts.add(InstrClass::IntAdd, 1.0),
        BuiltinClass::FusedMulAdd => {
            out.counts.add(InstrClass::FloatMul, 1.0);
            out.counts.add(InstrClass::FloatAdd, 1.0);
        }
        BuiltinClass::IntMul => out.counts.add(InstrClass::IntMul, 1.0),
        BuiltinClass::TypedAlu => {
            if first_ty.is_float() {
                out.counts.add(InstrClass::FloatAdd, 1.0);
            } else {
                out.counts.add(InstrClass::IntAdd, 1.0);
            }
        }
        BuiltinClass::Convert => out.counts.add(InstrClass::Other, 1.0),
    }
    Ok(builtin_return_type(name).unwrap_or(first_ty))
}

/// Resolve the buffer expression of an index access and return its type.
/// Only plain variables and nested indexes are addressable in the subset.
fn analyze_base(
    base: ExprId,
    env: &Env<'_>,
    out: &mut KernelAnalysis,
) -> Result<Type, AnalysisError> {
    match *env.kernel.expr(base) {
        Expr::Var(name) => Ok(env
            .lookup(name)
            .unwrap_or(Type::pointer(Scalar::Float, AddressSpace::Global))),
        _ => {
            // e.g. `(buf + off)[i]` style bases: analyze and assume global.
            analyze_expr(base, env, out)?;
            Ok(Type::pointer(Scalar::Float, AddressSpace::Global))
        }
    }
}

fn record_access(base_ty: Type, is_store: bool, out: &mut KernelAnalysis) {
    let bytes = base_ty.scalar.size_bytes() as f64;
    match base_ty.space {
        AddressSpace::Global | AddressSpace::Constant => {
            if is_store {
                out.counts.add(InstrClass::GlobalStore, 1.0);
                out.global_write_bytes += bytes;
            } else {
                out.counts.add(InstrClass::GlobalLoad, 1.0);
                out.global_read_bytes += bytes;
            }
        }
        AddressSpace::Local => {
            out.counts.add(
                if is_store {
                    InstrClass::LocalStore
                } else {
                    InstrClass::LocalLoad
                },
                1.0,
            );
            out.local_bytes += bytes;
        }
        AddressSpace::Private => {
            // Register-resident arrays: modelled as free.
            out.counts.add(InstrClass::Other, 1.0);
        }
    }
}

fn promote(a: Scalar, b: Scalar) -> Scalar {
    if a.is_float() || b.is_float() {
        Scalar::Float
    } else if a == Scalar::Ulong || b == Scalar::Ulong {
        Scalar::Ulong
    } else if a == Scalar::Long || b == Scalar::Long {
        Scalar::Long
    } else if a == Scalar::Uint || b == Scalar::Uint {
        Scalar::Uint
    } else {
        Scalar::Int
    }
}

fn count_binop(op: BinOp, operand: Scalar, counts: &mut InstructionCounts) {
    let float = operand.is_float();
    let class = match op {
        BinOp::Add | BinOp::Sub => {
            if float {
                InstrClass::FloatAdd
            } else {
                InstrClass::IntAdd
            }
        }
        BinOp::Mul => {
            if float {
                InstrClass::FloatMul
            } else {
                InstrClass::IntMul
            }
        }
        BinOp::Div | BinOp::Rem => {
            if float {
                InstrClass::FloatDiv
            } else {
                InstrClass::IntDiv
            }
        }
        BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
            InstrClass::IntBitwise
        }
        BinOp::LogAnd | BinOp::LogOr => InstrClass::IntBitwise,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            if float {
                InstrClass::FloatAdd
            } else {
                InstrClass::IntAdd
            }
        }
    };
    counts.add(class, 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> KernelAnalysis {
        let prog = parse(src).expect("parse");
        analyze_kernel(prog.first_kernel().expect("kernel")).expect("analyze")
    }

    fn analyze_src_with(src: &str, cfg: &AnalysisConfig) -> KernelAnalysis {
        let prog = parse(src).expect("parse");
        analyze_kernel_with(prog.first_kernel().expect("kernel"), cfg).expect("analyze")
    }

    #[test]
    fn straight_line_float_ops() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                float a = 1.0f + 2.0f;
                float b = a * 3.0f;
                float c = b / a;
                x[0] = c;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 1.0);
        assert_eq!(a.counts.get(InstrClass::FloatMul), 1.0);
        assert_eq!(a.counts.get(InstrClass::FloatDiv), 1.0);
        assert_eq!(a.counts.get(InstrClass::GlobalStore), 1.0);
        assert_eq!(a.global_write_bytes, 4.0);
    }

    #[test]
    fn int_vs_float_classification() {
        let a = analyze_src(
            "__kernel void k(__global int* x) {
                int i = 1 + 2;
                int j = i * 3;
                float f = 1.0f + (float)i;
                x[0] = j;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::IntAdd), 1.0);
        assert_eq!(a.counts.get(InstrClass::IntMul), 1.0);
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 1.0);
    }

    #[test]
    fn global_load_counts_and_bytes() {
        let a = analyze_src(
            "__kernel void k(__global float* x, __global float* y) {
                uint i = get_global_id(0);
                y[i] = x[i] + x[i + 1];
            }",
        );
        assert_eq!(a.counts.get(InstrClass::GlobalLoad), 2.0);
        assert_eq!(a.counts.get(InstrClass::GlobalStore), 1.0);
        assert_eq!(a.global_read_bytes, 8.0);
        assert_eq!(a.global_write_bytes, 4.0);
    }

    #[test]
    fn local_memory_accesses() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                __local float tile[64];
                uint i = get_global_id(0);
                tile[i] = x[i];
                barrier(0);
                x[i] = tile[i] * 2.0f;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::LocalStore), 1.0);
        assert_eq!(a.counts.get(InstrClass::LocalLoad), 1.0);
        assert_eq!(a.local_bytes, 8.0);
    }

    #[test]
    fn constant_for_loop_trip_count() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                float acc = 0.0f;
                for (int i = 0; i < 10; i += 1) {
                    acc = acc + 1.0f;
                }
                x[0] = acc;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 10.0);
        // cond evaluated 11x -> 11 int compares.
        assert_eq!(a.counts.get(InstrClass::IntAdd), 10.0 + 11.0); // steps + cmps
        assert_eq!(a.counts.get(InstrClass::Branch), 11.0);
    }

    #[test]
    fn le_and_downward_loops() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                float acc = 0.0f;
                for (int i = 1; i <= 8; i += 1) { acc = acc + 1.0f; }
                for (int j = 8; j > 0; j -= 1) { acc = acc + 1.0f; }
                x[0] = acc;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 16.0);
    }

    #[test]
    fn geometric_loop() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                float acc = 0.0f;
                for (int s = 1; s < 64; s *= 2) { acc = acc + 1.0f; }
                x[0] = acc;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 6.0); // 1,2,4,8,16,32
    }

    #[test]
    fn nested_loops_multiply() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                float acc = 0.0f;
                for (int i = 0; i < 4; i += 1) {
                    for (int j = 0; j < 5; j += 1) {
                        acc = acc + 1.0f;
                    }
                }
                x[0] = acc;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 20.0);
    }

    #[test]
    fn param_bound_loop_resolves_with_bindings() {
        let src = "__kernel void k(__global float* x, int n) {
            float acc = 0.0f;
            for (int i = 0; i < n; i += 1) { acc = acc + 1.0f; }
            x[0] = acc;
        }";
        let cfg = AnalysisConfig::with_bindings([("n".to_string(), 32)]);
        let a = analyze_src_with(src, &cfg);
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 32.0);
        // Without bindings the assumed trip count applies.
        let b = analyze_src(src);
        assert_eq!(b.counts.get(InstrClass::FloatAdd), 16.0);
    }

    #[test]
    fn branch_expected_value_weighting() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                uint i = get_global_id(0);
                if (i > 4u) {
                    x[i] = 1.0f;
                } else {
                    x[i] = 2.0f;
                }
            }",
        );
        // One store in each arm, each weighted 0.5.
        assert_eq!(a.counts.get(InstrClass::GlobalStore), 1.0);
        assert_eq!(a.counts.get(InstrClass::Branch), 1.0);
    }

    #[test]
    fn special_functions_counted() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                uint i = get_global_id(0);
                x[i] = sin(x[i]) + exp(x[i]) * sqrt(x[i]);
            }",
        );
        assert_eq!(a.counts.get(InstrClass::SpecialFn), 3.0);
    }

    #[test]
    fn fma_decomposes() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                x[0] = fma(x[0], x[1], x[2]);
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatMul), 1.0);
        assert!(a.counts.get(InstrClass::FloatAdd) >= 1.0);
    }

    #[test]
    fn while_uses_assumed_trips() {
        let cfg = AnalysisConfig {
            assumed_trip_count: 7.0,
            ..Default::default()
        };
        let a = analyze_src_with(
            "__kernel void k(__global float* x) {
                float acc = 0.0f;
                while (acc < x[0]) { acc = acc + 1.0f; }
                x[0] = acc;
            }",
            &cfg,
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 7.0 + 8.0); // body + cond cmp
    }

    #[test]
    fn compound_store_reads_then_writes() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                uint i = get_global_id(0);
                x[i] += 1.0f;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::GlobalLoad), 1.0);
        assert_eq!(a.counts.get(InstrClass::GlobalStore), 1.0);
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 1.0);
    }

    #[test]
    fn counts_iteration_order_is_stable() {
        let mut c = InstructionCounts::new();
        c.add(InstrClass::IntAdd, 2.0);
        c.add(InstrClass::Other, 1.0);
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v[0], (InstrClass::IntAdd, 2.0));
        assert_eq!(v[13], (InstrClass::Other, 1.0));
        assert_eq!(c.total(), 3.0);
        assert_eq!(c.feature_total(), 2.0);
    }

    #[test]
    fn loop_bound_from_local_const() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                int n = 4 * 8;
                float acc = 0.0f;
                for (int i = 0; i < n; i += 1) { acc = acc + 1.0f; }
                x[0] = acc;
            }",
        );
        assert_eq!(a.counts.get(InstrClass::FloatAdd), 32.0);
    }

    #[test]
    fn ternary_counts_both_sides() {
        let a = analyze_src(
            "__kernel void k(__global float* x) {
                uint i = get_global_id(0);
                x[i] = (x[i] > 0.0f) ? sin(x[i]) : cos(x[i]);
            }",
        );
        assert_eq!(a.counts.get(InstrClass::SpecialFn), 2.0);
    }
}
