//! Recursive-descent parser for the OpenCL-C kernel subset.
//!
//! The grammar is a pragmatic C subset sufficient for the paper's
//! training and test kernels: `__kernel` functions with pointer/scalar
//! parameters, declarations, assignments (plain, compound, `++`/`--`),
//! `if`/`for`/`while`/`do`, and a conventional C expression grammar with
//! precedence climbing.
//!
//! The parser holds one token and pulls the next from a [`Lexer`] as it
//! consumes it (the one place that looks further, a cast's `( type )`,
//! lexes ahead on a copy of the lexer), and writes nodes straight into
//! the kernel's arenas (see [`crate::ast`]). A block's statements are
//! staged on a stack while its nested blocks are parsed, then moved into
//! the arena as one run; call arguments are staged the same way.

use crate::ast::*;
use crate::lexer::{quote, Keyword, LexError, Lexer, Op, Span, Token, TokenKind};
use std::fmt;

/// Parse error with location information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}: {}",
            self.span.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Parse a full translation unit (one or more kernels). The program
/// borrows its names from `src`.
///
/// A lex error anywhere in the source is reported in preference to a
/// parse error before it, as if the whole source were lexed first.
pub fn parse(src: &str) -> Result<Program<'_>, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut p = Parser {
        src,
        tok: lexer.next_token(),
        lexer,
        arena: Arena::for_source(src.len()),
        open_stmts: Vec::with_capacity(16),
        open_args: Vec::with_capacity(8),
        error: None,
    };
    let parsed = p.kernels();
    // A lex error outranks the parse error that stopped before it.
    p.lexer.finish()?;
    let kernels = parsed.map_err(|Failed| p.error.expect("a failed parse records its error"))?;
    if kernels.is_empty() {
        return Err(ParseError {
            message: "source contains no kernels".into(),
            span: Span::DUMMY,
        });
    }
    Ok(Program { kernels })
}

/// The arenas of the kernel being parsed.
#[derive(Default)]
struct Arena<'src> {
    exprs: Vec<Expr<'src>>,
    stmts: Vec<Stmt<'src>>,
    args: Vec<ExprId>,
}

impl Arena<'_> {
    /// Arenas sized for a source of `len` bytes, so that a typical
    /// kernel never regrows them: the shipped kernels hold about one
    /// expression per 8 source bytes and one statement per 30. The
    /// estimate stops growing at 16 KiB, since long comments inflate
    /// the byte count without adding nodes.
    fn for_source(len: usize) -> Self {
        let len = len.min(1 << 14);
        Arena {
            exprs: Vec::with_capacity(len / 6),
            stmts: Vec::with_capacity(len / 20),
            args: Vec::with_capacity(len / 64),
        }
    }
}

struct Parser<'src> {
    src: &'src str,
    lexer: Lexer<'src>,
    /// The current token.
    tok: Token<'src>,
    arena: Arena<'src>,
    /// Statements of the blocks still open, innermost last.
    open_stmts: Vec<Stmt<'src>>,
    /// Arguments of the calls still open, innermost last.
    open_args: Vec<ExprId>,
    /// Why the parse stopped, once it has.
    error: Option<ParseError>,
}

/// A parse stopped; the error is in [`Parser::error`]. Keeping it out of
/// the `Result`s keeps every recursive call's result in registers.
struct Failed;

/// An arena index. Every node spends at least one source byte, so any
/// source under 4 GiB fits (the daemon takes lines of at most 4 MiB).
fn id(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 nodes per kernel")
}

impl<'src> Parser<'src> {
    fn peek(&self) -> TokenKind<'src> {
        self.tok.kind
    }
    /// The kind of the token `n ≥ 1` places on, lexed by a copy of the
    /// lexer (only a cast needs to look past the current token).
    fn peek_at(&self, n: usize) -> TokenKind<'src> {
        let mut ahead = self.lexer.clone();
        for _ in 1..n {
            ahead.next_token();
        }
        ahead.next_token().kind
    }
    fn span(&self) -> Span {
        self.tok.span
    }
    fn at_eof(&self) -> bool {
        self.peek() == TokenKind::Eof
    }
    fn bump(&mut self) {
        self.tok = self.lexer.next_token();
    }
    fn eat_op(&mut self, op: Op) -> bool {
        let hit = self.peek() == TokenKind::Op(op);
        if hit {
            self.bump();
        }
        hit
    }
    fn expect_op(&mut self, op: Op) -> Result<(), Failed> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{}'", op.text())))
        }
    }
    fn eat_kw(&mut self, kw: Keyword) -> bool {
        let hit = self.peek() == TokenKind::Kw(kw);
        if hit {
            self.bump();
        }
        hit
    }
    fn expect_kw(&mut self, kw: Keyword) -> Result<(), Failed> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{}'", kw.text())))
        }
    }
    fn expect_ident(&mut self) -> Result<&'src str, Failed> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }
    fn err(&mut self, message: String) -> Failed {
        self.fail_at(self.span(), message)
    }
    fn fail_at(&mut self, span: Span, message: String) -> Failed {
        self.error = Some(ParseError { message, span });
        Failed
    }
    /// An "expected `what`, found …" error at the current token, whose
    /// source text the message quotes.
    fn unexpected(&mut self, what: &str) -> Failed {
        let found = quote(self.src, self.span());
        self.err(format!("expected {what}, found {found}"))
    }

    // ---- arenas ---------------------------------------------------------

    fn push_expr(&mut self, e: Expr<'src>) -> ExprId {
        self.arena.exprs.push(e);
        ExprId(id(self.arena.exprs.len() - 1))
    }
    fn push_stmt(&mut self, s: Stmt<'src>) -> StmtId {
        self.arena.stmts.push(s);
        StmtId(id(self.arena.stmts.len() - 1))
    }
    /// Move the statements staged since `mark` into the arena as a block.
    fn close_block(&mut self, mark: usize) -> Stmts {
        let start = id(self.arena.stmts.len());
        self.arena.stmts.extend(self.open_stmts.drain(mark..));
        Stmts {
            start,
            end: id(self.arena.stmts.len()),
        }
    }

    // ---- declarations -------------------------------------------------

    fn kernels(&mut self) -> Result<Vec<KernelFn<'src>>, Failed> {
        let mut kernels = Vec::with_capacity(1);
        while !self.at_eof() {
            kernels.push(self.kernel_fn()?);
        }
        Ok(kernels)
    }

    fn kernel_fn(&mut self) -> Result<KernelFn<'src>, Failed> {
        let span = self.span();
        self.expect_kw(Keyword::Kernel)?;
        self.expect_kw(Keyword::Void)?;
        let name = self.expect_ident()?;
        self.expect_op(Op::LParen)?;
        let mut params = Vec::new();
        if !self.eat_op(Op::RParen) {
            loop {
                params.push(self.param()?);
                if self.eat_op(Op::RParen) {
                    break;
                }
                self.expect_op(Op::Comma)?;
            }
        }
        self.expect_op(Op::LBrace)?;
        let body = self.block_body()?;
        let Arena { exprs, stmts, args } = std::mem::take(&mut self.arena);
        Ok(KernelFn {
            name,
            params,
            body,
            span,
            exprs,
            stmts,
            args,
        })
    }

    fn param(&mut self) -> Result<Param<'src>, Failed> {
        let mut space = AddressSpace::Private;
        let mut is_const = false;
        loop {
            if self.eat_kw(Keyword::Global) {
                space = AddressSpace::Global;
            } else if self.eat_kw(Keyword::Local) {
                space = AddressSpace::Local;
            } else if self.eat_kw(Keyword::Constant) {
                space = AddressSpace::Constant;
            } else if self.eat_kw(Keyword::Private) {
                space = AddressSpace::Private;
            } else if self.eat_kw(Keyword::Const) {
                is_const = true;
            } else {
                break;
            }
        }
        let scalar = self.scalar_type()?;
        // `const` may also follow the element type (e.g. `float const *`).
        if self.eat_kw(Keyword::Const) {
            is_const = true;
        }
        let pointer = self.eat_op(Op::Star);
        if pointer && self.eat_kw(Keyword::Const) {
            is_const = true;
        }
        let name = self.expect_ident()?;
        let ty = if pointer {
            Type::pointer(scalar, space)
        } else {
            Type::scalar(scalar)
        };
        Ok(Param { ty, name, is_const })
    }

    fn scalar_type(&mut self) -> Result<Scalar, Failed> {
        let s = match self.peek() {
            TokenKind::Kw(Keyword::Void) => Scalar::Void,
            TokenKind::Kw(Keyword::Int) => Scalar::Int,
            TokenKind::Kw(Keyword::Uint) => Scalar::Uint,
            TokenKind::Kw(Keyword::Long) => Scalar::Long,
            TokenKind::Kw(Keyword::Ulong) => Scalar::Ulong,
            TokenKind::Kw(Keyword::Float) => Scalar::Float,
            TokenKind::Kw(Keyword::Bool) => Scalar::Bool,
            _ => return Err(self.unexpected("type")),
        };
        self.bump();
        Ok(s)
    }

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Kw(
                Keyword::Int
                    | Keyword::Uint
                    | Keyword::Long
                    | Keyword::Ulong
                    | Keyword::Float
                    | Keyword::Bool
                    | Keyword::Const
                    | Keyword::Local
                    | Keyword::Private
            )
        )
    }

    // ---- statements ----------------------------------------------------

    fn block_body(&mut self) -> Result<Stmts, Failed> {
        let mark = self.open_stmts.len();
        while !self.eat_op(Op::RBrace) {
            if self.at_eof() {
                return Err(self.err("unexpected end of input inside block".into()));
            }
            let s = self.stmt()?;
            self.open_stmts.push(s);
        }
        Ok(self.close_block(mark))
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        match self.peek() {
            TokenKind::Op(Op::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?, span))
            }
            TokenKind::Kw(Keyword::If) => self.if_stmt(),
            TokenKind::Kw(Keyword::For) => self.for_stmt(),
            TokenKind::Kw(Keyword::While) => self.while_stmt(),
            TokenKind::Kw(Keyword::Do) => self.do_stmt(),
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let e = if self.eat_op(Op::Semi) {
                    None
                } else {
                    let e = self.expr()?;
                    self.expect_op(Op::Semi)?;
                    Some(e)
                };
                Ok(Stmt::Return(e, span))
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.starts_type() => {
                let s = self.decl_stmt()?;
                self.expect_op(Op::Semi)?;
                Ok(s)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_op(Op::Semi)?;
                Ok(s)
            }
        }
    }

    /// Declaration without trailing `;` (shared with `for` init).
    fn decl_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        let mut space = AddressSpace::Private;
        loop {
            if self.eat_kw(Keyword::Local) {
                space = AddressSpace::Local;
            } else if self.eat_kw(Keyword::Private) {
                space = AddressSpace::Private;
            } else if self.eat_kw(Keyword::Const) {
                // const-ness of locals does not affect analysis
            } else {
                break;
            }
        }
        let scalar = self.scalar_type()?;
        let name = self.expect_ident()?;
        // Fixed-size array declaration (e.g. `__local float tile[256];`).
        if self.eat_op(Op::LBracket) {
            let len = match self.peek() {
                TokenKind::IntLit(v, _) if v > 0 => v as u64,
                _ => return Err(self.unexpected("array length literal")),
            };
            self.bump();
            self.expect_op(Op::RBracket)?;
            return Ok(Stmt::Decl {
                ty: Type::pointer(scalar, space),
                name,
                array_len: Some(len),
                init: None,
                span,
            });
        }
        let init = if self.eat_op(Op::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            ty: Type {
                scalar,
                pointer: false,
                space,
            },
            name,
            array_len: None,
            init,
            span,
        })
    }

    /// Assignment / expression statement without trailing `;`
    /// (shared with `for` init/step).
    fn simple_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        // Pre-increment/decrement.
        for (op, bin) in [(Op::PlusPlus, BinOp::Add), (Op::MinusMinus, BinOp::Sub)] {
            if self.eat_op(op) {
                let name = self.expect_ident()?;
                return Ok(self.incdec(name, bin, span));
            }
        }
        let e = self.expr()?;
        // Post-increment/decrement.
        for (op, bin) in [(Op::PlusPlus, BinOp::Add), (Op::MinusMinus, BinOp::Sub)] {
            if self.eat_op(op) {
                return match *self.arena.exprs.last().expect("an expression was parsed") {
                    Expr::Var(name) => {
                        self.arena.exprs.pop();
                        Ok(self.incdec(name, bin, span))
                    }
                    _ => Err(self.fail_at(span, "'++' or '--' requires a variable".into())),
                };
            }
        }
        let op = match self.peek() {
            TokenKind::Op(Op::Assign) => None,
            TokenKind::Op(Op::PlusAssign) => Some(BinOp::Add),
            TokenKind::Op(Op::MinusAssign) => Some(BinOp::Sub),
            TokenKind::Op(Op::StarAssign) => Some(BinOp::Mul),
            TokenKind::Op(Op::SlashAssign) => Some(BinOp::Div),
            TokenKind::Op(Op::PercentAssign) => Some(BinOp::Rem),
            TokenKind::Op(Op::AmpAssign) => Some(BinOp::BitAnd),
            TokenKind::Op(Op::PipeAssign) => Some(BinOp::BitOr),
            TokenKind::Op(Op::CaretAssign) => Some(BinOp::BitXor),
            TokenKind::Op(Op::ShlAssign) => Some(BinOp::Shl),
            TokenKind::Op(Op::ShrAssign) => Some(BinOp::Shr),
            _ => return Ok(Stmt::Expr(e, span)),
        };
        self.bump();
        // The target's root is the node parsed last; it becomes the
        // statement's `LValue` and leaves the arena.
        let target = match self.arena.exprs.pop().expect("an expression was parsed") {
            Expr::Var(name) => LValue::Var(name),
            Expr::Index { base, index } => LValue::Index { base, index },
            _ => return Err(self.fail_at(span, "invalid assignment target".into())),
        };
        let value = self.expr()?;
        Ok(Stmt::Assign {
            target,
            op,
            value,
            span,
        })
    }

    fn incdec(&mut self, name: &'src str, op: BinOp, span: Span) -> Stmt<'src> {
        Stmt::Assign {
            target: LValue::Var(name),
            op: Some(op),
            value: self.push_expr(Expr::IntLit(1)),
            span,
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        self.expect_kw(Keyword::If)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        let then = self.stmt_or_block()?;
        let other = if self.eat_kw(Keyword::Else) {
            self.stmt_or_block()?
        } else {
            self.close_block(self.open_stmts.len())
        };
        Ok(Stmt::If {
            cond,
            then,
            other,
            span,
        })
    }

    fn stmt_or_block(&mut self) -> Result<Stmts, Failed> {
        if self.eat_op(Op::LBrace) {
            return self.block_body();
        }
        let s = self.stmt()?;
        let StmtId(start) = self.push_stmt(s);
        Ok(Stmts {
            start,
            end: start + 1,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        self.expect_kw(Keyword::For)?;
        self.expect_op(Op::LParen)?;
        let init = if self.eat_op(Op::Semi) {
            None
        } else {
            let s = if self.starts_type() {
                self.decl_stmt()?
            } else {
                self.simple_stmt()?
            };
            self.expect_op(Op::Semi)?;
            Some(self.push_stmt(s))
        };
        let cond = if self.eat_op(Op::Semi) {
            None
        } else {
            let c = self.expr()?;
            self.expect_op(Op::Semi)?;
            Some(c)
        };
        let step = if self.peek() == TokenKind::Op(Op::RParen) {
            None
        } else {
            let s = self.simple_stmt()?;
            Some(self.push_stmt(s))
        };
        self.expect_op(Op::RParen)?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        self.expect_kw(Keyword::While)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::While { cond, body, span })
    }

    /// `do body while (cond);` is desugared to `body; while(cond) body`
    /// for analysis purposes — the body executes at least once and the
    /// static trip-count model treats both forms identically.
    fn do_stmt(&mut self) -> Result<Stmt<'src>, Failed> {
        let span = self.span();
        self.expect_kw(Keyword::Do)?;
        let body = self.stmt_or_block()?;
        self.expect_kw(Keyword::While)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        self.expect_op(Op::Semi)?;
        Ok(Stmt::While { cond, body, span })
    }

    // ---- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> Result<ExprId, Failed> {
        let cond = self.binary(0)?;
        if !self.eat_op(Op::Question) {
            return Ok(cond);
        }
        let then = self.expr()?;
        self.expect_op(Op::Colon)?;
        let other = self.expr()?;
        Ok(self.push_expr(Expr::Ternary { cond, then, other }))
    }

    fn bin_op_prec(kind: TokenKind<'_>) -> Option<(BinOp, u8)> {
        let TokenKind::Op(op) = kind else {
            return None;
        };
        Some(match op {
            Op::OrOr => (BinOp::LogOr, 1),
            Op::AndAnd => (BinOp::LogAnd, 2),
            Op::Pipe => (BinOp::BitOr, 3),
            Op::Caret => (BinOp::BitXor, 4),
            Op::Amp => (BinOp::BitAnd, 5),
            Op::EqEq => (BinOp::Eq, 6),
            Op::Ne => (BinOp::Ne, 6),
            Op::Lt => (BinOp::Lt, 7),
            Op::Gt => (BinOp::Gt, 7),
            Op::Le => (BinOp::Le, 7),
            Op::Ge => (BinOp::Ge, 7),
            Op::Shl => (BinOp::Shl, 8),
            Op::Shr => (BinOp::Shr, 8),
            Op::Plus => (BinOp::Add, 9),
            Op::Minus => (BinOp::Sub, 9),
            Op::Star => (BinOp::Mul, 10),
            Op::Slash => (BinOp::Div, 10),
            Op::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<ExprId, Failed> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.push_expr(Expr::Binary { op, lhs, rhs });
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, Failed> {
        for (tok, op) in [
            (Op::Minus, UnOp::Neg),
            (Op::Bang, UnOp::Not),
            (Op::Tilde, UnOp::BitNot),
        ] {
            if self.eat_op(tok) {
                let expr = self.unary()?;
                return Ok(self.push_expr(Expr::Unary { op, expr }));
            }
        }
        if self.eat_op(Op::Plus) {
            return self.unary();
        }
        // Cast: `(type) expr` — look ahead for `(` followed by a type
        // keyword followed by `)`.
        if self.peek() == TokenKind::Op(Op::LParen)
            && matches!(
                self.peek_at(1),
                TokenKind::Kw(
                    Keyword::Int | Keyword::Uint | Keyword::Long | Keyword::Ulong | Keyword::Float
                )
            )
            && self.peek_at(2) == TokenKind::Op(Op::RParen)
        {
            self.bump(); // (
            let ty = self.scalar_type()?;
            self.bump(); // )
            let expr = self.unary()?;
            return Ok(self.push_expr(Expr::Cast { ty, expr }));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<ExprId, Failed> {
        let mut base = self.primary()?;
        while self.eat_op(Op::LBracket) {
            let index = self.expr()?;
            self.expect_op(Op::RBracket)?;
            base = self.push_expr(Expr::Index { base, index });
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<ExprId, Failed> {
        let e = match self.peek() {
            TokenKind::IntLit(v, _) => Expr::IntLit(v),
            TokenKind::FloatLit(v) => Expr::FloatLit(v),
            TokenKind::Kw(Keyword::True) => Expr::BoolLit(true),
            TokenKind::Kw(Keyword::False) => Expr::BoolLit(false),
            TokenKind::Ident(name) => {
                self.bump();
                if !self.eat_op(Op::LParen) {
                    return Ok(self.push_expr(Expr::Var(name)));
                }
                let mark = self.open_args.len();
                if !self.eat_op(Op::RParen) {
                    loop {
                        let arg = self.expr()?;
                        self.open_args.push(arg);
                        if self.eat_op(Op::RParen) {
                            break;
                        }
                        self.expect_op(Op::Comma)?;
                    }
                }
                let start = id(self.arena.args.len());
                self.arena.args.extend(self.open_args.drain(mark..));
                let args = Args {
                    start,
                    end: id(self.arena.args.len()),
                };
                return Ok(self.push_expr(Expr::Call { name, args }));
            }
            TokenKind::Op(Op::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_op(Op::RParen)?;
                return Ok(e);
            }
            _ => return Err(self.unexpected("expression")),
        };
        self.bump();
        Ok(self.push_expr(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> KernelFn<'_> {
        parse(src).unwrap().kernels.into_iter().next().unwrap()
    }

    #[test]
    fn parse_minimal_kernel() {
        let k = parse_one("__kernel void k() { }");
        assert_eq!(k.name, "k");
        assert!(k.params.is_empty());
        assert!(k.stmts(k.body).is_empty());
    }

    #[test]
    fn parse_params() {
        let k = parse_one(
            "__kernel void k(__global const float* in, __global float* out, const int n) {}",
        );
        assert_eq!(k.params.len(), 3);
        assert!(k.params[0].is_const);
        assert!(k.params[0].ty.pointer);
        assert_eq!(k.params[0].ty.space, AddressSpace::Global);
        assert_eq!(k.params[2].ty.scalar, Scalar::Int);
        assert!(!k.params[2].ty.pointer);
    }

    #[test]
    fn parse_local_param() {
        let k = parse_one("__kernel void k(__local float* tile) {}");
        assert_eq!(k.params[0].ty.space, AddressSpace::Local);
    }

    #[test]
    fn parse_decl_and_assign() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                float x = 0.0f;
                x += a[i];
                a[i] = x * 2.0f;
            }",
        );
        let body = k.stmts(k.body);
        assert_eq!(body.len(), 4);
        assert!(matches!(
            &body[2],
            Stmt::Assign {
                op: Some(BinOp::Add),
                ..
            }
        ));
        assert!(matches!(
            &body[3],
            Stmt::Assign {
                target: LValue::Index { .. },
                ..
            }
        ));
    }

    #[test]
    fn parse_for_loop() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                for (int i = 0; i < 16; i++) { a[i] = 0.0f; }
            }",
        );
        let Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } = &k.stmts(k.body)[0]
        else {
            panic!("expected for")
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
        assert_eq!(k.stmts(*body).len(), 1);
    }

    #[test]
    fn parse_if_else() {
        let k = parse_one(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                if (i < 4) a[i] = 1; else { a[i] = 2; }
            }",
        );
        let Stmt::If { then, other, .. } = k.stmts(k.body)[1] else {
            panic!("expected if")
        };
        assert_eq!(k.stmts(then).len(), 1);
        assert_eq!(k.stmts(other).len(), 1);
    }

    #[test]
    fn parse_while_and_do() {
        let k = parse_one(
            "__kernel void k() {
                int i = 0;
                while (i < 8) { i = i + 1; }
                do { i = i - 1; } while (i > 0);
            }",
        );
        let body = k.stmts(k.body);
        assert!(matches!(body[1], Stmt::While { .. }));
        assert!(matches!(body[2], Stmt::While { .. }));
    }

    #[test]
    fn parse_precedence() {
        let k = parse_one("__kernel void k(__global int* a) { a[0] = 1 + 2 * 3; }");
        let Stmt::Assign { value, .. } = k.stmts(k.body)[0] else {
            panic!()
        };
        // 1 + (2*3)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = *k.expr(value)
        else {
            panic!("got {:?}", k.expr(value))
        };
        assert!(matches!(k.expr(rhs), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parse_ternary_and_cast() {
        let k = parse_one(
            "__kernel void k(__global float* a, const int n) {
                int i = get_global_id(0);
                a[i] = i < n ? (float)i : 0.0f;
            }",
        );
        let Stmt::Assign { value, .. } = k.stmts(k.body)[1] else {
            panic!()
        };
        assert!(matches!(k.expr(value), Expr::Ternary { .. }));
    }

    #[test]
    fn parse_calls() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = sqrt(a[i]) + pow(a[i], 2.0f);
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        let Stmt::Expr(call, _) = k.stmts(k.body)[2] else {
            panic!()
        };
        assert!(matches!(
            k.expr(call),
            Expr::Call {
                name: "barrier",
                ..
            }
        ));
    }

    #[test]
    fn parse_local_array_decl() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                __local float tile[64];
                int l = get_local_id(0);
                tile[l] = a[l];
            }",
        );
        let Stmt::Decl { ty, array_len, .. } = k.stmts(k.body)[0] else {
            panic!()
        };
        assert_eq!(array_len, Some(64));
        assert_eq!(ty.space, AddressSpace::Local);
        assert!(ty.pointer);
    }

    #[test]
    fn parse_multiple_kernels() {
        let p = parse("__kernel void a() {} __kernel void b() {}").unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert!(p.kernel("b").is_some());
        assert!(p.kernel("c").is_none());
    }

    #[test]
    fn parse_error_on_garbage() {
        assert!(parse("void nope() {}").is_err());
        assert!(parse("__kernel void k( {").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_error_has_line() {
        let e = parse("__kernel void k() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(e.span.line, 2);
    }

    /// Parse errors reach the wire, so they quote source text, never
    /// the parser's own token or AST types.
    #[test]
    fn parse_errors_quote_source_not_debug_text() {
        let body = |stmt: &str| {
            let src = format!("__kernel void k(__global float* x) {{\n  {stmt}\n}}");
            parse(&src).unwrap_err()
        };
        let e = body("(x[0] + x[1] * 2.0f) = 1.0f;");
        assert_eq!(e.message, "invalid assignment target");
        assert_eq!(e.span.line, 2);
        assert_eq!(body("x[0] = (1.0f;").message, "expected ')', found ';'");
        assert_eq!(body("x[0]++;").message, "'++' or '--' requires a variable");
        assert_eq!(
            parse("this is not OpenCL").unwrap_err().message,
            "expected '__kernel', found 'this'"
        );
        assert_eq!(
            parse("__kernel void k(").unwrap_err().message,
            "expected type, found end of input"
        );
        // A long token is cut; a stray character is quoted whole, not
        // by its first UTF-8 byte.
        assert_eq!(
            parse(&"a".repeat(40)).unwrap_err().message,
            format!("expected '__kernel', found '{}…'", "a".repeat(32))
        );
        let e = parse("__kernel void k() { float é; }").unwrap_err();
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!(e.span.end - e.span.start, 'é'.len_utf8());
    }

    #[test]
    fn parse_compound_assignment_variants() {
        let k = parse_one(
            "__kernel void k() {
                int x = 1;
                x <<= 2; x >>= 1; x &= 3; x |= 4; x ^= 5; x %= 6; x *= 7; x /= 8; x -= 9;
            }",
        );
        assert_eq!(k.stmts(k.body).len(), 10);
    }

    #[test]
    fn parse_unary_ops() {
        let k = parse_one("__kernel void k(__global int* a) { a[0] = -a[1] + ~a[2]; a[3] = !0; }");
        assert_eq!(k.stmts(k.body).len(), 2);
    }
}
