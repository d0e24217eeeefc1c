//! Lexer for the OpenCL-C kernel subset.
//!
//! The token stream carries byte spans so the parser can produce
//! positioned diagnostics. Comments (`//`, `/* */`) and whitespace are
//! skipped; everything else must form a valid token or lexing fails with
//! a [`LexError`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Byte range of a token in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
    /// 1-based line number of the token start.
    pub line: u32,
}

impl Span {
    /// A zero-width span, used for synthesized tokens.
    pub const DUMMY: Span = Span {
        start: 0,
        end: 0,
        line: 0,
    };
}

/// Keywords of the kernel language.
#[allow(missing_docs)] // variants are self-describing keyword names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Kernel,
    Global,
    Local,
    Constant,
    Private,
    Const,
    Void,
    Int,
    Uint,
    Long,
    Ulong,
    Float,
    Bool,
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    True,
    False,
}

impl Keyword {
    fn from_ident(s: &str) -> Option<Keyword> {
        Some(match s {
            "__kernel" | "kernel" => Keyword::Kernel,
            "__global" | "global" => Keyword::Global,
            "__local" | "local" => Keyword::Local,
            "__constant" | "constant" => Keyword::Constant,
            "__private" | "private" => Keyword::Private,
            "const" => Keyword::Const,
            "void" => Keyword::Void,
            "int" => Keyword::Int,
            "uint" | "unsigned" | "size_t" => Keyword::Uint,
            "long" => Keyword::Long,
            "ulong" => Keyword::Ulong,
            "float" => Keyword::Float,
            "bool" => Keyword::Bool,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "for" => Keyword::For,
            "while" => Keyword::While,
            "do" => Keyword::Do,
            "return" => Keyword::Return,
            "break" => Keyword::Break,
            "continue" => Keyword::Continue,
            "true" => Keyword::True,
            "false" => Keyword::False,
            _ => return None,
        })
    }

    /// The keyword as it is written in source (the `__`-prefixed
    /// spelling where the language has two).
    pub(crate) fn text(self) -> &'static str {
        match self {
            Keyword::Kernel => "__kernel",
            Keyword::Global => "__global",
            Keyword::Local => "__local",
            Keyword::Constant => "__constant",
            Keyword::Private => "__private",
            Keyword::Const => "const",
            Keyword::Void => "void",
            Keyword::Int => "int",
            Keyword::Uint => "uint",
            Keyword::Long => "long",
            Keyword::Ulong => "ulong",
            Keyword::Float => "float",
            Keyword::Bool => "bool",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::For => "for",
            Keyword::While => "while",
            Keyword::Do => "do",
            Keyword::Return => "return",
            Keyword::Break => "break",
            Keyword::Continue => "continue",
            Keyword::True => "true",
            Keyword::False => "false",
        }
    }
}

/// Operators and punctuation.
#[allow(missing_docs)] // variants are self-describing operator names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    AndAnd,
    OrOr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    PlusPlus,
    MinusMinus,
    Question,
    Colon,
    Comma,
    Semi,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
}

impl Op {
    /// The operator as it is written in source.
    pub(crate) fn text(self) -> &'static str {
        match self {
            Op::Plus => "+",
            Op::Minus => "-",
            Op::Star => "*",
            Op::Slash => "/",
            Op::Percent => "%",
            Op::Amp => "&",
            Op::Pipe => "|",
            Op::Caret => "^",
            Op::Tilde => "~",
            Op::Bang => "!",
            Op::Shl => "<<",
            Op::Shr => ">>",
            Op::AndAnd => "&&",
            Op::OrOr => "||",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::EqEq => "==",
            Op::Ne => "!=",
            Op::Assign => "=",
            Op::PlusAssign => "+=",
            Op::MinusAssign => "-=",
            Op::StarAssign => "*=",
            Op::SlashAssign => "/=",
            Op::PercentAssign => "%=",
            Op::AmpAssign => "&=",
            Op::PipeAssign => "|=",
            Op::CaretAssign => "^=",
            Op::ShlAssign => "<<=",
            Op::ShrAssign => ">>=",
            Op::PlusPlus => "++",
            Op::MinusMinus => "--",
            Op::Question => "?",
            Op::Colon => ":",
            Op::Comma => ",",
            Op::Semi => ";",
            Op::LParen => "(",
            Op::RParen => ")",
            Op::LBrace => "{",
            Op::RBrace => "}",
            Op::LBracket => "[",
            Op::RBracket => "]",
        }
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (variable, function, builtin name).
    Ident(String),
    /// Integer literal (decimal or hex), value and unsigned-suffix flag.
    IntLit(i64, bool),
    /// Floating point literal.
    FloatLit(f64),
    /// Keyword.
    Kw(Keyword),
    /// Operator / punctuation.
    Op(Op),
    /// End of input (always the final token).
    Eof,
}

/// Token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

/// Error produced when the source contains an invalid character or
/// malformed literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending text.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.span.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Longest token text, in chars, that [`quote_text`] copies into a
/// message.
const QUOTE_MAX_CHARS: usize = 32;

/// The source text under `span`, quoted for a diagnostic (see
/// [`quote_text`]), or `end of input` for the empty span at the end of
/// the source. A span that does not fall on char boundaries of `src`
/// quotes as `'?'` rather than panicking.
pub(crate) fn quote(src: &str, span: Span) -> String {
    if span.start >= src.len() {
        return "end of input".to_string();
    }
    quote_text(src.get(span.start..span.end).unwrap_or("?"))
}

/// `'text'`, cut to [`QUOTE_MAX_CHARS`] chars (then `…`), with control
/// characters escaped.
fn quote_text(text: &str) -> String {
    let mut out = String::from("'");
    for (i, c) in text.chars().enumerate() {
        if i == QUOTE_MAX_CHARS {
            out.push('…');
            break;
        }
        if c.is_control() {
            out.extend(c.escape_default());
        } else {
            out.push(c);
        }
    }
    out.push('\'');
    out
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }
    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }
    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }
}

/// Tokenize `src` into a vector of tokens terminated by [`TokenKind::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::with_capacity(src.len() / 4 + 8);
    loop {
        skip_trivia(&mut cur)?;
        let start = cur.pos;
        let line = cur.line;
        let Some(c) = cur.peek() else {
            out.push(Token {
                kind: TokenKind::Eof,
                span: Span {
                    start,
                    end: start,
                    line,
                },
            });
            return Ok(out);
        };
        let kind = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => lex_ident(&mut cur),
            b'0'..=b'9' => lex_number(&mut cur)?,
            b'.' if cur.peek2().is_some_and(|d| d.is_ascii_digit()) => lex_number(&mut cur)?,
            _ => lex_op(&mut cur)?,
        };
        out.push(Token {
            kind,
            span: Span {
                start,
                end: cur.pos,
                line,
            },
        });
    }
}

fn skip_trivia(cur: &mut Cursor<'_>) -> Result<(), LexError> {
    loop {
        match cur.peek() {
            Some(c) if c.is_ascii_whitespace() => {
                cur.bump();
            }
            Some(b'/') if cur.peek2() == Some(b'/') => {
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            Some(b'/') if cur.peek2() == Some(b'*') => {
                let start = cur.pos;
                let line = cur.line;
                cur.bump();
                cur.bump();
                loop {
                    match cur.peek() {
                        Some(b'*') if cur.peek2() == Some(b'/') => {
                            cur.bump();
                            cur.bump();
                            break;
                        }
                        Some(_) => {
                            cur.bump();
                        }
                        None => {
                            return Err(LexError {
                                message: "unterminated block comment".into(),
                                span: Span {
                                    start,
                                    end: cur.pos,
                                    line,
                                },
                            })
                        }
                    }
                }
            }
            Some(b'#') => {
                // Preprocessor directives (e.g. #define used for constants in
                // real OpenCL sources) are skipped to end of line; the subset
                // does not implement macro expansion.
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            _ => return Ok(()),
        }
    }
}

fn lex_ident(cur: &mut Cursor<'_>) -> TokenKind {
    let start = cur.pos;
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == b'_' {
            cur.bump();
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&cur.src[start..cur.pos]).expect("ascii ident");
    match Keyword::from_ident(text) {
        Some(kw) => TokenKind::Kw(kw),
        None => TokenKind::Ident(text.to_string()),
    }
}

fn lex_number(cur: &mut Cursor<'_>) -> Result<TokenKind, LexError> {
    let start = cur.pos;
    let line = cur.line;
    // Hex literal.
    if cur.peek() == Some(b'0') && matches!(cur.peek2(), Some(b'x') | Some(b'X')) {
        cur.bump();
        cur.bump();
        let hs = cur.pos;
        while cur.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
            cur.bump();
        }
        if cur.pos == hs {
            return Err(LexError {
                message: "hex literal with no digits".into(),
                span: Span {
                    start,
                    end: cur.pos,
                    line,
                },
            });
        }
        let text = std::str::from_utf8(&cur.src[hs..cur.pos]).unwrap();
        let v = i64::from_str_radix(text, 16).map_err(|e| LexError {
            message: format!("invalid hex literal: {e}"),
            span: Span {
                start,
                end: cur.pos,
                line,
            },
        })?;
        let unsigned = cur.eat(b'u') || cur.eat(b'U');
        let _ = cur.eat(b'l') || cur.eat(b'L');
        return Ok(TokenKind::IntLit(v, unsigned));
    }
    let mut is_float = false;
    while cur.peek().is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
    }
    if cur.peek() == Some(b'.') {
        is_float = true;
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_digit()) {
            cur.bump();
        }
    }
    if matches!(cur.peek(), Some(b'e') | Some(b'E')) {
        let save = cur.pos;
        cur.bump();
        let _ = cur.eat(b'+') || cur.eat(b'-');
        if cur.peek().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            while cur.peek().is_some_and(|c| c.is_ascii_digit()) {
                cur.bump();
            }
        } else {
            cur.pos = save; // not an exponent, e.g. `1e` followed by ident
        }
    }
    let text = std::str::from_utf8(&cur.src[start..cur.pos]).unwrap();
    if is_float {
        let _ = cur.eat(b'f') || cur.eat(b'F');
        let v: f64 = text.parse().map_err(|e| LexError {
            message: format!("invalid float literal: {e}"),
            span: Span {
                start,
                end: cur.pos,
                line,
            },
        })?;
        Ok(TokenKind::FloatLit(v))
    } else if cur.eat(b'f') || cur.eat(b'F') {
        // `1f` style literal.
        let v: f64 = text.parse().map_err(|e| LexError {
            message: format!("invalid float literal: {e}"),
            span: Span {
                start,
                end: cur.pos,
                line,
            },
        })?;
        Ok(TokenKind::FloatLit(v))
    } else {
        let unsigned = cur.eat(b'u') || cur.eat(b'U');
        let _ = cur.eat(b'l') || cur.eat(b'L');
        let v: i64 = text.parse().map_err(|e| LexError {
            message: format!("invalid int literal: {e}"),
            span: Span {
                start,
                end: cur.pos,
                line,
            },
        })?;
        Ok(TokenKind::IntLit(v, unsigned))
    }
}

fn lex_op(cur: &mut Cursor<'_>) -> Result<TokenKind, LexError> {
    let start = cur.pos;
    let line = cur.line;
    let c = cur.bump().expect("caller checked non-empty");
    let op = match c {
        b'+' => {
            if cur.eat(b'+') {
                Op::PlusPlus
            } else if cur.eat(b'=') {
                Op::PlusAssign
            } else {
                Op::Plus
            }
        }
        b'-' => {
            if cur.eat(b'-') {
                Op::MinusMinus
            } else if cur.eat(b'=') {
                Op::MinusAssign
            } else {
                Op::Minus
            }
        }
        b'*' => {
            if cur.eat(b'=') {
                Op::StarAssign
            } else {
                Op::Star
            }
        }
        b'/' => {
            if cur.eat(b'=') {
                Op::SlashAssign
            } else {
                Op::Slash
            }
        }
        b'%' => {
            if cur.eat(b'=') {
                Op::PercentAssign
            } else {
                Op::Percent
            }
        }
        b'&' => {
            if cur.eat(b'&') {
                Op::AndAnd
            } else if cur.eat(b'=') {
                Op::AmpAssign
            } else {
                Op::Amp
            }
        }
        b'|' => {
            if cur.eat(b'|') {
                Op::OrOr
            } else if cur.eat(b'=') {
                Op::PipeAssign
            } else {
                Op::Pipe
            }
        }
        b'^' => {
            if cur.eat(b'=') {
                Op::CaretAssign
            } else {
                Op::Caret
            }
        }
        b'~' => Op::Tilde,
        b'!' => {
            if cur.eat(b'=') {
                Op::Ne
            } else {
                Op::Bang
            }
        }
        b'<' => {
            if cur.eat(b'<') {
                if cur.eat(b'=') {
                    Op::ShlAssign
                } else {
                    Op::Shl
                }
            } else if cur.eat(b'=') {
                Op::Le
            } else {
                Op::Lt
            }
        }
        b'>' => {
            if cur.eat(b'>') {
                if cur.eat(b'=') {
                    Op::ShrAssign
                } else {
                    Op::Shr
                }
            } else if cur.eat(b'=') {
                Op::Ge
            } else {
                Op::Gt
            }
        }
        b'=' => {
            if cur.eat(b'=') {
                Op::EqEq
            } else {
                Op::Assign
            }
        }
        b'?' => Op::Question,
        b':' => Op::Colon,
        b',' => Op::Comma,
        b';' => Op::Semi,
        b'(' => Op::LParen,
        b')' => Op::RParen,
        b'{' => Op::LBrace,
        b'}' => Op::RBrace,
        b'[' => Op::LBracket,
        b']' => Op::RBracket,
        _ => {
            // Take the whole character, not just its first UTF-8 byte.
            while cur.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                cur.bump();
            }
            let text = std::str::from_utf8(&cur.src[start..cur.pos]).unwrap_or("?");
            return Err(LexError {
                message: format!("unexpected character {}", quote_text(text)),
                span: Span {
                    start,
                    end: cur.pos,
                    line,
                },
            });
        }
    };
    Ok(TokenKind::Op(op))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_empty() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
    }

    #[test]
    fn lex_idents_and_keywords() {
        let k = kinds("__kernel void foo bar_1");
        assert_eq!(
            k,
            vec![
                TokenKind::Kw(Keyword::Kernel),
                TokenKind::Kw(Keyword::Void),
                TokenKind::Ident("foo".into()),
                TokenKind::Ident("bar_1".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_alt_qualifier_spelling() {
        assert_eq!(kinds("global")[0], TokenKind::Kw(Keyword::Global));
        assert_eq!(kinds("__global")[0], TokenKind::Kw(Keyword::Global));
    }

    #[test]
    fn lex_int_literals() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42, false));
        assert_eq!(kinds("0x1F")[0], TokenKind::IntLit(31, false));
        assert_eq!(kinds("7u")[0], TokenKind::IntLit(7, true));
        assert_eq!(kinds("7U")[0], TokenKind::IntLit(7, true));
    }

    #[test]
    fn lex_float_literals() {
        assert_eq!(kinds("1.5")[0], TokenKind::FloatLit(1.5));
        assert_eq!(kinds("1.5f")[0], TokenKind::FloatLit(1.5));
        assert_eq!(kinds("2.0e3")[0], TokenKind::FloatLit(2000.0));
        assert_eq!(kinds(".25")[0], TokenKind::FloatLit(0.25));
        assert_eq!(kinds("1e-2")[0], TokenKind::FloatLit(0.01));
    }

    #[test]
    fn lex_operators() {
        let k = kinds("+ += ++ << <<= <= < == = !=");
        assert_eq!(
            k,
            vec![
                TokenKind::Op(Op::Plus),
                TokenKind::Op(Op::PlusAssign),
                TokenKind::Op(Op::PlusPlus),
                TokenKind::Op(Op::Shl),
                TokenKind::Op(Op::ShlAssign),
                TokenKind::Op(Op::Le),
                TokenKind::Op(Op::Lt),
                TokenKind::Op(Op::EqEq),
                TokenKind::Op(Op::Assign),
                TokenKind::Op(Op::Ne),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_comments_and_preprocessor() {
        let k = kinds("a // line\n /* block\nmore */ b\n#define N 4\nc");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_unterminated_comment_errors() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn lex_bad_char_errors() {
        let err = lex("int a = $;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\nb\n  c").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
    }

    #[test]
    fn lex_hex_no_digits_errors() {
        assert!(lex("0x").is_err());
    }
}
