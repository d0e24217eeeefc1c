//! Lexer for the OpenCL-C kernel subset.
//!
//! [`Lexer`] is a pull lexer: the parser asks it for one token at a time
//! and no token vector is built. Tokens are `Copy`, carry byte spans for
//! positioned diagnostics, and borrow identifier text from the source,
//! so lexing a valid source allocates nothing. Comments (`//`, `/* */`)
//! and whitespace are skipped; everything else must form a valid token
//! or lexing fails with a [`LexError`]. [`lex`] collects a whole
//! source's tokens.

use std::fmt;

/// Byte range of a token in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One lexical token. Identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier (variable, function, builtin name).
    Ident(&'src str),
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// What kind of token this is.
    pub kind: TokenKind<'src>,
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

/// Tokenize all of `src` into tokens terminated by [`TokenKind::Eof`]
/// (the parser pulls from a [`Lexer`] instead).
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::with_capacity(src.len() / 4 + 8);
    loop {
        let token = lexer.next_token();
        out.push(token);
        if token.kind == TokenKind::Eof {
            return lexer.finish().map(|()| out);
        }
    }
}

/// A pull lexer: each [`Lexer::next_token`] scans one token on demand,
/// so nothing is buffered, and only an error's message allocates.
///
/// A lex error ends the stream: from then on every token is
/// [`TokenKind::Eof`], and [`Lexer::finish`] reports the error.
#[derive(Clone)]
pub struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    line: u32,
    error: Option<LexError>,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            error: None,
        }
    }

    /// The next token: [`TokenKind::Eof`] at the end of the input and
    /// after a lex error.
    pub fn next_token(&mut self) -> Token<'src> {
        if self.error.is_none() {
            match self.scan() {
                Ok(token) => return token,
                Err(e) => self.error = Some(e),
            }
        }
        Token {
            kind: TokenKind::Eof,
            span: self.span_from(self.pos, self.line),
        }
    }

    /// Lex whatever input is left and return the first lex error of the
    /// whole source, if any.
    pub fn finish(mut self) -> Result<(), LexError> {
        while self.next_token().kind != TokenKind::Eof {}
        self.error.map_or(Ok(()), Err)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    /// Advance past bytes matching `f` (none of which is a newline).
    fn skip_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&f) {
            self.pos += 1;
        }
    }

    fn span_from(&self, start: usize, line: u32) -> Span {
        Span {
            start,
            end: self.pos,
            line,
        }
    }

    fn scan(&mut self) -> Result<Token<'src>, LexError> {
        self.skip_trivia()?;
        let (start, line) = (self.pos, self.line);
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => {
                self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                let text = &self.src[start..self.pos];
                Keyword::from_ident(text).map_or(TokenKind::Ident(text), TokenKind::Kw)
            }
            Some(b'0'..=b'9') => self.number(start, line)?,
            Some(b'.') if self.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                self.number(start, line)?
            }
            Some(c) => {
                self.pos += 1;
                match self.op(c) {
                    Some(op) => TokenKind::Op(op),
                    None => {
                        // Take the whole character, not just its first
                        // UTF-8 byte.
                        let ch = self.src[start..].chars().next().unwrap_or('?');
                        self.pos = start + ch.len_utf8();
                        let text = quote_text(&self.src[start..self.pos]);
                        return Err(LexError {
                            message: format!("unexpected character {text}"),
                            span: self.span_from(start, line),
                        });
                    }
                }
            }
        };
        Ok(Token {
            kind,
            span: self.span_from(start, line),
        })
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                    self.line += u32::from(c == b'\n');
                }
                // Line comments and preprocessor directives (e.g. the
                // `#define`s of real OpenCL sources; the subset does not
                // expand macros) run to the end of the line.
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_while(|c| c != b'\n'),
                Some(b'#') => self.skip_while(|c| c != b'\n'),
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (start, line) = (self.pos, self.line);
                    let body = &self.src.as_bytes()[start + 2..];
                    let Some(len) = body.windows(2).position(|w| w == b"*/") else {
                        self.pos = self.src.len();
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            span: self.span_from(start, line),
                        });
                    };
                    self.line += body[..len].iter().filter(|&&c| c == b'\n').count() as u32;
                    self.pos = start + 2 + len + 2;
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self, start: usize, line: u32) -> Result<TokenKind<'src>, LexError> {
        let err = |lexer: &Self, message: String| LexError {
            message,
            span: lexer.span_from(start, line),
        };
        // Hex literal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.pos += 2;
            let digits = self.pos;
            self.skip_while(|c| c.is_ascii_hexdigit());
            if self.pos == digits {
                return Err(err(self, "hex literal with no digits".into()));
            }
            let v = i64::from_str_radix(&self.src[digits..self.pos], 16)
                .map_err(|e| err(self, format!("invalid hex literal: {e}")))?;
            let unsigned = self.eat(b'u') || self.eat(b'U');
            let _ = self.eat(b'l') || self.eat(b'L');
            return Ok(TokenKind::IntLit(v, unsigned));
        }
        self.skip_while(|c| c.is_ascii_digit());
        let mut is_float = self.eat(b'.');
        if is_float {
            self.skip_while(|c| c.is_ascii_digit());
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = self.pos;
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.skip_while(|c| c.is_ascii_digit());
            } else {
                self.pos = save; // not an exponent, e.g. `1e` followed by ident
            }
        }
        let text = &self.src[start..self.pos];
        // `1.5f`, and the `1f` style literal.
        if self.eat(b'f') || self.eat(b'F') || is_float {
            let v = text
                .parse()
                .map_err(|e| err(self, format!("invalid float literal: {e}")))?;
            return Ok(TokenKind::FloatLit(v));
        }
        let unsigned = self.eat(b'u') || self.eat(b'U');
        let _ = self.eat(b'l') || self.eat(b'L');
        let v = text
            .parse()
            .map_err(|e| err(self, format!("invalid int literal: {e}")))?;
        Ok(TokenKind::IntLit(v, unsigned))
    }

    /// The operator starting with `c` (already consumed), taking its
    /// doubled (`++`, `<<`, `<<=`) or `=`-suffixed (`+=`, `<=`) form
    /// when the source continues that way.
    fn op(&mut self, c: u8) -> Option<Op> {
        use Op::*;
        let (single, with_eq, doubled) = match c {
            b'+' => (Plus, Some(PlusAssign), Some(PlusPlus)),
            b'-' => (Minus, Some(MinusAssign), Some(MinusMinus)),
            b'*' => (Star, Some(StarAssign), None),
            b'/' => (Slash, Some(SlashAssign), None),
            b'%' => (Percent, Some(PercentAssign), None),
            b'&' => (Amp, Some(AmpAssign), Some(AndAnd)),
            b'|' => (Pipe, Some(PipeAssign), Some(OrOr)),
            b'^' => (Caret, Some(CaretAssign), None),
            b'!' => (Bang, Some(Ne), None),
            b'=' => (Assign, Some(EqEq), None),
            b'<' => (Lt, Some(Le), Some(Shl)),
            b'>' => (Gt, Some(Ge), Some(Shr)),
            b'~' => (Tilde, None, None),
            b'?' => (Question, None, None),
            b':' => (Colon, None, None),
            b',' => (Comma, None, None),
            b';' => (Semi, None, None),
            b'(' => (LParen, None, None),
            b')' => (RParen, None, None),
            b'{' => (LBrace, None, None),
            b'}' => (RBrace, None, None),
            b'[' => (LBracket, None, None),
            b']' => (RBracket, None, None),
            _ => return None,
        };
        if let Some(doubled) = doubled.filter(|_| self.eat(c)) {
            return Some(match doubled {
                Shl if self.eat(b'=') => ShlAssign,
                Shr if self.eat(b'=') => ShrAssign,
                other => other,
            });
        }
        Some(with_eq.filter(|_| self.eat(b'=')).unwrap_or(single))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
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
                TokenKind::Ident("foo"),
                TokenKind::Ident("bar_1"),
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
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
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
