//! A concrete textual syntax for patterns, with a lexer and a
//! recursive-descent parser.
//!
//! Grammar (whitespace insensitive):
//!
//! ```text
//! pattern  := alt
//! alt      := seq ('|' seq)*
//! seq      := postfix (';' postfix)*
//! postfix  := primary '*'*
//! primary  := 'Any' | 'eps' | event | '(' pattern ')'
//! event    := group ('!' | '?') postfix
//! group    := gterm (('+' | '-') gterm)*
//! gterm    := '~' | identifier | '(' group ')'
//! ```
//!
//! Examples: `c!Any; Any`, `Any; d!Any`, `(c1 + c3)!Any; Any`,
//! `(~ - mallory)!eps`, `(a!Any | a?Any)*`.
//!
//! Nesting is capped at 256 levels, counting both parentheses and the
//! height of the tree the operators build (`a; b; c` is two `;` levels
//! deep).  Deeper input is a positioned [`ParsePatternError`], so a
//! hostile pattern can overflow neither the parser's stack nor that of
//! any recursive walk over the tree it returns: NFA compilation,
//! `Display`, matching, `Clone` and `Drop`.

use crate::ast::{GroupExpr, Pattern};
use piprov_core::name::Principal;
use piprov_core::provenance::Direction;
use std::error::Error;
use std::fmt;

/// Error produced when a pattern fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Character offset in the input where the problem was detected.
    pub position: usize,
    /// 1-based line of the offending character (0 until located).
    pub line: usize,
    /// 1-based column (in characters) of the offending character
    /// (0 until located).
    pub column: usize,
    /// The source line containing the error, for caret context.
    pub snippet: String,
}

impl ParsePatternError {
    /// Resolves `position` against `input` into a 1-based line/column
    /// pair and captures the offending source line as a snippet.
    ///
    /// Positions are character offsets (the lexer indexes characters,
    /// not bytes), so multi-byte input is located correctly.
    pub fn locate(mut self, input: &str) -> ParsePatternError {
        let mut line = 1usize;
        let mut column = 1usize;
        let mut line_start = 0usize;
        for (offset, c) in input.chars().enumerate() {
            if offset == self.position {
                break;
            }
            if c == '\n' {
                line += 1;
                column = 1;
                line_start = offset + 1;
            } else {
                column += 1;
            }
        }
        self.line = line;
        self.column = column;
        self.snippet = input
            .chars()
            .skip(line_start)
            .take_while(|&c| c != '\n')
            .collect::<String>()
            .trim_end_matches('\r')
            .to_string();
        self
    }

    /// Renders the offending line with a caret under the error column.
    /// Empty when the error has not been located against its input.
    fn caret_context(&self) -> Option<String> {
        if self.line == 0 {
            return None;
        }
        let caret_pad = self.column.saturating_sub(1);
        Some(format!(
            "  | {}\n  | {}^",
            self.snippet,
            " ".repeat(caret_pad)
        ))
    }
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            return write!(
                f,
                "pattern parse error at {}: {}",
                self.position, self.message
            );
        }
        write!(
            f,
            "pattern parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )?;
        if let Some(context) = self.caret_context() {
            write!(f, "\n{}", context)?;
        }
        Ok(())
    }
}

impl Error for ParsePatternError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Any,
    Eps,
    Bang,
    Question,
    Semi,
    Pipe,
    Star,
    Plus,
    Minus,
    Tilde,
    LParen,
    RParen,
}

#[derive(Debug, Clone)]
struct Spanned {
    token: Token,
    position: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParsePatternError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let position = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '!' => out.push(Spanned {
                token: Token::Bang,
                position,
            }),
            '?' => out.push(Spanned {
                token: Token::Question,
                position,
            }),
            ';' => out.push(Spanned {
                token: Token::Semi,
                position,
            }),
            '|' => out.push(Spanned {
                token: Token::Pipe,
                position,
            }),
            '*' => out.push(Spanned {
                token: Token::Star,
                position,
            }),
            '+' => out.push(Spanned {
                token: Token::Plus,
                position,
            }),
            '-' => out.push(Spanned {
                token: Token::Minus,
                position,
            }),
            '~' => out.push(Spanned {
                token: Token::Tilde,
                position,
            }),
            '(' => out.push(Spanned {
                token: Token::LParen,
                position,
            }),
            ')' => out.push(Spanned {
                token: Token::RParen,
                position,
            }),
            c if c.is_alphanumeric() || c == '_' => {
                let mut word = String::new();
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    word.push(bytes[i]);
                    i += 1;
                }
                let token = match word.as_str() {
                    "Any" | "any" => Token::Any,
                    "eps" | "epsilon" | "empty" => Token::Eps,
                    _ => Token::Ident(word),
                };
                out.push(Spanned { token, position });
                continue;
            }
            other => {
                return Err(ParsePatternError {
                    message: format!("unexpected character '{}'", other),
                    position,
                    line: 0,
                    column: 0,
                    snippet: String::new(),
                })
            }
        }
        i += 1;
    }
    Ok(out)
}

/// The deepest a pattern may nest; see the module documentation.
const MAX_NESTING: usize = 256;

/// A parsed subtree and its height.
type Node<T> = (T, usize);

struct Parser {
    tokens: Vec<Spanned>,
    /// Per token, [`group_parens`]: whether a `(` opens a group.
    group_parens: Vec<bool>,
    cursor: usize,
    /// Open `primary`/`gterm` calls: the parser's own recursion depth.
    depth: usize,
}

/// For each token, whether it is a `(` whose parenthesised span holds
/// only group-expression tokens (names, `~`, `+`, `-` and parentheses),
/// so that it opens an event's group rather than a parenthesised pattern.
/// No pattern is made of group tokens alone, so this settles the
/// grammar's one ambiguity in a single pass, without backtracking.  The
/// span of an unclosed `(` runs to the end of the input.
fn group_parens(tokens: &[Spanned]) -> Vec<bool> {
    let mut group = vec![false; tokens.len()];
    // Open parentheses, each with whether its span so far is all group
    // tokens.
    let mut open: Vec<(usize, bool)> = Vec::new();
    for (index, spanned) in tokens.iter().enumerate() {
        match spanned.token {
            Token::LParen => open.push((index, true)),
            Token::RParen => {
                if let Some((at, only_group)) = open.pop() {
                    group[at] = only_group;
                    if let Some(parent) = open.last_mut() {
                        parent.1 &= only_group;
                    }
                }
            }
            Token::Ident(_) | Token::Tilde | Token::Plus | Token::Minus => {}
            _ => {
                if let Some(innermost) = open.last_mut() {
                    innermost.1 = false;
                }
            }
        }
    }
    let mut only_group = true;
    while let Some((at, innermost)) = open.pop() {
        only_group &= innermost;
        group[at] = only_group;
    }
    group
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|s| &s.token)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map(|s| s.position)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.position + 1).unwrap_or(0))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|s| s.token.clone());
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), ParsePatternError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.advance();
                Ok(())
            }
            _ => Err(self.error(format!("expected {}", what))),
        }
    }

    fn error(&self, message: String) -> ParsePatternError {
        ParsePatternError {
            message,
            position: self.position(),
            line: 0,
            column: 0,
            snippet: String::new(),
        }
    }

    /// The error for input nesting past [`MAX_NESTING`], at the current
    /// token.
    fn too_deep(&self) -> ParsePatternError {
        self.error(format!(
            "pattern nests more than {} levels deep",
            MAX_NESTING
        ))
    }

    /// The height of a node over children of height `below`, checked
    /// against the cap.
    fn over(&self, below: usize) -> Result<usize, ParsePatternError> {
        if below >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(below + 1)
    }

    /// Runs one recursive step of the parser, one level deeper.
    fn nested<T>(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<T, ParsePatternError>,
    ) -> Result<T, ParsePatternError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = step(self);
        self.depth -= 1;
        result
    }

    fn pattern(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        self.alt()
    }

    fn alt(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        let (mut left, mut height) = self.seq()?;
        while self.peek() == Some(&Token::Pipe) {
            self.advance();
            let (right, right_height) = self.seq()?;
            height = self.over(height.max(right_height))?;
            left = left.or(right);
        }
        Ok((left, height))
    }

    fn seq(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        let (mut left, mut height) = self.postfix()?;
        while self.peek() == Some(&Token::Semi) {
            self.advance();
            let (right, right_height) = self.postfix()?;
            height = self.over(height.max(right_height))?;
            left = left.then(right);
        }
        Ok((left, height))
    }

    fn postfix(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        let (mut inner, mut height) = self.nested(Self::primary)?;
        while self.peek() == Some(&Token::Star) {
            height = self.over(height)?;
            self.advance();
            inner = inner.star();
        }
        Ok((inner, height))
    }

    fn primary(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        match self.peek() {
            Some(Token::Any) => {
                self.advance();
                Ok((Pattern::Any, 1))
            }
            Some(Token::Eps) => {
                self.advance();
                Ok((Pattern::Empty, 1))
            }
            Some(Token::Ident(_)) | Some(Token::Tilde) => self.event(),
            // A parenthesised group starting an event.
            Some(Token::LParen) if self.group_parens[self.cursor] => self.event(),
            Some(Token::LParen) => {
                self.advance();
                let inner = self.pattern()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(inner)
            }
            _ => Err(self.error("expected a pattern".to_string())),
        }
    }

    fn event(&mut self) -> Result<Node<Pattern>, ParsePatternError> {
        let (group, group_height) = self.group()?;
        let direction = match self.peek() {
            Some(Token::Bang) => Direction::Output,
            Some(Token::Question) => Direction::Input,
            _ => return Err(self.error("expected '!' or '?' after group".to_string())),
        };
        self.advance();
        let (channel_pattern, channel_height) = self.postfix()?;
        let height = self.over(group_height.max(channel_height))?;
        let event = match direction {
            Direction::Output => Pattern::send(group, channel_pattern),
            Direction::Input => Pattern::receive(group, channel_pattern),
        };
        Ok((event, height))
    }

    fn group(&mut self) -> Result<Node<GroupExpr>, ParsePatternError> {
        let (mut left, mut height) = self.nested(Self::gterm)?;
        loop {
            let union = match self.peek() {
                Some(Token::Plus) => true,
                Some(Token::Minus) => false,
                _ => break,
            };
            self.advance();
            let (right, right_height) = self.nested(Self::gterm)?;
            height = self.over(height.max(right_height))?;
            left = if union {
                left.union(right)
            } else {
                left.difference(right)
            };
        }
        Ok((left, height))
    }

    fn gterm(&mut self) -> Result<Node<GroupExpr>, ParsePatternError> {
        match self.advance() {
            Some(Token::Tilde) => Ok((GroupExpr::All, 1)),
            Some(Token::Ident(name)) => Ok((GroupExpr::Single(Principal::new(name)), 1)),
            Some(Token::LParen) => {
                let inner = self.group()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(inner)
            }
            _ => Err(self.error("expected a group expression".to_string())),
        }
    }
}

/// Parses a pattern from its textual form.
///
/// # Errors
///
/// Returns a [`ParsePatternError`] describing the first syntax error.
///
/// ```
/// use piprov_patterns::parse::parse_pattern;
/// let p = parse_pattern("(c1 + c3)!Any; Any")?;
/// assert_eq!(p.to_string(), "(c1 + c3)!Any; Any");
/// # Ok::<(), piprov_patterns::parse::ParsePatternError>(())
/// ```
pub fn parse_pattern(input: &str) -> Result<Pattern, ParsePatternError> {
    parse_pattern_inner(input).map_err(|err| err.locate(input))
}

fn parse_pattern_inner(input: &str) -> Result<Pattern, ParsePatternError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        group_parens: group_parens(&tokens),
        tokens,
        cursor: 0,
        depth: 0,
    };
    let (pattern, _) = parser.pattern()?;
    if parser.cursor != parser.tokens.len() {
        return Err(parser.error("unexpected trailing input".to_string()));
    }
    Ok(pattern)
}

impl std::str::FromStr for Pattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_pattern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GroupExpr;

    #[test]
    fn parses_paper_examples() {
        assert_eq!(
            parse_pattern("c!Any; Any").unwrap(),
            Pattern::immediately_sent_by(GroupExpr::single("c"))
        );
        assert_eq!(
            parse_pattern("Any; d!Any").unwrap(),
            Pattern::originated_at(GroupExpr::single("d"))
        );
        assert_eq!(
            parse_pattern("(c1 + c3)!Any; Any").unwrap(),
            Pattern::immediately_sent_by(GroupExpr::any_of(["c1", "c3"]))
        );
    }

    #[test]
    fn parses_epsilon_and_any() {
        assert_eq!(parse_pattern("eps").unwrap(), Pattern::Empty);
        assert_eq!(parse_pattern("empty").unwrap(), Pattern::Empty);
        assert_eq!(parse_pattern("Any").unwrap(), Pattern::Any);
    }

    #[test]
    fn parses_groups() {
        let p = parse_pattern("(~ - mallory)!Any").unwrap();
        assert_eq!(
            p,
            Pattern::send(GroupExpr::everyone_but("mallory"), Pattern::Any)
        );
        let q = parse_pattern("~?eps").unwrap();
        assert_eq!(q, Pattern::receive(GroupExpr::All, Pattern::Empty));
    }

    #[test]
    fn parses_alternation_and_star() {
        let p = parse_pattern("(a!Any | a?Any)*").unwrap();
        assert_eq!(p, Pattern::only_touched_by(GroupExpr::single("a")));
        let q = parse_pattern("a!Any*").unwrap();
        // The star binds to the nested channel pattern: a!(Any*).
        assert_eq!(
            q,
            Pattern::send(GroupExpr::single("a"), Pattern::Any.star())
        );
    }

    #[test]
    fn sequencing_is_right_nested_but_flat_semantically() {
        let p = parse_pattern("Any; Any; Any").unwrap();
        assert_eq!(p, Pattern::Any.then(Pattern::Any).then(Pattern::Any));
    }

    #[test]
    fn parenthesised_pattern_vs_group() {
        // '(' here opens a pattern, not a group.
        let p = parse_pattern("(Any; a!Any) | eps").unwrap();
        assert_eq!(
            p,
            Pattern::Any
                .then(Pattern::send(GroupExpr::single("a"), Pattern::Any))
                .or(Pattern::Empty)
        );
    }

    #[test]
    fn display_round_trip() {
        let sources = [
            "c!Any; Any",
            "Any; d!Any",
            "(c1 + c3)!Any; Any",
            "(a!Any | a?Any)*",
            "(~ - mallory)!eps",
            "a!(b!Any; Any)",
            "eps",
        ];
        for src in sources {
            let parsed = parse_pattern(src).unwrap();
            let reparsed = parse_pattern(&parsed.to_string()).unwrap();
            assert_eq!(parsed, reparsed, "round trip failed for {}", src);
        }
    }

    #[test]
    fn errors_are_reported_with_position() {
        let err = parse_pattern("c!Any;; Any").unwrap_err();
        assert!(err.position > 0);
        assert!(err.to_string().contains("parse error"));
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("a!").is_err());
        assert!(parse_pattern("a Any").is_err());
        assert!(parse_pattern("€").is_err());
        assert!(parse_pattern("(a!Any").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_pattern("c!Any;; Any").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 7);
        assert_eq!(err.snippet, "c!Any;; Any");

        // The same error on a later line reports that line, with a
        // column relative to the line start rather than the input start.
        let err = parse_pattern("c!Any;\nAny |\nd!Any;; Any").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.column, 7);
        assert_eq!(err.snippet, "d!Any;; Any");
        let rendered = err.to_string();
        assert!(rendered.contains("line 3, column 7"), "{rendered}");
    }

    #[test]
    fn display_includes_caret_context() {
        let err = parse_pattern("a!Any |\n  ; Any").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 3);
        let rendered = err.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3, "{rendered}");
        assert_eq!(lines[1], "  |   ; Any");
        assert_eq!(lines[2], "  |   ^");
    }

    #[test]
    fn multibyte_input_locates_by_characters_not_bytes() {
        // 'é' is two bytes but one character; the column must count it
        // as a single step.
        let err = parse_pattern("ééé €").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 5);

        let err = parse_pattern("Any;\nrésumé €").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 8);
        assert_eq!(err.snippet, "résumé €");
    }

    #[test]
    fn error_at_end_of_input_points_past_the_last_line() {
        let err = parse_pattern("a!Any;\nb!").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 3);
        assert_eq!(err.snippet, "b!");
    }

    /// One input per way of nesting, each exactly `levels` deep: as
    /// parser recursion, as tree height, or both.
    fn nested_inputs(levels: usize) -> Vec<(&'static str, String)> {
        let nest = |open: &str, core: &str, close: &str, n: usize| {
            format!("{}{}{}", open.repeat(n), core, close.repeat(n))
        };
        vec![
            ("parentheses", nest("(", "Any", ")", levels - 1)),
            ("sequence", vec!["Any"; levels].join("; ")),
            ("alternation", vec!["Any"; levels].join(" | ")),
            (
                "two sequences in sequence",
                format!("({0}); ({0})", vec!["Any"; levels - 1].join("; ")),
            ),
            (
                "two alternations in alternation",
                format!("({0}) | ({0})", vec!["Any"; levels - 1].join(" | ")),
            ),
            ("stars", format!("Any{}", "*".repeat(levels - 1))),
            ("starred parentheses", nest("(", "Any", ")*", levels - 1)),
            ("events", format!("{}Any", "a!".repeat(levels - 1))),
            (
                "group union",
                format!("({})!Any", vec!["a"; levels - 1].join(" + ")),
            ),
            (
                "group parentheses",
                format!("{}!Any", nest("(", "a", ")", levels - 2)),
            ),
        ]
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        for (shape, input) in nested_inputs(MAX_NESTING + 1) {
            let err = parse_pattern(&input).unwrap_err();
            assert!(
                err.message.contains("nests more than 256 levels deep"),
                "{shape}: {err}"
            );
            assert_eq!(err.line, 1, "{shape}");
            assert!(err.column > 1, "{shape}: {err}");
        }
    }

    #[test]
    fn every_walk_over_a_pattern_at_the_cap_fits_a_worker_stack() {
        // The server's dispatch workers and event loop run on threads with
        // the default 2 MiB stack; unoptimised frames are larger than the
        // release build's, so this is the tighter setting.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (shape, input) in nested_inputs(MAX_NESTING) {
                    let pattern =
                        parse_pattern(&input).unwrap_or_else(|e| panic!("{shape} at the cap: {e}"));
                    let compiled = crate::nfa::CompiledPattern::compile(&pattern);
                    let _ = compiled.matches(&piprov_core::provenance::Provenance::empty());
                    let _ = crate::matching::satisfies(
                        &piprov_core::provenance::Provenance::empty(),
                        &pattern,
                    );
                    let rendered = pattern.to_string();
                    let reparsed = parse_pattern(&rendered)
                        .unwrap_or_else(|e| panic!("{shape} rendered at the cap: {e}"));
                    assert_eq!(reparsed, pattern.clone(), "{shape}");
                    drop((pattern, compiled, reparsed));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn a_depth_bomb_is_rejected_without_recursing_into_it() {
        // 100,000 levels would overflow any thread's stack if the parser
        // followed them; it stops at the cap instead.
        for (shape, input) in nested_inputs(100_000) {
            let err = parse_pattern(&input).unwrap_err();
            assert!(err.message.contains("nests more than"), "{shape}: {err}");
        }
    }

    #[test]
    fn from_str_impl() {
        let p: Pattern = "c!Any; Any".parse().unwrap();
        assert_eq!(p, Pattern::immediately_sent_by(GroupExpr::single("c")));
    }
}
