//! Abstract syntax of the sample pattern matching language (Table 3).
//!
//! ```text
//! π ::= ε | α | π;π | π∨π | π* | Any
//! α ::= G!π | G?π
//! G ::= a | ~ | G+G | G−G
//! ```
//!
//! A pattern is matched against a provenance sequence; an event pattern `α`
//! is matched against a single event, testing the acting principal against
//! the group expression `G` and the channel provenance against the nested
//! pattern.

use piprov_core::name::Principal;
use piprov_core::provenance::Direction;
use std::fmt;

/// A group expression `G`, denoting a set of principals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupExpr {
    /// The singleton group `{a}`.
    Single(Principal),
    /// The group of all principals, written `~`.
    All,
    /// Union `G + G'`.
    Union(Box<GroupExpr>, Box<GroupExpr>),
    /// Difference `G − G'`.
    Difference(Box<GroupExpr>, Box<GroupExpr>),
}

impl GroupExpr {
    /// The singleton group containing `principal`.
    pub fn single(principal: impl Into<Principal>) -> Self {
        GroupExpr::Single(principal.into())
    }

    /// The group of all principals.
    pub fn all() -> Self {
        GroupExpr::All
    }

    /// Union of two groups.
    pub fn union(self, other: GroupExpr) -> Self {
        GroupExpr::Union(Box::new(self), Box::new(other))
    }

    /// Difference of two groups.
    pub fn difference(self, other: GroupExpr) -> Self {
        GroupExpr::Difference(Box::new(self), Box::new(other))
    }

    /// The union of a list of singletons, e.g. `(c1 + c3)`.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty; an empty group is not expressible in the
    /// paper's grammar.
    pub fn any_of<I, T>(principals: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Principal>,
    {
        let mut iter = principals.into_iter();
        let first = iter
            .next()
            .expect("GroupExpr::any_of requires at least one principal");
        let mut acc = GroupExpr::single(first);
        for p in iter {
            acc = acc.union(GroupExpr::single(p));
        }
        acc
    }

    /// Everyone except the given principal: `~ − a`.
    pub fn everyone_but(principal: impl Into<Principal>) -> Self {
        GroupExpr::All.difference(GroupExpr::single(principal))
    }

    /// The denotation `⟦G⟧` as a membership test.
    pub fn contains(&self, principal: &Principal) -> bool {
        match self {
            GroupExpr::Single(p) => p == principal,
            GroupExpr::All => true,
            GroupExpr::Union(g, h) => g.contains(principal) || h.contains(principal),
            GroupExpr::Difference(g, h) => g.contains(principal) && !h.contains(principal),
        }
    }

    /// Number of nodes in the expression.
    pub fn size(&self) -> usize {
        match self {
            GroupExpr::Single(_) | GroupExpr::All => 1,
            GroupExpr::Union(g, h) | GroupExpr::Difference(g, h) => 1 + g.size() + h.size(),
        }
    }
}

impl fmt::Display for GroupExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupExpr::Single(p) => write!(f, "{}", p),
            GroupExpr::All => write!(f, "~"),
            GroupExpr::Union(g, h) => write!(f, "({} + {})", g, h),
            GroupExpr::Difference(g, h) => write!(f, "({} - {})", g, h),
        }
    }
}

/// An event pattern `α ::= G!π | G?π`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventPattern {
    /// The set of principals allowed to have performed the event.
    pub group: GroupExpr,
    /// Whether the event must be a send (`!`) or a receive (`?`).
    pub direction: Direction,
    /// Pattern the channel provenance of the event must satisfy.
    pub channel_pattern: Box<Pattern>,
}

impl EventPattern {
    /// A send-event pattern `G!π`.
    pub fn send(group: GroupExpr, channel_pattern: Pattern) -> Self {
        EventPattern {
            group,
            direction: Direction::Output,
            channel_pattern: Box::new(channel_pattern),
        }
    }

    /// A receive-event pattern `G?π`.
    pub fn receive(group: GroupExpr, channel_pattern: Pattern) -> Self {
        EventPattern {
            group,
            direction: Direction::Input,
            channel_pattern: Box::new(channel_pattern),
        }
    }
}

impl fmt::Display for EventPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.group,
            self.direction.symbol(),
            DisplayNested(&self.channel_pattern)
        )
    }
}

/// A pattern of the sample language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Matches only the empty provenance sequence `ε`.
    Empty,
    /// Matches a single event.
    Event(EventPattern),
    /// Sequencing `π;π'`: the sequence splits into a prefix matching `π`
    /// and a suffix matching `π'`.
    Seq(Box<Pattern>, Box<Pattern>),
    /// Alternation `π ∨ π'`.
    Alt(Box<Pattern>, Box<Pattern>),
    /// Repetition `π*`: zero or more consecutive chunks each matching `π`.
    Star(Box<Pattern>),
    /// Matches any provenance sequence.
    Any,
}

impl Pattern {
    /// The pattern matching only `ε`.
    pub fn empty() -> Self {
        Pattern::Empty
    }

    /// The pattern matching everything.
    pub fn any() -> Self {
        Pattern::Any
    }

    /// A single-event send pattern `G!π`.
    pub fn send(group: GroupExpr, channel_pattern: Pattern) -> Self {
        Pattern::Event(EventPattern::send(group, channel_pattern))
    }

    /// A single-event receive pattern `G?π`.
    pub fn receive(group: GroupExpr, channel_pattern: Pattern) -> Self {
        Pattern::Event(EventPattern::receive(group, channel_pattern))
    }

    /// Sequencing.
    pub fn then(self, other: Pattern) -> Self {
        Pattern::Seq(Box::new(self), Box::new(other))
    }

    /// Alternation.
    pub fn or(self, other: Pattern) -> Self {
        Pattern::Alt(Box::new(self), Box::new(other))
    }

    /// Repetition.
    pub fn star(self) -> Self {
        Pattern::Star(Box::new(self))
    }

    /// Builds the sequence `π₁; π₂; …; πₙ`, left-associated as the
    /// parser builds it.  The empty list yields [`Pattern::Empty`].
    pub fn sequence(patterns: Vec<Pattern>) -> Self {
        let mut iter = patterns.into_iter();
        match iter.next() {
            None => Pattern::Empty,
            Some(first) => iter.fold(first, Pattern::then),
        }
    }

    /// The authentication pattern used by the paper's first example:
    /// "the most recent event is a send by someone in `group`, anything may
    /// have happened before" — `G!Any; Any`.
    pub fn immediately_sent_by(group: GroupExpr) -> Self {
        Pattern::send(group, Pattern::Any).then(Pattern::Any)
    }

    /// The dual authentication pattern: "the value originated at someone in
    /// `group`, whatever happened since" — `Any; G!Any`.
    pub fn originated_at(group: GroupExpr) -> Self {
        Pattern::Any.then(Pattern::send(group, Pattern::Any))
    }

    /// "Every event in the provenance was performed by someone in `group`"
    /// — `(G!Any ∨ G?Any)*`.
    pub fn only_touched_by(group: GroupExpr) -> Self {
        Pattern::send(group.clone(), Pattern::Any)
            .or(Pattern::receive(group, Pattern::Any))
            .star()
    }

    /// Number of nodes in the pattern (including nested channel patterns
    /// and group expressions).
    pub fn size(&self) -> usize {
        match self {
            Pattern::Empty | Pattern::Any => 1,
            Pattern::Event(e) => 1 + e.group.size() + e.channel_pattern.size(),
            Pattern::Seq(a, b) | Pattern::Alt(a, b) => 1 + a.size() + b.size(),
            Pattern::Star(a) => 1 + a.size(),
        }
    }

    /// `true` if the pattern can match the empty sequence (computed
    /// syntactically; used by the static analysis and by the NFA
    /// construction tests).
    pub fn nullable(&self) -> bool {
        match self {
            Pattern::Empty | Pattern::Any | Pattern::Star(_) => true,
            Pattern::Event(_) => false,
            Pattern::Seq(a, b) => a.nullable() && b.nullable(),
            Pattern::Alt(a, b) => a.nullable() || b.nullable(),
        }
    }
}

/// Displays a nested pattern, parenthesising compound forms so that the
/// output re-parses unambiguously.
struct DisplayNested<'a>(&'a Pattern);

impl<'a> fmt::Display for DisplayNested<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Pattern::Empty | Pattern::Any | Pattern::Event(_) | Pattern::Star(_) => {
                write!(f, "{}", self.0)
            }
            _ => write!(f, "({})", self.0),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Empty => write!(f, "eps"),
            Pattern::Any => write!(f, "Any"),
            Pattern::Event(e) => write!(f, "{}", e),
            Pattern::Seq(a, b) => write!(
                f,
                "{}; {}",
                Operand(a, matches!(**a, Pattern::Alt(..))),
                Operand(b, matches!(**b, Pattern::Alt(..) | Pattern::Seq(..)))
            ),
            Pattern::Alt(a, b) => {
                write!(f, "{} | {}", a, Operand(b, matches!(**b, Pattern::Alt(..))))
            }
            // Always parenthesise the repeated body so that the output
            // re-parses unambiguously (`(a!Any)*` vs `a!Any*`, where the
            // latter attaches the star to the nested channel pattern).
            Pattern::Star(a) => write!(f, "({})*", a),
        }
    }
}

/// An operand of `;` or `|`, parenthesised when the flag says so: a `|`
/// under `;`, which binds tighter, and a right-hand operand of the same
/// operator, since the parser chains both to the left.  So the text
/// re-parses to the same tree, and nests exactly as deep as it.
struct Operand<'a>(&'a Pattern, bool);

impl<'a> fmt::Display for Operand<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.1 {
            write!(f, "({})", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_denotations() {
        let a = Principal::new("a");
        let b = Principal::new("b");
        let c = Principal::new("c");
        assert!(GroupExpr::single("a").contains(&a));
        assert!(!GroupExpr::single("a").contains(&b));
        assert!(GroupExpr::all().contains(&a));
        let union = GroupExpr::any_of(["a", "b"]);
        assert!(union.contains(&a));
        assert!(union.contains(&b));
        assert!(!union.contains(&c));
        let diff = GroupExpr::everyone_but("a");
        assert!(!diff.contains(&a));
        assert!(diff.contains(&b));
    }

    #[test]
    #[should_panic(expected = "at least one principal")]
    fn any_of_rejects_empty_list() {
        let _ = GroupExpr::any_of(Vec::<&str>::new());
    }

    #[test]
    fn display_round_trips_visually() {
        let p = Pattern::immediately_sent_by(GroupExpr::single("c"));
        assert_eq!(p.to_string(), "c!Any; Any");
        let q = Pattern::originated_at(GroupExpr::single("d"));
        assert_eq!(q.to_string(), "Any; d!Any");
        let r = Pattern::only_touched_by(GroupExpr::single("a"));
        assert_eq!(r.to_string(), "(a!Any | a?Any)*");
        let g = GroupExpr::any_of(["c1", "c3"]);
        let comp = Pattern::send(g, Pattern::Any).then(Pattern::Any);
        assert_eq!(comp.to_string(), "(c1 + c3)!Any; Any");
    }

    #[test]
    fn sequence_builder() {
        assert_eq!(Pattern::sequence(vec![]), Pattern::Empty);
        let single = Pattern::sequence(vec![Pattern::Any]);
        assert_eq!(single, Pattern::Any);
        let three = Pattern::sequence(vec![Pattern::Any, Pattern::Empty, Pattern::Any]);
        assert_eq!(three.to_string(), "Any; eps; Any");
    }

    #[test]
    fn nullable_is_syntactic() {
        assert!(Pattern::Empty.nullable());
        assert!(Pattern::Any.nullable());
        assert!(Pattern::Any.star().nullable());
        assert!(!Pattern::send(GroupExpr::all(), Pattern::Any).nullable());
        assert!(Pattern::send(GroupExpr::all(), Pattern::Any)
            .star()
            .nullable());
        assert!(!Pattern::send(GroupExpr::all(), Pattern::Any)
            .then(Pattern::Any)
            .nullable());
        assert!(Pattern::Empty
            .or(Pattern::send(GroupExpr::all(), Pattern::Any))
            .nullable());
    }

    #[test]
    fn size_counts_nested_structure() {
        let p = Pattern::send(GroupExpr::any_of(["a", "b"]), Pattern::Any).then(Pattern::Any);
        // Seq(1) + Event(1) + group(3) + nested Any(1) + Any(1)
        assert_eq!(p.size(), 7);
    }
}
