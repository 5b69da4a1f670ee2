//! # piprov-patterns
//!
//! The sample pattern matching language of Table 3 of *"A Formal Model of
//! Provenance in Distributed Systems"*: regular-expression patterns over
//! provenance sequences, with group expressions over principals.
//!
//! The crate provides:
//!
//! * the pattern AST and group expressions ([`ast`]),
//! * the reference satisfaction relation `κ ⊨ π`, a direct transcription of
//!   the paper's inference rules ([`matching`]),
//! * a compiled NFA engine with identical semantics but linear-time
//!   matching ([`nfa`]),
//! * a parser for a concrete pattern syntax ([`parse`]),
//! * [`SamplePatterns`], an implementation of
//!   [`piprov_core::pattern::PatternLanguage`] that plugs the compiled engine
//!   into the reduction semantics.
//!
//! ```
//! use piprov_core::pattern::PatternLanguage;
//! use piprov_core::provenance::{Event, Provenance};
//! use piprov_core::name::Principal;
//! use piprov_patterns::{parse::parse_pattern, SamplePatterns};
//!
//! let matcher = SamplePatterns::new();
//! let pattern = parse_pattern("c!Any; Any")?;
//! let prov = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
//! assert!(matcher.satisfies(&prov, &pattern));
//! # Ok::<(), piprov_patterns::parse::ParsePatternError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod matching;
pub mod nfa;
pub mod parse;

pub use ast::{EventPattern, GroupExpr, Pattern};
pub use nfa::{
    CompiledPattern, MatchStats, MemoStats, WitnessStep, WitnessTrail, DEFAULT_MEMO_BOUND,
};
pub use parse::{parse_pattern, ParsePatternError};

use piprov_core::pattern::PatternLanguage;
use piprov_core::provenance::Provenance;
use std::collections::HashMap;
use std::sync::Mutex;

/// The sample pattern language packaged as a
/// [`PatternLanguage`] instance, so it
/// can drive the reduction semantics of `piprov-core`.
///
/// Patterns are compiled to NFAs ([`CompiledPattern`]) and the automata are
/// cached keyed by the pattern, so repeated vetting of the same input
/// pattern (the common case in long simulation runs) costs one hash lookup
/// plus a memoized NFA simulation.  [`matching::satisfies`] stays the
/// reference the engine is tested against.
#[derive(Debug, Default)]
pub struct SamplePatterns {
    cache: Mutex<HashMap<Pattern, CompiledPattern>>,
}

impl SamplePatterns {
    /// A matcher with an empty compilation cache.
    pub fn new() -> Self {
        SamplePatterns::default()
    }

    /// Number of patterns currently in the compilation cache.
    pub fn cached_patterns(&self) -> usize {
        self.cache.lock().map(|c| c.len()).unwrap_or(0)
    }
}

impl Clone for SamplePatterns {
    /// Clones start with a cold compilation cache.
    fn clone(&self) -> Self {
        SamplePatterns::new()
    }
}

impl PatternLanguage for SamplePatterns {
    type Pattern = Pattern;

    fn satisfies(&self, provenance: &Provenance, pattern: &Pattern) -> bool {
        let mut cache = match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        cache
            .entry(pattern.clone())
            .or_insert_with(|| CompiledPattern::compile(pattern))
            .matches(provenance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Principal;
    use piprov_core::provenance::Event;

    fn sent_by(p: &str) -> Provenance {
        Provenance::single(Event::output(Principal::new(p), Provenance::empty()))
    }

    #[test]
    fn both_engines_agree_through_the_trait() {
        let pattern = parse_pattern("c!Any; Any").unwrap();
        let compiled = SamplePatterns::new();
        for prov in [sent_by("c"), sent_by("d"), Provenance::empty()] {
            assert_eq!(
                matching::satisfies(&prov, &pattern),
                compiled.satisfies(&prov, &pattern)
            );
        }
    }

    #[test]
    fn compiled_engine_caches_compilations() {
        let matcher = SamplePatterns::new();
        let pattern = parse_pattern("Any; d!Any").unwrap();
        assert_eq!(matcher.cached_patterns(), 0);
        let _ = matcher.satisfies(&sent_by("d"), &pattern);
        let _ = matcher.satisfies(&sent_by("e"), &pattern);
        assert_eq!(matcher.cached_patterns(), 1);
    }
}

#[cfg(test)]
mod proptests {
    //! Property-based tests: the NFA engine agrees with the reference
    //! matcher on random patterns and random provenance sequences, also
    //! across memo rollovers, and parsing round-trips through display.

    use super::*;
    use piprov_core::name::Principal;
    use piprov_core::provenance::{Event, Provenance};
    use proptest::prelude::*;

    fn arb_principal() -> impl Strategy<Value = Principal> {
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(Principal::new)
    }

    fn arb_group(depth: u32) -> BoxedStrategy<GroupExpr> {
        let leaf = prop_oneof![
            arb_principal().prop_map(GroupExpr::Single),
            Just(GroupExpr::All),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![
                4 => leaf,
                1 => (arb_group(depth - 1), arb_group(depth - 1))
                    .prop_map(|(g, h)| g.union(h)),
                1 => (arb_group(depth - 1), arb_group(depth - 1))
                    .prop_map(|(g, h)| g.difference(h)),
            ]
            .boxed()
        }
    }

    fn arb_pattern(depth: u32) -> BoxedStrategy<Pattern> {
        let leaf = prop_oneof![
            Just(Pattern::Empty),
            Just(Pattern::Any),
            arb_group(1).prop_map(|g| Pattern::send(g, Pattern::Any)),
            arb_group(1).prop_map(|g| Pattern::receive(g, Pattern::Any)),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            let rec = arb_pattern(depth - 1);
            prop_oneof![
                3 => leaf,
                2 => (arb_pattern(depth - 1), arb_pattern(depth - 1))
                    .prop_map(|(a, b)| a.then(b)),
                2 => (arb_pattern(depth - 1), arb_pattern(depth - 1))
                    .prop_map(|(a, b)| a.or(b)),
                1 => rec.prop_map(|a| a.star()),
                1 => (arb_group(1), arb_pattern(depth - 1))
                    .prop_map(|(g, p)| Pattern::send(g, p)),
            ]
            .boxed()
        }
    }

    fn arb_event(depth: u32) -> BoxedStrategy<Event> {
        if depth == 0 {
            (arb_principal(), any::<bool>())
                .prop_map(|(p, send)| {
                    if send {
                        Event::output(p, Provenance::empty())
                    } else {
                        Event::input(p, Provenance::empty())
                    }
                })
                .boxed()
        } else {
            (arb_principal(), any::<bool>(), arb_provenance(depth - 1))
                .prop_map(|(p, send, chan)| {
                    if send {
                        Event::output(p, chan)
                    } else {
                        Event::input(p, chan)
                    }
                })
                .boxed()
        }
    }

    fn arb_provenance(depth: u32) -> BoxedStrategy<Provenance> {
        proptest::collection::vec(arb_event(depth), 0..5)
            .prop_map(Provenance::from_events)
            .boxed()
    }

    proptest! {
        // 128 cases by default; the PIPROV_PROPTEST_CASES environment
        // variable overrides it (handled inside with_cases) for deeper CI
        // runs.
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn nfa_matches_the_reference_matcher(pattern in arb_pattern(2), prov in arb_provenance(1)) {
            let compiled = CompiledPattern::compile(&pattern);
            prop_assert_eq!(compiled.matches(&prov), matching::satisfies(&prov, &pattern));
        }

        #[test]
        fn bounded_memo_matches_the_reference_across_rollovers(
            pattern in arb_pattern(2),
            bound in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
            pool in proptest::collection::vec(arb_provenance(1), 1..8),
            order in proptest::collection::vec(0usize..64, 1..48),
        ) {
            // Tiny bounds force a rollover every few queries; drawing the
            // queries from a small pool makes some entries hot, so both the
            // survivors and the evicted tail are exercised.
            let compiled = CompiledPattern::compile(&pattern);
            compiled.set_memo_bound(bound);
            for i in order {
                let prov = &pool[i % pool.len()];
                let expected = matching::satisfies(prov, &pattern);
                prop_assert_eq!(compiled.matches(prov), expected);
                prop_assert!(compiled.memo_stats().entries <= bound);
                prop_assert_eq!(compiled.matches(prov), expected, "asked again");
            }
        }

        #[test]
        fn display_parse_round_trip(pattern in arb_pattern(2)) {
            // Display parenthesises exactly where the parser's
            // associativity needs it, so the text re-parses to the tree.
            let reparsed = parse::parse_pattern(&pattern.to_string()).unwrap();
            prop_assert_eq!(reparsed, pattern);
        }

        #[test]
        fn any_pattern_always_matches(prov in arb_provenance(1)) {
            prop_assert!(matching::satisfies(&prov, &Pattern::Any));
        }

        #[test]
        fn empty_pattern_matches_only_empty(prov in arb_provenance(1)) {
            prop_assert_eq!(matching::satisfies(&prov, &Pattern::Empty), prov.is_empty());
        }

        #[test]
        fn star_is_idempotent_on_match(pattern in arb_pattern(1), prov in arb_provenance(1)) {
            // If κ ⊨ π* then κ ⊨ (π*)* as well.
            let starred = pattern.clone().star();
            let double = starred.clone().star();
            if matching::satisfies(&prov, &starred) {
                prop_assert!(matching::satisfies(&prov, &double));
            }
        }
    }
}
