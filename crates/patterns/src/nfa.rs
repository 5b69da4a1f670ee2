//! A compiled matching engine for the sample pattern language.
//!
//! The reference matcher in [`crate::matching`] follows the paper's
//! inference rules directly, which makes sequencing and repetition try every
//! split point — exponential in the worst case.  Patterns are, however,
//! ordinary regular expressions over an alphabet of *event predicates*, so
//! we compile them once (Thompson construction) and then simulate the NFA
//! over the provenance sequence in `O(|κ| · |states|)` transitions; nested
//! channel patterns are compiled recursively and evaluated when their atom
//! is crossed.
//!
//! On top of the simulation sits a **match memo** keyed by
//! `(ProvId, state set)`: provenance sequences are interned DAG nodes
//! (see [`piprov_core::provenance::interner`]), and NFA simulation from a
//! given state set over a given suffix is deterministic, so its verdict
//! can be cached per interned node.  Long runs vet the same channel
//! provenance thousands of times (every value exchanged on a channel
//! carries that channel's history in its events); with the memo each
//! distinct `(suffix, state set)` pair is simulated once per automaton and
//! every later query is a hash lookup.  Nested channel automata carry
//! their own memos, so the sharing compounds through nesting levels.
//!
//! The memo is **bounded**: a long-lived automaton (an audit service vets
//! requests for the lifetime of the process) caps the number of cached
//! verdicts at a configurable bound ([`CompiledPattern::set_memo_bound`],
//! default [`DEFAULT_MEMO_BOUND`]).  When an insert would exceed it, the
//! memo starts a fresh **epoch** and keeps only the entries that answered
//! lookups during the ending one, up to half the bound.  A stable working
//! set therefore survives the rollover and only the one-shot tail pays the
//! cold-start cost again.  [`CompiledPattern::memo_stats`] reports entries,
//! hits, misses, the epoch counter and the cumulative survivors.
//!
//! The engine is checked against the reference matcher by unit tests here
//! and by property-based tests over random patterns and provenances.

use crate::ast::{EventPattern, Pattern};
use piprov_core::provenance::{Event, ProvId, Provenance};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A transition label: either free (`ε`) or guarded by an atom predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Move without consuming an event.
    Epsilon,
    /// Consume one event that satisfies the indexed atom.
    Atom(usize),
    /// Consume any one event.
    AnyEvent,
}

/// A single transition of the NFA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transition {
    to: usize,
    label: Label,
}

/// A set of NFA states as a fixed-width bitmask (one bit per state).
type StateSet = Box<[u64]>;

/// Default bound on the number of `(suffix, state set)` verdicts one
/// automaton level memoizes before starting a fresh epoch.
pub const DEFAULT_MEMO_BOUND: usize = 65_536;

/// One cached verdict plus its generation bit: `hot` is set when the entry
/// answers a lookup and cleared when it survives a rollover, so "hot" means
/// *used during the current epoch*.
#[derive(Debug, Clone, Copy)]
struct Cached {
    verdict: bool,
    hot: bool,
}

/// The bounded match memo of one automaton level.
struct Memo {
    /// Verdicts per `(suffix id, state set at that suffix)`.
    verdicts: HashMap<(ProvId, StateSet), Cached>,
    /// Maximum entries before the next insert starts a new epoch.
    bound: usize,
    /// Number of epoch rollovers performed so far.
    epochs: u64,
    /// Lookups answered from the memo.
    hits: u64,
    /// Lookups that had to fall through to simulation.
    misses: u64,
    /// Entries that survived a rollover, summed over all rollovers.
    retained: u64,
}

impl Memo {
    fn new(bound: usize) -> Self {
        Memo {
            verdicts: HashMap::new(),
            bound: bound.max(1),
            epochs: 0,
            hits: 0,
            misses: 0,
            retained: 0,
        }
    }

    fn lookup(&mut self, key: &(ProvId, StateSet)) -> Option<bool> {
        let found = self.verdicts.get_mut(key).map(|cached| {
            cached.hot = true;
            cached.verdict
        });
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Starts a new epoch, keeping up to `bound / 2` hot entries with their
    /// hotness reset (they must earn their place in the new epoch too).
    /// Capping the survivors at half the bound guarantees every rollover
    /// frees at least half the memo, so a fully hot working set cannot
    /// wedge the memo into rolling over on every insert.
    fn rollover(&mut self) {
        let mut budget = self.bound / 2;
        self.verdicts.retain(|_, cached| {
            let keep = cached.hot && budget > 0;
            if keep {
                cached.hot = false;
                budget -= 1;
            }
            keep
        });
        self.retained += self.verdicts.len() as u64;
        self.epochs += 1;
    }

    /// Inserts one verdict, rolling the epoch over first if the memo is
    /// full.  The invariant `len <= bound` holds after every insert,
    /// whatever order verdicts arrive in (the rollover keeps at most
    /// `bound / 2 < bound` entries).
    fn insert(&mut self, key: (ProvId, StateSet), verdict: bool) {
        if self.verdicts.len() >= self.bound {
            self.rollover();
        }
        let cached = Cached {
            verdict,
            hot: false,
        };
        self.verdicts.insert(key, cached);
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.verdicts.len(),
            bound: self.bound,
            epochs: self.epochs,
            hits: self.hits,
            misses: self.misses,
            retained: self.retained,
        }
    }
}

/// A snapshot of one automaton level's memo occupancy and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// `(suffix, state set)` verdicts currently held.
    pub entries: usize,
    /// Configured bound; `entries` never exceeds it.
    pub bound: usize,
    /// Epoch rollovers performed so far (0 until the bound is first hit).
    pub epochs: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to NFA simulation.
    pub misses: u64,
    /// Entries that survived a rollover because they were hot, summed over
    /// all rollovers.
    pub retained: u64,
}

/// Work accounting for one [`CompiledPattern::matches_with_stats`] call,
/// accumulated across this automaton and every nested channel automaton it
/// consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Memo lookups answered from a cache (this level and nested levels).
    pub memo_hits: usize,
    /// Spine nodes actually simulated (events consumed by some automaton).
    pub nodes_visited: usize,
}

/// One consumed spine event of a [`CompiledPattern::witness`] walk: the
/// event together with the interned id of the suffix that starts at it, so
/// callers can point back into the hash-consed DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Interned id of the spine suffix whose head is `event`.
    pub node: ProvId,
    /// The consumed event.
    pub event: Event,
}

/// The explained outcome of simulating a provenance against a pattern.
///
/// The subset simulation tracks *every* candidate trail of the NFA at
/// once, so one walk explains the verdict exactly: on acceptance the
/// consumed spine is an accepting trail's event set, and on rejection
/// there is a unique earliest point where all surviving candidates die —
/// either a concrete blocking event or the end of the history with no
/// accept state held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessTrail {
    /// The automaton accepted; `steps` is the full consumed spine,
    /// most recent first.
    Accepted {
        /// Events of one accepting trail (the whole spine — the subset
        /// walk consumes every event), most recent first.
        steps: Vec<WitnessStep>,
    },
    /// The state subset went empty consuming `blocked`: the blocking
    /// frontier where every candidate trail dies at once.
    Blocked {
        /// Events consumed successfully before the death point.
        consumed: Vec<WitnessStep>,
        /// The earliest event (in match order) no candidate trail survives.
        blocked: WitnessStep,
    },
    /// Every event was consumed but no accept state held at the end of the
    /// history: the history is too short for the pattern.
    Exhausted {
        /// The full consumed spine, most recent first.
        consumed: Vec<WitnessStep>,
    },
}

impl WitnessTrail {
    /// The verdict this trail explains.
    pub fn verdict(&self) -> bool {
        matches!(self, WitnessTrail::Accepted { .. })
    }
}

fn set_bit(states: &mut StateSet, bit: usize) {
    states[bit / 64] |= 1u64 << (bit % 64);
}

fn get_bit(states: &StateSet, bit: usize) -> bool {
    states[bit / 64] & (1u64 << (bit % 64)) != 0
}

fn is_zero(states: &StateSet) -> bool {
    states.iter().all(|&w| w == 0)
}

fn iter_bits(states: &StateSet) -> impl Iterator<Item = usize> + '_ {
    states.iter().enumerate().flat_map(|(word, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(word * 64 + bit)
            }
        })
    })
}

/// A pattern compiled to a non-deterministic finite automaton over event
/// predicates.
///
/// ```
/// use piprov_patterns::ast::{GroupExpr, Pattern};
/// use piprov_patterns::nfa::CompiledPattern;
/// use piprov_core::provenance::{Event, Provenance};
/// use piprov_core::name::Principal;
///
/// let pattern = Pattern::immediately_sent_by(GroupExpr::single("c"));
/// let compiled = CompiledPattern::compile(&pattern);
/// let prov = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
/// assert!(compiled.matches(&prov));
/// ```
pub struct CompiledPattern {
    /// The source pattern (kept for display and introspection).
    source: Pattern,
    /// Transitions per state.
    transitions: Vec<Vec<Transition>>,
    /// Atom predicates; nested channel patterns are compiled too.
    atoms: Vec<CompiledAtom>,
    start: usize,
    accept: usize,
    /// Match memo: verdict of simulating from a state set over the suffix
    /// identified by an interned `ProvId`.  Bounded, with generational
    /// rollover (see the module docs).
    memo: Mutex<Memo>,
}

/// A compiled event predicate: the group/direction test plus a compiled
/// nested pattern for the channel provenance.
#[derive(Clone)]
struct CompiledAtom {
    pattern: EventPattern,
    channel: Box<CompiledPattern>,
}

impl Clone for CompiledPattern {
    fn clone(&self) -> Self {
        CompiledPattern {
            source: self.source.clone(),
            transitions: self.transitions.clone(),
            atoms: self.atoms.clone(),
            start: self.start,
            accept: self.accept,
            // The memo is a cache: clones start cold but keep the bound.
            memo: Mutex::new(Memo::new(self.lock_memo().bound)),
        }
    }
}

impl fmt::Debug for CompiledPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPattern")
            .field("source", &self.source.to_string())
            .field("states", &self.transitions.len())
            .field("atoms", &self.atoms.len())
            .field("memo_entries", &self.memo_entries())
            .finish()
    }
}

/// Builder state for the Thompson construction.
struct Builder {
    transitions: Vec<Vec<Transition>>,
    atoms: Vec<CompiledAtom>,
}

impl Builder {
    fn new_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, label: Label) {
        self.transitions[from].push(Transition { to, label });
    }

    /// Compiles `pattern` into a fragment with fresh start/accept states.
    fn fragment(&mut self, pattern: &Pattern) -> (usize, usize) {
        match pattern {
            Pattern::Empty => {
                let s = self.new_state();
                let a = self.new_state();
                self.edge(s, a, Label::Epsilon);
                (s, a)
            }
            Pattern::Any => {
                // Any ≡ (any single event)*
                let s = self.new_state();
                let a = self.new_state();
                self.edge(s, a, Label::Epsilon);
                self.edge(s, s, Label::AnyEvent);
                (s, a)
            }
            Pattern::Event(ep) => {
                let s = self.new_state();
                let a = self.new_state();
                let idx = self.atoms.len();
                self.atoms.push(CompiledAtom {
                    pattern: ep.clone(),
                    channel: Box::new(CompiledPattern::compile(&ep.channel_pattern)),
                });
                self.edge(s, a, Label::Atom(idx));
                (s, a)
            }
            Pattern::Seq(first, second) => {
                let (s1, a1) = self.fragment(first);
                let (s2, a2) = self.fragment(second);
                self.edge(a1, s2, Label::Epsilon);
                (s1, a2)
            }
            Pattern::Alt(left, right) => {
                let s = self.new_state();
                let a = self.new_state();
                let (sl, al) = self.fragment(left);
                let (sr, ar) = self.fragment(right);
                self.edge(s, sl, Label::Epsilon);
                self.edge(s, sr, Label::Epsilon);
                self.edge(al, a, Label::Epsilon);
                self.edge(ar, a, Label::Epsilon);
                (s, a)
            }
            Pattern::Star(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                let (si, ai) = self.fragment(inner);
                self.edge(s, a, Label::Epsilon);
                self.edge(s, si, Label::Epsilon);
                self.edge(ai, si, Label::Epsilon);
                self.edge(ai, a, Label::Epsilon);
                (s, a)
            }
        }
    }
}

impl CompiledPattern {
    /// Compiles a pattern into an NFA.
    pub fn compile(pattern: &Pattern) -> Self {
        let mut builder = Builder {
            transitions: Vec::new(),
            atoms: Vec::new(),
        };
        let (start, accept) = builder.fragment(pattern);
        CompiledPattern {
            source: pattern.clone(),
            transitions: builder.transitions,
            atoms: builder.atoms,
            start,
            accept,
            memo: Mutex::new(Memo::new(DEFAULT_MEMO_BOUND)),
        }
    }

    /// The pattern this automaton was compiled from.
    pub fn source(&self) -> &Pattern {
        &self.source
    }

    /// Number of NFA states (including states of *this* level only; nested
    /// channel patterns have their own automata).
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of `(suffix, state set)` verdicts currently memoized at this
    /// level (nested channel automata keep their own memos).
    pub fn memo_entries(&self) -> usize {
        self.lock_memo().verdicts.len()
    }

    /// A snapshot of this level's memo occupancy and traffic (nested
    /// channel automata keep their own memos and stats).
    pub fn memo_stats(&self) -> MemoStats {
        self.lock_memo().stats()
    }

    /// Sets the memo bound of this automaton *and every nested channel
    /// automaton*, clamped to at least 1.  If the memo currently holds
    /// more entries than the new bound, it rolls over immediately (a new
    /// epoch keeping at most half the new bound), so
    /// `memo_entries() <= bound` holds from the moment this returns.
    pub fn set_memo_bound(&self, bound: usize) {
        {
            let mut memo = self.lock_memo();
            memo.bound = bound.max(1);
            if memo.verdicts.len() > memo.bound {
                memo.rollover();
            }
        }
        for atom in &self.atoms {
            atom.channel.set_memo_bound(bound);
        }
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        match self.memo.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn empty_states(&self) -> StateSet {
        vec![0u64; self.transitions.len().div_ceil(64)].into_boxed_slice()
    }

    fn initial_states(&self) -> StateSet {
        let mut states = self.empty_states();
        set_bit(&mut states, self.start);
        self.epsilon_closure(&mut states);
        states
    }

    /// Consumes one event from every active state, returning the closure
    /// of the successor set.
    fn step(&self, states: &StateSet, event: &Event, stats: &mut MatchStats) -> StateSet {
        let mut next = self.empty_states();
        for state in iter_bits(states) {
            for t in &self.transitions[state] {
                let crosses = match t.label {
                    Label::Epsilon => false,
                    Label::AnyEvent => true,
                    Label::Atom(idx) => self.atom_matches(idx, event, stats),
                };
                if crosses {
                    set_bit(&mut next, t.to);
                }
            }
        }
        self.epsilon_closure(&mut next);
        next
    }

    /// Decides `κ ⊨ π` by NFA simulation, memoized per
    /// `(ProvId, state set)`.
    ///
    /// The walk follows the interned spine of `κ`; at each node it first
    /// consults the memo (simulation from a state set over a fixed suffix
    /// is deterministic, so the cached verdict is exact) and otherwise
    /// records the node on a trail that is back-filled with the final
    /// verdict.  Re-vetting a provenance whose suffix was seen before —
    /// the common case when every message on a channel carries that
    /// channel's history — therefore costs one hash lookup per *new* node
    /// only.
    pub fn matches(&self, provenance: &Provenance) -> bool {
        self.matches_collect(provenance, &mut MatchStats::default())
    }

    /// Like [`CompiledPattern::matches`], but also reports how much work
    /// the query cost: memo hits and spine nodes simulated, accumulated
    /// across this automaton and every nested channel automaton consulted.
    pub fn matches_with_stats(&self, provenance: &Provenance) -> (bool, MatchStats) {
        let mut stats = MatchStats::default();
        let verdict = self.matches_collect(provenance, &mut stats);
        (verdict, stats)
    }

    fn matches_collect(&self, provenance: &Provenance, stats: &mut MatchStats) -> bool {
        let mut states = self.initial_states();
        let mut cursor = provenance.clone();
        let mut trail: Vec<(ProvId, StateSet)> = Vec::new();
        let verdict = loop {
            let key = (cursor.id(), states);
            if let Some(cached) = self.lock_memo().lookup(&key) {
                stats.memo_hits += 1;
                break cached;
            }
            trail.push(key);
            let current = &trail[trail.len() - 1].1;
            match cursor.head() {
                None => break get_bit(current, self.accept),
                Some(event) => {
                    stats.nodes_visited += 1;
                    states = self.step(current, event, stats);
                    if is_zero(&states) {
                        break false;
                    }
                    cursor = cursor.tail().expect("non-empty provenance").clone();
                }
            }
        };
        if !trail.is_empty() {
            let mut memo = self.lock_memo();
            for key in trail {
                memo.insert(key, verdict);
            }
        }
        verdict
    }

    /// Explains `κ ⊨ π` (or its failure) with a [`WitnessTrail`].
    ///
    /// The walk mirrors [`CompiledPattern::matches`] but records, for every
    /// consumed event, the interned id of the suffix it heads.  It does not
    /// *consult* the memo — a cached verdict carries no trail — but it
    /// seeds the memo with the final verdict for every suffix visited,
    /// exactly as a plain match would, so later (e.g. counterfactual)
    /// matches over untouched subgraphs answer from cache.
    pub fn witness(&self, provenance: &Provenance, stats: &mut MatchStats) -> WitnessTrail {
        let mut states = self.initial_states();
        let mut cursor = provenance.clone();
        let mut consumed: Vec<WitnessStep> = Vec::new();
        let mut trail: Vec<(ProvId, StateSet)> = Vec::new();
        let outcome = loop {
            let id = cursor.id();
            trail.push((id, states));
            let current = &trail[trail.len() - 1].1;
            match cursor.head() {
                None => {
                    break if get_bit(current, self.accept) {
                        WitnessTrail::Accepted { steps: consumed }
                    } else {
                        WitnessTrail::Exhausted { consumed }
                    }
                }
                Some(event) => {
                    stats.nodes_visited += 1;
                    let step = WitnessStep {
                        node: id,
                        event: event.clone(),
                    };
                    states = self.step(current, event, stats);
                    if is_zero(&states) {
                        break WitnessTrail::Blocked {
                            consumed,
                            blocked: step,
                        };
                    }
                    consumed.push(step);
                    cursor = cursor.tail().expect("non-empty provenance").clone();
                }
            }
        };
        let verdict = outcome.verdict();
        let mut memo = self.lock_memo();
        for key in trail {
            memo.insert(key, verdict);
        }
        outcome
    }

    fn atom_matches(&self, idx: usize, event: &Event, stats: &mut MatchStats) -> bool {
        let atom = &self.atoms[idx];
        event.direction == atom.pattern.direction
            && atom.pattern.group.contains(&event.principal)
            && atom
                .channel
                .matches_collect(&event.channel_provenance, stats)
    }

    fn epsilon_closure(&self, states: &mut StateSet) {
        let mut stack: Vec<usize> = iter_bits(states).collect();
        while let Some(state) = stack.pop() {
            for t in &self.transitions[state] {
                if t.label == Label::Epsilon && !get_bit(states, t.to) {
                    set_bit(states, t.to);
                    stack.push(t.to);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GroupExpr;
    use crate::matching::satisfies;
    use piprov_core::name::Principal;

    fn out(p: &str) -> Event {
        Event::output(Principal::new(p), Provenance::empty())
    }
    fn inp(p: &str) -> Event {
        Event::input(Principal::new(p), Provenance::empty())
    }
    fn seq(events: Vec<Event>) -> Provenance {
        Provenance::from_events(events)
    }

    fn check_agreement(pattern: &Pattern, provenances: &[Provenance]) {
        let compiled = CompiledPattern::compile(pattern);
        for p in provenances {
            assert_eq!(
                compiled.matches(p),
                satisfies(p, pattern),
                "engines disagree on {} ⊨ {}",
                p,
                pattern
            );
        }
    }

    fn sample_provenances() -> Vec<Provenance> {
        vec![
            Provenance::empty(),
            seq(vec![out("a")]),
            seq(vec![inp("a")]),
            seq(vec![out("b")]),
            seq(vec![out("c"), inp("b"), out("a")]),
            seq(vec![inp("b"), out("a"), out("a")]),
            seq(vec![out("a"), out("a"), out("a"), out("a")]),
            Provenance::single(Event::output(
                Principal::new("a"),
                seq(vec![out("b"), inp("c")]),
            )),
        ]
    }

    #[test]
    fn engines_agree_on_basic_patterns() {
        let patterns = vec![
            Pattern::Empty,
            Pattern::Any,
            Pattern::send(GroupExpr::single("a"), Pattern::Any),
            Pattern::receive(GroupExpr::all(), Pattern::Any),
            Pattern::immediately_sent_by(GroupExpr::single("c")),
            Pattern::originated_at(GroupExpr::single("a")),
            Pattern::only_touched_by(GroupExpr::any_of(["a", "b"])),
            Pattern::send(GroupExpr::everyone_but("a"), Pattern::Any).star(),
            Pattern::Any.then(Pattern::Any).then(Pattern::Empty),
            Pattern::Empty.or(Pattern::send(GroupExpr::single("a"), Pattern::Any)),
            Pattern::send(
                GroupExpr::single("a"),
                Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any),
            ),
        ];
        let provenances = sample_provenances();
        for p in &patterns {
            check_agreement(p, &provenances);
        }
    }

    #[test]
    fn nested_channel_patterns_are_simulated_recursively() {
        let inner = Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any);
        let pattern = Pattern::send(GroupExpr::single("a"), inner);
        let compiled = CompiledPattern::compile(&pattern);
        let chan_prov = seq(vec![out("b"), inp("c")]);
        let good = Provenance::single(Event::output(Principal::new("a"), chan_prov));
        let bad = Provenance::single(Event::output(Principal::new("a"), seq(vec![inp("c")])));
        assert!(compiled.matches(&good));
        assert!(!compiled.matches(&bad));
    }

    #[test]
    fn pathological_pattern_is_fast() {
        // (Any; Any)* over a long provenance: the reference matcher would
        // explore exponentially many splits; the NFA stays linear.
        let pattern = Pattern::Any.then(Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        let long = Provenance::from_events((0..200).map(|_| out("a")).collect::<Vec<_>>());
        assert!(compiled.matches(&long));
    }

    #[test]
    fn star_requires_all_chunks_to_match() {
        let pattern = Pattern::send(GroupExpr::single("a"), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.matches(&seq(vec![out("a"), out("a")])));
        assert!(!compiled.matches(&seq(vec![out("a"), out("b")])));
        assert!(compiled.matches(&Provenance::empty()));
    }

    #[test]
    fn dead_states_short_circuit() {
        let pattern = Pattern::send(GroupExpr::single("a"), Pattern::Any);
        let compiled = CompiledPattern::compile(&pattern);
        // Second event can never be consumed: no live state remains.
        assert!(!compiled.matches(&seq(vec![out("a"), out("a"), out("a")])));
    }

    #[test]
    fn memo_returns_consistent_verdicts() {
        let pattern = Pattern::only_touched_by(GroupExpr::any_of(["a", "b"]));
        let compiled = CompiledPattern::compile(&pattern);
        let yes = seq(vec![out("a"), inp("b"), out("b")]);
        let no = seq(vec![out("a"), inp("c")]);
        for _ in 0..3 {
            assert!(compiled.matches(&yes));
            assert!(!compiled.matches(&no));
        }
        assert!(compiled.memo_entries() > 0, "verdicts were memoized");
    }

    #[test]
    fn memo_is_reused_across_shared_suffixes() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        // Grow one history; every extension shares the previous spine, so
        // the memo grows by O(1) nodes per query instead of re-simulating
        // the whole sequence.
        let mut prov = Provenance::empty();
        for i in 0..32 {
            prov = prov.prepend(out(&format!("p{}", i % 4)));
            assert!(compiled.matches(&prov));
        }
        let entries_after_growth = compiled.memo_entries();
        // Re-vetting the full history is answered from the memo alone.
        assert!(compiled.matches(&prov));
        assert_eq!(compiled.memo_entries(), entries_after_growth);
    }

    #[test]
    fn memo_stays_under_its_bound_on_a_long_workload() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(16);
        // Vet far more distinct histories than the bound admits.
        for i in 0..400 {
            let prov = Provenance::from_events(
                (0..(1 + i % 7))
                    .map(|j| out(&format!("bound-{}-{}", i, j)))
                    .collect::<Vec<_>>(),
            );
            assert!(compiled.matches(&prov));
            assert!(
                compiled.memo_entries() <= 16,
                "memo exceeded its bound: {}",
                compiled.memo_entries()
            );
        }
        let stats = compiled.memo_stats();
        assert_eq!(stats.bound, 16);
        assert!(stats.epochs > 0, "the bound forced at least one epoch");
        assert!(stats.misses > 0);
        // Verdicts stay correct across epochs.
        assert!(compiled.matches(&seq(vec![out("fresh")])));
        assert!(!compiled.matches(&seq(vec![inp("fresh")])));
    }

    #[test]
    fn set_memo_bound_reaches_nested_channel_automata() {
        let inner = Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any);
        let pattern = Pattern::send(GroupExpr::single("a"), inner);
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(4);
        for i in 0..64 {
            let chan = seq(vec![out("b"), inp(&format!("nested-{}", i))]);
            let prov = Provenance::single(Event::output(Principal::new("a"), chan));
            assert!(compiled.matches(&prov));
        }
        // The nested automaton (vetting channel histories) saw 64 distinct
        // suffixes under a bound of 4: it must have cycled epochs.
        let nested_epochs: u64 = compiled
            .atoms
            .iter()
            .map(|a| a.channel.memo_stats().epochs)
            .sum();
        assert!(nested_epochs > 0, "nested memos respect the bound too");
        assert!(compiled.atoms.iter().all(|a| a.channel.memo_entries() <= 4));
    }

    #[test]
    fn shrinking_the_bound_clears_excess_entries_immediately() {
        let pattern = Pattern::Any;
        let compiled = CompiledPattern::compile(&pattern);
        for i in 0..32 {
            assert!(compiled.matches(&seq(vec![out(&format!("shrink-{}", i))])));
        }
        assert!(compiled.memo_entries() > 8);
        compiled.set_memo_bound(8);
        assert!(compiled.memo_entries() <= 8);
        assert!(compiled.memo_stats().epochs >= 1);
    }

    #[test]
    fn matches_with_stats_reports_memo_reuse() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        let prov = seq(vec![out("ws-a"), out("ws-b"), out("ws-c")]);
        let (verdict, cold) = compiled.matches_with_stats(&prov);
        assert!(verdict);
        // The outer spine is fully simulated; the only hits come from the
        // nested channel automaton re-vetting the (memoized) ε history.
        assert_eq!(cold.nodes_visited, 3);
        assert_eq!(cold.memo_hits, 2);
        let (verdict, warm) = compiled.matches_with_stats(&prov);
        assert!(verdict);
        assert_eq!(warm.nodes_visited, 0, "second query simulates nothing");
        assert_eq!(warm.memo_hits, 1, "…it is answered by one memo lookup");
        // Extending the history costs O(new nodes): the new event plus at
        // most one more step until the state set re-enters a memoized
        // (suffix, states) pair — never a re-simulation of the whole spine.
        let grown = prov.prepend(out("ws-d"));
        let (_, incremental) = compiled.matches_with_stats(&grown);
        assert!(incremental.nodes_visited <= 2);
        assert!(incremental.memo_hits >= 1);
    }

    #[test]
    fn generational_eviction_retains_the_hot_working_set() {
        // A small working set is re-vetted on every iteration while a
        // stream of one-shot histories forces epoch rollovers.
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(16);
        let hot: Vec<Provenance> = (0..4)
            .map(|i| seq(vec![out(&format!("hot-{}", i)), out("shared")]))
            .collect();
        for i in 0..300 {
            let rolled_over = compiled.memo_stats().epochs > 0;
            let (verdict, stats) = compiled.matches_with_stats(&hot[i % hot.len()]);
            assert!(verdict);
            // The regression the rollover rule exists for: once the memo
            // has rolled over, the hot working set still answers from the
            // memo instead of re-simulating from cold.
            if rolled_over {
                assert_eq!(stats.nodes_visited, 0, "hot query {} re-simulated", i);
            }
            let cold = seq(vec![out(&format!("cold-{}", i))]);
            assert!(compiled.matches(&cold));
            assert!(
                compiled.memo_entries() <= 16,
                "memo exceeded its bound: {}",
                compiled.memo_entries()
            );
        }
        let stats = compiled.memo_stats();
        assert!(stats.epochs > 0, "the cold stream forced rollovers");
        assert!(
            stats.retained > 0,
            "hot entries survived at least one rollover"
        );
    }

    #[test]
    fn generational_rollover_frees_at_least_half_the_memo() {
        // A workload where *every* entry is hot: vet the same histories
        // repeatedly so all cached verdicts answer lookups, then overflow.
        // The survivor cap (bound / 2) must still free room for the new
        // epoch rather than thrashing a rollover per insert.
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(8);
        let working: Vec<Provenance> = (0..8)
            .map(|i| seq(vec![out(&format!("w-{}", i))]))
            .collect();
        for _ in 0..3 {
            for prov in &working {
                assert!(compiled.matches(prov));
            }
        }
        // Overflow with fresh histories; entries never exceed the bound and
        // the memo never holds more than bound/2 survivors post-rollover.
        for i in 0..64 {
            assert!(compiled.matches(&seq(vec![out(&format!("fresh-{}", i))])));
            assert!(compiled.memo_entries() <= 8);
        }
        let stats = compiled.memo_stats();
        assert!(stats.epochs > 0);
        assert!(
            stats.retained <= stats.epochs * 4,
            "each rollover keeps at most bound/2 = 4 entries"
        );
    }

    #[test]
    fn clones_start_with_a_cold_memo() {
        let pattern = Pattern::Any;
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.matches(&seq(vec![out("a")])));
        assert!(compiled.memo_entries() > 0);
        let cloned = compiled.clone();
        assert_eq!(cloned.memo_entries(), 0);
        assert!(cloned.matches(&seq(vec![out("a")])));
    }

    #[test]
    fn debug_and_introspection() {
        let pattern = Pattern::immediately_sent_by(GroupExpr::single("c"));
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.state_count() >= 4);
        assert_eq!(compiled.source(), &pattern);
        let dbg = format!("{:?}", compiled);
        assert!(dbg.contains("CompiledPattern"));
    }

    #[test]
    fn agreement_helper() {
        let pattern = Pattern::originated_at(GroupExpr::single("d"));
        let compiled = CompiledPattern::compile(&pattern);
        for p in sample_provenances() {
            assert_eq!(compiled.matches(&p), satisfies(&p, &pattern));
        }
    }
}
