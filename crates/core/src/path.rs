//! Path expressions: the declared partial order of monitor procedure
//! calls.
//!
//! §3 of the paper: *"we require the partial ordering of procedure calls
//! within a monitor be specified in the monitor declaration. A convenient
//! way to specify the partial order relation is path-expression like
//! notation \[Campbell & Kolstad\]"*.
//!
//! We implement a small path-expression language over procedure names:
//!
//! ```text
//! pathexpr := "path" expr "end"            (the keywords are optional)
//! expr     := seq ( ("|" | ",") seq )*     alternation (selector)
//! seq      := rep ( ";" rep )*             sequencing
//! rep      := atom ( "*" | "+" | "?" )*    repetition
//! atom     := NAME | "(" expr ")"
//! ```
//!
//! The expression constrains, **per process**, the order of that
//! process's procedure calls on the monitor — exactly the paper's
//! "partial ordering declared in the monitor specification explicitly",
//! e.g. `path (request ; release)* end` for a resource allocator.
//!
//! An expression is compiled against a [`crate::spec::MonitorSpec`] into
//! a Thompson NFA ([`CompiledPath`]); a [`PathTracker`] then follows one
//! process's calls through the automaton. A call that leaves the
//! automaton without successor states is an ordering violation
//! (user-process-level fault, ST-8 / FD-Rule 7).

use crate::ids::ProcName;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised while parsing or compiling a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Lexical error at byte offset.
    Lex {
        /// Byte offset of the offending character.
        at: usize,
        /// The offending character.
        ch: char,
    },
    /// Unexpected token during parsing.
    Parse {
        /// Description of what was found/expected.
        message: String,
    },
    /// A name in the expression is not a declared procedure of the
    /// monitor the expression is compiled against.
    UnknownProcedure {
        /// The undeclared name.
        name: String,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Lex { at, ch } => {
                write!(f, "unexpected character {ch:?} at byte {at} in path expression")
            }
            PathError::Parse { message } => write!(f, "path expression syntax error: {message}"),
            PathError::UnknownProcedure { name } => {
                write!(f, "path expression names undeclared procedure {name:?}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// Abstract syntax of a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    /// A procedure name.
    Name(String),
    /// `a ; b ; c` — sequencing.
    Seq(Vec<Node>),
    /// `a | b | c` — selection.
    Alt(Vec<Node>),
    /// `e*` — zero or more repetitions.
    Star(Box<Node>),
    /// `e+` — one or more repetitions.
    Plus(Box<Node>),
    /// `e?` — optional.
    Opt(Box<Node>),
}

/// A parsed path expression.
///
/// # Examples
///
/// ```
/// use rmon_core::PathExpr;
/// let p = PathExpr::parse("path (request ; release)* end")?;
/// assert!(p.accepts_names(&["request", "release", "request", "release"]));
/// assert!(!p.accepts_names(&["release"]));
/// # Ok::<(), rmon_core::PathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PathExpr {
    src: String,
    ast: Node,
}

impl PartialEq for PathExpr {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl Eq for PathExpr {}

impl PathExpr {
    /// Parses a path expression. The `path` / `end` keywords are
    /// accepted but optional.
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] on lexical or syntax errors.
    pub fn parse(src: &str) -> Result<PathExpr, PathError> {
        let tokens = lex(src)?;
        let mut p = Parser { tokens, pos: 0 };
        let ast = p.parse_top()?;
        Ok(PathExpr { src: src.to_string(), ast })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The parsed syntax tree, for the static spec analyzer.
    pub(crate) fn ast(&self) -> &Node {
        &self.ast
    }

    /// All procedure names mentioned in the expression.
    pub fn names(&self) -> BTreeSet<&str> {
        fn walk<'a>(n: &'a Node, out: &mut BTreeSet<&'a str>) {
            match n {
                Node::Name(s) => {
                    out.insert(s.as_str());
                }
                Node::Seq(v) | Node::Alt(v) => v.iter().for_each(|c| walk(c, out)),
                Node::Star(c) | Node::Plus(c) | Node::Opt(c) => walk(c, out),
            }
        }
        let mut out = BTreeSet::new();
        walk(&self.ast, &mut out);
        out
    }

    /// Compiles the expression to an NFA, resolving procedure names
    /// through `resolve` (typically
    /// [`crate::spec::MonitorSpec::proc_by_name`]).
    ///
    /// # Errors
    ///
    /// Returns [`PathError::UnknownProcedure`] if a name does not
    /// resolve.
    pub fn compile(
        &self,
        mut resolve: impl FnMut(&str) -> Option<ProcName>,
    ) -> Result<CompiledPath, PathError> {
        let mut nfa = NfaBuilder::default();
        let frag = nfa.build(&self.ast, &mut resolve)?;
        Ok(CompiledPath { eps: nfa.eps, steps: nfa.steps, start: frag.start, accept: frag.accept })
    }

    /// Full-match check against a sequence of names, using a naive
    /// backtracking matcher that is *independent of the NFA* — used in
    /// differential tests of the compiled automaton.
    pub fn accepts_names(&self, names: &[&str]) -> bool {
        // Returns the set of suffix positions reachable after matching a
        // prefix of `names[from..]` against `node`.
        fn positions(node: &Node, names: &[&str], from: usize, out: &mut BTreeSet<usize>) {
            match node {
                Node::Name(s) => {
                    if names.get(from).is_some_and(|n| n == s) {
                        out.insert(from + 1);
                    }
                }
                Node::Seq(v) => {
                    let mut cur: BTreeSet<usize> = BTreeSet::from([from]);
                    for child in v {
                        let mut next = BTreeSet::new();
                        for &p in &cur {
                            positions(child, names, p, &mut next);
                        }
                        cur = next;
                        if cur.is_empty() {
                            return;
                        }
                    }
                    out.extend(cur);
                }
                Node::Alt(v) => {
                    for child in v {
                        positions(child, names, from, out);
                    }
                }
                Node::Star(c) => {
                    out.insert(from);
                    let mut frontier = BTreeSet::from([from]);
                    loop {
                        let mut next = BTreeSet::new();
                        for &p in &frontier {
                            positions(c, names, p, &mut next);
                        }
                        let fresh: BTreeSet<usize> = next.difference(out).copied().collect();
                        if fresh.is_empty() {
                            break;
                        }
                        out.extend(fresh.iter().copied());
                        frontier = fresh;
                    }
                }
                Node::Plus(c) => {
                    let star = Node::Star(c.clone());
                    let mut after_one = BTreeSet::new();
                    positions(c, names, from, &mut after_one);
                    for &p in &after_one {
                        positions(&star, names, p, out);
                    }
                }
                Node::Opt(c) => {
                    out.insert(from);
                    positions(c, names, from, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        positions(&self.ast, names, 0, &mut out);
        out.contains(&names.len())
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.src)
    }
}

impl Serialize for PathExpr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.src)
    }
}

impl<'de> Deserialize<'de> for PathExpr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        PathExpr::parse(&s).map_err(D::Error::custom)
    }
}

// ---------------------------------------------------------------------
// Lexer / parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Semi,
    Alt,
    Star,
    Plus,
    Question,
    LParen,
    RParen,
}

fn lex(src: &str) -> Result<Vec<Token>, PathError> {
    let mut out = Vec::new();
    let mut it = src.char_indices().peekable();
    while let Some(&(i, c)) = it.peek() {
        match c {
            c if c.is_whitespace() => {
                it.next();
            }
            ';' => {
                it.next();
                out.push(Token::Semi);
            }
            '|' | ',' => {
                it.next();
                out.push(Token::Alt);
            }
            '*' => {
                it.next();
                out.push(Token::Star);
            }
            '+' => {
                it.next();
                out.push(Token::Plus);
            }
            '?' => {
                it.next();
                out.push(Token::Question);
            }
            '(' => {
                it.next();
                out.push(Token::LParen);
            }
            ')' => {
                it.next();
                out.push(Token::RParen);
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut name = String::new();
                while let Some(&(_, c2)) = it.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        name.push(c2);
                        it.next();
                    } else {
                        break;
                    }
                }
                match name.as_str() {
                    // `path` and `end` are cosmetic keywords.
                    "path" | "end" => {}
                    _ => out.push(Token::Ident(name)),
                }
            }
            _ => return Err(PathError::Lex { at: i, ch: c }),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse_top(&mut self) -> Result<Node, PathError> {
        if self.tokens.is_empty() {
            return Err(PathError::Parse { message: "empty path expression".into() });
        }
        let node = self.parse_alt()?;
        if self.pos != self.tokens.len() {
            return Err(PathError::Parse {
                message: format!("trailing tokens starting at token {}", self.pos),
            });
        }
        Ok(node)
    }

    fn parse_alt(&mut self) -> Result<Node, PathError> {
        let mut items = vec![self.parse_seq()?];
        while self.peek() == Some(&Token::Alt) {
            self.bump();
            items.push(self.parse_seq()?);
        }
        Ok(if items.len() == 1 { items.pop().expect("one item") } else { Node::Alt(items) })
    }

    fn parse_seq(&mut self) -> Result<Node, PathError> {
        let mut items = vec![self.parse_rep()?];
        while self.peek() == Some(&Token::Semi) {
            self.bump();
            items.push(self.parse_rep()?);
        }
        Ok(if items.len() == 1 { items.pop().expect("one item") } else { Node::Seq(items) })
    }

    fn parse_rep(&mut self) -> Result<Node, PathError> {
        let mut node = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.bump();
                    node = Node::Star(Box::new(node));
                }
                Some(Token::Plus) => {
                    self.bump();
                    node = Node::Plus(Box::new(node));
                }
                Some(Token::Question) => {
                    self.bump();
                    node = Node::Opt(Box::new(node));
                }
                _ => break,
            }
        }
        Ok(node)
    }

    fn parse_atom(&mut self) -> Result<Node, PathError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(Node::Name(name)),
            Some(Token::LParen) => {
                let inner = self.parse_alt()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    other => {
                        Err(PathError::Parse { message: format!("expected ')', found {other:?}") })
                    }
                }
            }
            other => Err(PathError::Parse {
                message: format!("expected a procedure name or '(', found {other:?}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// NFA
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct NfaBuilder {
    /// Epsilon transitions per state.
    eps: Vec<Vec<usize>>,
    /// Symbol transitions per state.
    steps: Vec<Vec<(ProcName, usize)>>,
}

struct Frag {
    start: usize,
    accept: usize,
}

impl NfaBuilder {
    fn new_state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        self.eps.len() - 1
    }

    fn build(
        &mut self,
        node: &Node,
        resolve: &mut impl FnMut(&str) -> Option<ProcName>,
    ) -> Result<Frag, PathError> {
        match node {
            Node::Name(name) => {
                let sym = resolve(name)
                    .ok_or_else(|| PathError::UnknownProcedure { name: name.clone() })?;
                let s = self.new_state();
                let a = self.new_state();
                self.steps[s].push((sym, a));
                Ok(Frag { start: s, accept: a })
            }
            Node::Seq(v) => {
                let mut frags = Vec::with_capacity(v.len());
                for child in v {
                    frags.push(self.build(child, resolve)?);
                }
                let mut it = frags.into_iter();
                let first = it.next().expect("Seq has at least one child");
                let mut prev_accept = first.accept;
                for f in it {
                    self.eps[prev_accept].push(f.start);
                    prev_accept = f.accept;
                }
                Ok(Frag { start: first.start, accept: prev_accept })
            }
            Node::Alt(v) => {
                let s = self.new_state();
                let a = self.new_state();
                for child in v {
                    let f = self.build(child, resolve)?;
                    self.eps[s].push(f.start);
                    self.eps[f.accept].push(a);
                }
                Ok(Frag { start: s, accept: a })
            }
            Node::Star(c) => {
                let s = self.new_state();
                let a = self.new_state();
                let f = self.build(c, resolve)?;
                self.eps[s].push(f.start);
                self.eps[s].push(a);
                self.eps[f.accept].push(f.start);
                self.eps[f.accept].push(a);
                Ok(Frag { start: s, accept: a })
            }
            Node::Plus(c) => {
                let f = self.build(c, resolve)?;
                let a = self.new_state();
                self.eps[f.accept].push(f.start);
                self.eps[f.accept].push(a);
                Ok(Frag { start: f.start, accept: a })
            }
            Node::Opt(c) => {
                let s = self.new_state();
                let a = self.new_state();
                let f = self.build(c, resolve)?;
                self.eps[s].push(f.start);
                self.eps[s].push(a);
                self.eps[f.accept].push(a);
                Ok(Frag { start: s, accept: a })
            }
        }
    }
}

/// A path expression compiled against a monitor specification.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    eps: Vec<Vec<usize>>,
    steps: Vec<Vec<(ProcName, usize)>>,
    start: usize,
    accept: usize,
}

impl CompiledPath {
    /// Number of NFA states.
    pub fn state_count(&self) -> usize {
        self.eps.len()
    }

    /// Epsilon successors of one state, for the static spec analyzer.
    pub(crate) fn eps_edges(&self, state: usize) -> &[usize] {
        &self.eps[state]
    }

    /// Symbol transitions of one state, for the static spec analyzer.
    pub(crate) fn step_edges(&self, state: usize) -> &[(ProcName, usize)] {
        &self.steps[state]
    }

    /// The NFA start state.
    pub(crate) fn start_state(&self) -> usize {
        self.start
    }

    /// The NFA accept state.
    pub(crate) fn accept_state(&self) -> usize {
        self.accept
    }

    /// Assembles an automaton directly from its transition tables —
    /// only for analyzer unit tests that need shapes the Thompson
    /// construction cannot produce (e.g. trap states).
    #[cfg(test)]
    pub(crate) fn from_parts(
        eps: Vec<Vec<usize>>,
        steps: Vec<Vec<(ProcName, usize)>>,
        start: usize,
        accept: usize,
    ) -> CompiledPath {
        CompiledPath { eps, steps, start, accept }
    }

    /// Starts tracking one process's calls through the automaton.
    pub fn tracker(&self) -> PathTracker<'_> {
        PathTracker { path: self, states: self.initial_states() }
    }

    /// The initial (epsilon-closed) NFA state set. Use together with
    /// [`CompiledPath::advance_states`] when the state set must be
    /// stored independently of the automaton (e.g. one set per process
    /// inside a detector).
    pub fn initial_states(&self) -> Vec<bool> {
        let mut states = vec![false; self.eps.len()];
        states[self.start] = true;
        self.close(&mut states);
        states
    }

    /// Advances an externally stored state set by one call.
    ///
    /// # Errors
    ///
    /// Returns [`OrderViolation`] — and leaves the set unchanged — if no
    /// automaton path allows the call.
    pub fn advance_states(
        &self,
        states: &mut Vec<bool>,
        proc_name: ProcName,
    ) -> Result<(), OrderViolation> {
        let mut next = vec![false; states.len()];
        let mut any = false;
        for (s, &active) in states.iter().enumerate() {
            if !active {
                continue;
            }
            for &(sym, t) in &self.steps[s] {
                if sym == proc_name {
                    next[t] = true;
                    any = true;
                }
            }
        }
        if !any {
            return Err(OrderViolation { proc_name });
        }
        self.close(&mut next);
        *states = next;
        Ok(())
    }

    /// Epsilon-closure of a state set, in place.
    fn close(&self, states: &mut [bool]) {
        let mut stack: Vec<usize> =
            states.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if !states[t] {
                    states[t] = true;
                    stack.push(t);
                }
            }
        }
    }

    /// Runs a whole call sequence; `true` iff it is accepted in full.
    pub fn accepts(&self, calls: &[ProcName]) -> bool {
        let mut t = self.tracker();
        for &c in calls {
            if t.advance(c).is_err() {
                return false;
            }
        }
        t.is_complete()
    }
}

/// Error returned by [`PathTracker::advance`] when a call violates the
/// declared order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderViolation {
    /// The offending call.
    pub proc_name: ProcName,
}

impl fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "procedure call {} violates the declared call order", self.proc_name)
    }
}

impl std::error::Error for OrderViolation {}

/// Follows one process's procedure calls through a [`CompiledPath`].
#[derive(Debug, Clone)]
pub struct PathTracker<'a> {
    path: &'a CompiledPath,
    states: Vec<bool>,
}

impl<'a> PathTracker<'a> {
    /// Advances the tracker by one call.
    ///
    /// # Errors
    ///
    /// Returns [`OrderViolation`] — and leaves the tracker unchanged, so
    /// detection can continue — if no automaton path allows the call.
    pub fn advance(&mut self, proc_name: ProcName) -> Result<(), OrderViolation> {
        self.path.advance_states(&mut self.states, proc_name)
    }

    /// Whether the call allowed next includes `proc_name` (lookahead
    /// without advancing).
    pub fn allows(&self, proc_name: ProcName) -> bool {
        self.states.iter().enumerate().any(|(s, &active)| {
            active && self.path.steps[s].iter().any(|&(sym, _)| sym == proc_name)
        })
    }

    /// Whether the calls so far form a *complete* path (the accept state
    /// is reachable) — e.g. every `request` has its `release`.
    pub fn is_complete(&self) -> bool {
        self.states[self.path.accept]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver(names: &'static [&'static str]) -> impl FnMut(&str) -> Option<ProcName> {
        move |n: &str| names.iter().position(|x| *x == n).map(|i| ProcName::new(i as u16))
    }

    fn compile(src: &str, names: &'static [&'static str]) -> CompiledPath {
        PathExpr::parse(src).unwrap().compile(resolver(names)).unwrap()
    }

    const RR: &[&str] = &["request", "release"];

    #[test]
    fn parses_keywords_optionally() {
        assert!(PathExpr::parse("path request end").is_ok());
        assert!(PathExpr::parse("request").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(PathExpr::parse("re@quest"), Err(PathError::Lex { .. })));
        assert!(matches!(PathExpr::parse("(request"), Err(PathError::Parse { .. })));
        assert!(matches!(PathExpr::parse(""), Err(PathError::Parse { .. })));
        assert!(matches!(PathExpr::parse("path end"), Err(PathError::Parse { .. })));
        assert!(matches!(PathExpr::parse("a b"), Err(PathError::Parse { .. })));
    }

    #[test]
    fn unknown_procedure_fails_compile() {
        let e = PathExpr::parse("bogus").unwrap().compile(resolver(RR));
        assert!(matches!(e, Err(PathError::UnknownProcedure { .. })));
    }

    #[test]
    fn allocator_order_accepts_balanced() {
        let p = compile("path (request ; release)* end", RR);
        let rq = ProcName::new(0);
        let rl = ProcName::new(1);
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[rq, rl]));
        assert!(p.accepts(&[rq, rl, rq, rl]));
        assert!(!p.accepts(&[rl]));
        assert!(!p.accepts(&[rq, rq]));
        // Incomplete (held resource) is not *accepted* …
        assert!(!p.accepts(&[rq]));
        // … but is a valid prefix:
        let mut t = p.tracker();
        assert!(t.advance(rq).is_ok());
        assert!(!t.is_complete());
        assert!(t.allows(rl));
        assert!(!t.allows(rq));
    }

    #[test]
    fn violation_leaves_tracker_usable() {
        let p = compile("(request ; release)*", RR);
        let rq = ProcName::new(0);
        let rl = ProcName::new(1);
        let mut t = p.tracker();
        assert!(t.advance(rl).is_err());
        // Tracker unchanged: request is still allowed.
        assert!(t.advance(rq).is_ok());
    }

    #[test]
    fn alternation_and_optional() {
        let p = compile("(a | b) ; c?", &["a", "b", "c"]);
        let a = ProcName::new(0);
        let b = ProcName::new(1);
        let c = ProcName::new(2);
        assert!(p.accepts(&[a]));
        assert!(p.accepts(&[b, c]));
        assert!(!p.accepts(&[c]));
        assert!(!p.accepts(&[a, b]));
    }

    #[test]
    fn plus_requires_one() {
        let p = compile("a+", &["a"]);
        let a = ProcName::new(0);
        assert!(!p.accepts(&[]));
        assert!(p.accepts(&[a]));
        assert!(p.accepts(&[a, a, a]));
    }

    #[test]
    fn comma_is_alternation() {
        let p = compile("path a, b end", &["a", "b"]);
        assert!(p.accepts(&[ProcName::new(0)]));
        assert!(p.accepts(&[ProcName::new(1)]));
        assert!(!p.accepts(&[ProcName::new(0), ProcName::new(1)]));
    }

    #[test]
    fn naive_matcher_agrees_on_basics() {
        let p = PathExpr::parse("(request ; release)*").unwrap();
        assert!(p.accepts_names(&[]));
        assert!(p.accepts_names(&["request", "release"]));
        assert!(!p.accepts_names(&["request"]));
        assert!(!p.accepts_names(&["release", "request"]));
    }

    #[test]
    fn names_are_collected() {
        let p = PathExpr::parse("(a;b)|c*").unwrap();
        let names = p.names();
        assert_eq!(names.into_iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn display_and_eq_by_structure() {
        let p1 = PathExpr::parse("path a ; b end").unwrap();
        let p2 = PathExpr::parse("a;b").unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.to_string(), "path a ; b end");
    }

    #[test]
    fn nested_repetition() {
        let p = compile("((a ; b)+ ; c)*", &["a", "b", "c"]);
        let (a, b, c) = (ProcName::new(0), ProcName::new(1), ProcName::new(2));
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[a, b, c]));
        assert!(p.accepts(&[a, b, a, b, c, a, b, c]));
        assert!(!p.accepts(&[a, c]));
    }

    #[test]
    fn state_count_is_reasonable() {
        let p = compile("(request ; release)*", RR);
        assert!(p.state_count() >= 4);
        assert!(p.state_count() <= 16);
    }
}
