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
//! An expression is compiled against a [`crate::spec::MonitorSpec`]: a
//! Thompson NFA is built and determinised into one transition table
//! ([`CompiledPath`]), which Algorithm 3, the runtime lookahead, the
//! predictor and the spec analyzer all read. A [`PathTracker`] follows
//! one process's calls through the table. A call without a transition
//! is an ordering violation (user-process-level fault, ST-8 /
//! FD-Rule 7).

use crate::ids::ProcName;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeSet, HashMap};
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
    /// The determinised automaton would exceed
    /// [`CompiledPath::MAX_STATES`] states.
    TooManyStates,
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
            PathError::TooManyStates => write!(
                f,
                "path expression needs more than {} automaton states",
                CompiledPath::MAX_STATES
            ),
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

    /// Compiles the expression to its transition table, resolving
    /// procedure names through `resolve` (typically
    /// [`crate::spec::MonitorSpec::proc_by_name`]).
    ///
    /// # Errors
    ///
    /// Returns [`PathError::UnknownProcedure`] if a name does not
    /// resolve, and [`PathError::TooManyStates`] if the table would
    /// exceed [`CompiledPath::MAX_STATES`] states.
    pub fn compile(
        &self,
        mut resolve: impl FnMut(&str) -> Option<ProcName>,
    ) -> Result<CompiledPath, PathError> {
        let mut nfa = NfaBuilder::default();
        let frag = nfa.build(&self.ast, &mut resolve)?;
        nfa.determinise(&frag)
    }

    /// Full-match check against a sequence of names, using a naive
    /// backtracking matcher that is *independent of the automaton* —
    /// used in differential tests of the compiled table.
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
// Thompson NFA and its subset construction
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

    /// The ε-closure of `from`, reduced to the states that matter
    /// after it: those with a symbol edge, and the accept state. Two
    /// closures that agree on these behave alike, so they are one
    /// table state.
    fn closure(&self, mut stack: Vec<usize>, accept: usize) -> Vec<usize> {
        let mut seen: BTreeSet<usize> = stack.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen.into_iter().filter(|&s| s == accept || !self.steps[s].is_empty()).collect()
    }

    /// The subset construction: one table state per reachable closure.
    /// Closures are never empty and every Thompson state lies on a
    /// start→accept path, so every table state can still complete.
    fn determinise(&self, frag: &Frag) -> Result<CompiledPath, PathError> {
        let mut column: Vec<u32> = Vec::new();
        let mut width = 0;
        for &(sym, _) in self.steps.iter().flatten() {
            if column.len() <= sym.as_usize() {
                column.resize(sym.as_usize() + 1, NONE);
            }
            if column[sym.as_usize()] == NONE {
                column[sym.as_usize()] = width as u32;
                width += 1;
            }
        }
        let mut sets = vec![self.closure(vec![frag.start], frag.accept)];
        let mut ids: HashMap<Vec<usize>, u32> = HashMap::from([(sets[0].clone(), 0)]);
        let mut next = Vec::new();
        let mut accepting = Vec::new();
        let mut moved: Vec<Vec<usize>> = vec![Vec::new(); width];
        while let Some(set) = sets.get(accepting.len()) {
            accepting.push(set.contains(&frag.accept));
            for &(sym, t) in set.iter().flat_map(|&s| &self.steps[s]) {
                moved[column[sym.as_usize()] as usize].push(t);
            }
            for targets in &mut moved {
                if targets.is_empty() {
                    next.push(NONE);
                    continue;
                }
                let target = self.closure(std::mem::take(targets), frag.accept);
                let id = match ids.get(&target) {
                    Some(&id) => id,
                    None if sets.len() == CompiledPath::MAX_STATES => {
                        return Err(PathError::TooManyStates)
                    }
                    None => {
                        let id = sets.len() as u32;
                        ids.insert(target.clone(), id);
                        sets.push(target);
                        id
                    }
                };
                next.push(id);
            }
        }
        Ok(CompiledPath { column, width, next, accepting })
    }
}

/// A path expression compiled against a monitor specification: the
/// determinised, trim automaton of the expression as one flat
/// `(state, procedure) → state` table.
///
/// States are `u32`s; [`CompiledPath::start`] is the initial one and
/// [`CompiledPath::step`] follows one call. Every state the table
/// holds lies on a path to an accepting state, so a call without a
/// transition is exactly a call no completion of the declared order
/// allows.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    /// Column of each procedure in `next`, indexed by [`ProcName`];
    /// `NONE` for a procedure the expression does not name.
    column: Vec<u32>,
    /// Columns per state: the number of procedures the expression
    /// names.
    width: usize,
    /// `next[state * width + column]`: the successor state, or `NONE`.
    next: Vec<u32>,
    /// Whether each state completes the declared order.
    accepting: Vec<bool>,
}

/// "No transition" / "not named" in a [`CompiledPath`] table.
const NONE: u32 = u32::MAX;

impl CompiledPath {
    /// The most states a compiled call order may have. Determinising
    /// is exponential in the worst case — `(a | b)* ; a ; (a | b) ; …`
    /// doubles its states with every trailing `(a | b)` — and
    /// expressions arrive from `.mspec` files, so
    /// [`PathExpr::compile`] stops here with
    /// [`PathError::TooManyStates`].
    pub const MAX_STATES: usize = 1024;

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The initial state: no call made yet.
    pub fn start(&self) -> u32 {
        0
    }

    /// The state after `proc_name` is called in `state`, or `None` if
    /// the declared order does not allow that call there. A procedure
    /// the expression does not name — including any `ProcName` past
    /// the monitor's declared procedures — has no transition.
    pub fn step(&self, state: u32, proc_name: ProcName) -> Option<u32> {
        let column = *self.column.get(proc_name.as_usize())?;
        if column == NONE {
            return None;
        }
        let next = self.next[state as usize * self.width + column as usize];
        (next != NONE).then_some(next)
    }

    /// Whether `state` completes the declared order — e.g. every
    /// `request` has had its `release`.
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accepting[state as usize]
    }

    /// Starts tracking one process's calls through the automaton.
    pub fn tracker(&self) -> PathTracker<'_> {
        PathTracker { path: self, state: self.start() }
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
    state: u32,
}

impl<'a> PathTracker<'a> {
    /// Advances the tracker by one call.
    ///
    /// # Errors
    ///
    /// Returns [`OrderViolation`] — and leaves the tracker unchanged, so
    /// detection can continue — if the declared order does not allow
    /// the call.
    pub fn advance(&mut self, proc_name: ProcName) -> Result<(), OrderViolation> {
        self.state = self.path.step(self.state, proc_name).ok_or(OrderViolation { proc_name })?;
        Ok(())
    }

    /// Whether the call allowed next includes `proc_name` (lookahead
    /// without advancing).
    pub fn allows(&self, proc_name: ProcName) -> bool {
        self.path.step(self.state, proc_name).is_some()
    }

    /// Whether the calls so far form a *complete* path — e.g. every
    /// `request` has its `release`.
    pub fn is_complete(&self) -> bool {
        self.path.is_accepting(self.state)
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
        // Waiting for `request`, waiting for `release`.
        assert_eq!(compile("(request ; release)*", RR).state_count(), 2);
        // Waiting for `a`, for `b`, for `a` or `c`.
        assert_eq!(compile("((a ; b)+ ; c)*", &["a", "b", "c"]).state_count(), 3);
    }

    /// Every state reachable from `from`, `from` first.
    fn reach(p: &CompiledPath, from: u32, symbols: u16) -> Vec<u32> {
        let mut seen = vec![from];
        let mut i = 0;
        while let Some(&s) = seen.get(i) {
            for t in (0..symbols).filter_map(|sym| p.step(s, ProcName::new(sym))) {
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
            i += 1;
        }
        seen
    }

    #[test]
    fn every_reachable_state_reaches_acceptance() {
        let abcd = &["a", "b", "c", "d"];
        for src in ["a", "(a;b)*", "a+ ; (b | c)?", "((a;b)+ ; c)* | d", "(a | b)* ; a ; b"] {
            let p = compile(src, abcd);
            let reachable = reach(&p, p.start(), 4);
            assert_eq!(reachable.len(), p.state_count(), "{src}: unreachable states");
            for s in reachable {
                let completes = reach(&p, s, 4).into_iter().any(|t| p.is_accepting(t));
                assert!(completes, "{src}: state {s} cannot complete");
            }
        }
    }

    #[test]
    fn blow_up_expression_hits_the_state_cap() {
        // The k-th symbol from the end is an `a`: 2^k states.
        let src = format!("(a | b)* ; a{}", " ; (a | b)".repeat(12));
        let p = PathExpr::parse(&src).unwrap();
        let started = std::time::Instant::now();
        assert_eq!(p.compile(resolver(&["a", "b"])).unwrap_err(), PathError::TooManyStates);
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        // One fewer doubling stays under the cap and compiles.
        let src = format!("(a | b)* ; a{}", " ; (a | b)".repeat(8));
        let p = PathExpr::parse(&src).unwrap().compile(resolver(&["a", "b"])).unwrap();
        assert_eq!(p.state_count(), 512);
    }

    #[test]
    fn procedures_past_the_table_have_no_transition() {
        let p = compile("(request ; release)*", RR);
        let mut t = p.tracker();
        for proc_name in [ProcName::new(2), ProcName::new(u16::MAX)] {
            assert!(!t.allows(proc_name));
            assert_eq!(t.advance(proc_name), Err(OrderViolation { proc_name }));
        }
        assert!(t.advance(ProcName::new(0)).is_ok());
        // A declared procedure the expression never names: no column.
        let p = compile("a", &["a", "b"]);
        assert_eq!(p.step(p.start(), ProcName::new(1)), None);
    }
}
