//! Static analysis of monitor specifications — the `speclint` pass.
//!
//! The augmented monitor construct (§3–§4 of the paper) makes the
//! user-declared spec — class, procedure/condition roles, `Rmax`, and
//! the path-expression call order — the *sole* static input to
//! detection. A malformed declaration therefore yields garbage verdicts
//! silently: an allocator whose path never releases, an assertion that
//! can never hold against the declared capacity, a path naming a
//! procedure that does not exist. This module checks a
//! [`MonitorSpec`] (and whole fleets of them)
//! *before* any instrumentation runs, in the spirit of specification
//! languages (CSP_E) and monitor-description optimizers (detectEr) that
//! lean on static analysis of the monitor description to make runtime
//! verdicts trustworthy.
//!
//! Every finding is a coded, severity-ranked [`Diagnostic`]
//! (`RML001`–`RML043`, see `docs/DIAGNOSTICS.md` for the full
//! catalogue): [`Severity::Error`] means detection over this spec is
//! meaningless or inevitably violating, [`Severity::Warn`] means a
//! likely declaration mistake, [`Severity::Lint`] is a style/coverage
//! nudge. [`analyze`] checks one spec; [`analyze_fleet`] adds the
//! cross-monitor checks a `DetectionService` namespace needs (name
//! collisions, paired-coordinator capacity drift).
//!
//! The Error level gates construction in two places: the
//! [`monitor_spec!`](crate::monitor_spec) macro (via
//! [`build_checked`](super::build_checked)) and
//! [`DetectorConfig::strict_specs`](crate::DetectorConfig) at detector
//! registration.

use crate::assertion::StateAssertion;
use crate::path::{Node, PathExpr};
use crate::spec::{CondRole, MonitorClass, MonitorSpec, ProcRole};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// How bad a diagnostic is. Ordered: `Lint < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style / coverage nudge; detection still works as declared.
    Lint,
    /// Likely declaration mistake; detection runs but may be blind or
    /// noisy in the flagged respect.
    Warn,
    /// The spec is self-contradictory or guarantees wrong verdicts;
    /// strict gates reject it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Lint => "lint",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

macro_rules! diag_codes {
    ($( $variant:ident = ($code:literal, $sev:ident, $title:literal), )+) => {
        /// Machine-readable diagnostic codes, `RMLxxx`. Severity and a
        /// one-line title are fixed per code; `docs/DIAGNOSTICS.md`
        /// catalogues rationale, examples and fixes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // the titles below are the docs
        pub enum DiagCode {
            $( #[doc = $title] $variant, )+
        }

        impl DiagCode {
            /// The `RMLxxx` code string.
            pub fn as_str(self) -> &'static str {
                match self { $( DiagCode::$variant => $code, )+ }
            }

            /// The fixed severity of this code.
            pub fn severity(self) -> Severity {
                match self { $( DiagCode::$variant => Severity::$sev, )+ }
            }

            /// One-line description of what the code flags.
            pub fn title(self) -> &'static str {
                match self { $( DiagCode::$variant => $title, )+ }
            }

            /// Every defined code, in catalogue order.
            pub fn all() -> &'static [DiagCode] {
                &[ $( DiagCode::$variant, )+ ]
            }
        }
    };
}

diag_codes! {
    DuplicateProc = ("RML001", Error, "duplicate procedure name"),
    DuplicateCond = ("RML002", Error, "duplicate condition name"),
    PathUnknownProc = ("RML010", Error, "call order names an undeclared procedure"),
    PathUnreachableProc = ("RML011", Warn, "declared procedure is unreachable in the call order"),
    PathUnreleasedCompletion =
        ("RML013", Warn, "call order admits a completed sequence holding unreleased rights"),
    PathReleaseBeforeRequest =
        ("RML014", Warn, "call order admits a release before any matching request"),
    PathDuplicateAlt = ("RML015", Lint, "call order has redundant duplicate alternatives"),
    PathSyntax = ("RML016", Error, "call order does not parse or compile"),
    CoordinatorRoles = ("RML020", Error, "communication coordinator lacks Send/Receive roles"),
    CoordinatorCapacity = ("RML021", Error, "communication coordinator has no usable capacity"),
    AllocatorRoles = ("RML022", Warn, "resource allocator has unbalanced Request/Release roles"),
    AllocatorBufferCond = ("RML023", Warn, "resource allocator declares a buffer condition role"),
    AllocatorNoCapacity =
        ("RML024", Lint, "allocator waits on unit availability without a declared capacity"),
    ManagerMachinery =
        ("RML025", Lint, "operation manager declares coordinator/allocator machinery"),
    CoordinatorNoWaitConds =
        ("RML026", Lint, "communication coordinator declares no buffer wait conditions"),
    AssertUnsatisfiable = ("RML030", Error, "assertion can never hold against the declared Rmax"),
    AssertVacuous = ("RML031", Lint, "assertion is implied by the declared Rmax"),
    AssertUnknownCond = ("RML032", Error, "assertion references an undeclared condition"),
    AssertNoCounter =
        ("RML033", Warn, "resource-counter assertion on a monitor without a capacity"),
    FleetNameCollision =
        ("RML040", Error, "fleet name bound to structurally different specs"),
    FleetCapacityMismatch = ("RML041", Warn, "paired coordinator specs disagree on capacity"),
    FleetUnresolved = ("RML042", Warn, "registered monitor name resolves to no known spec"),
    FleetDuplicateRegistration =
        ("RML043", Lint, "same monitor name registered more than once in one epoch"),
}

/// One analyzer finding: a code (which fixes the severity), the monitor
/// it is about, a human message, and machine-readable key/value
/// context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The `RMLxxx` code.
    pub code: DiagCode,
    /// Name of the monitor the finding is about (fleet-level findings
    /// use the colliding name).
    pub monitor: String,
    /// Human-readable description of this particular finding.
    pub message: String,
    /// Machine-readable context pairs, e.g. `("procedure", "release")`.
    pub context: Vec<(String, String)>,
}

impl Diagnostic {
    fn new(code: DiagCode, monitor: &str, message: String) -> Self {
        Diagnostic { code, monitor: monitor.to_string(), message, context: Vec::new() }
    }

    fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.context.push((key.to_string(), value.to_string()));
        self
    }

    /// The severity of this finding (fixed by its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] {}",
            self.code.as_str(),
            self.severity(),
            self.monitor,
            self.message
        )?;
        for (k, v) in &self.context {
            write!(f, " ({k}={v})")?;
        }
        Ok(())
    }
}

/// The outcome of a lint pass: every diagnostic, severity-ranked
/// (errors first, then warns, then lints — stable within a severity).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    fn from(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity()));
        LintReport { diagnostics }
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any Error-level finding is present (strict gates reject).
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// The most severe finding's severity, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity()).max()
    }

    /// Findings of exactly the given severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity() == severity)
    }

    /// Merges another report into this one, keeping the severity order.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity()));
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "spec lint: clean");
        }
        writeln!(f, "spec lint: {} finding(s)", self.diagnostics.len())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Runs every single-spec check over one declaration.
///
/// # Examples
///
/// ```
/// use rmon_core::{analyze, MonitorSpec};
///
/// let good = MonitorSpec::allocator("printer", 1);
/// assert!(analyze(&good.spec).is_clean());
/// ```
pub fn analyze(spec: &MonitorSpec) -> LintReport {
    let mut out = Vec::new();
    check_duplicates(spec, &mut out);
    check_class_roles(spec, &mut out);
    check_assertions(spec, &mut out);
    check_call_order(spec, &mut out);
    LintReport::from(out)
}

// ---------------------------------------------------------------------
// Duplicates (RML001/002)
// ---------------------------------------------------------------------

/// Just the duplicate-name checks, for
/// [`MonitorSpecBuilder::try_build`](super::MonitorSpecBuilder::try_build).
pub(crate) fn duplicate_name_report(spec: &MonitorSpec) -> LintReport {
    let mut out = Vec::new();
    check_duplicates(spec, &mut out);
    LintReport::from(out)
}

fn check_duplicates(spec: &MonitorSpec, out: &mut Vec<Diagnostic>) {
    let mut seen: HashSet<&str> = HashSet::new();
    for p in &spec.procedures {
        if !seen.insert(&p.name) {
            out.push(
                Diagnostic::new(
                    DiagCode::DuplicateProc,
                    &spec.name,
                    format!(
                        "procedure {:?} is declared more than once; \
                         name-based resolution (call orders, replay) is ambiguous",
                        p.name
                    ),
                )
                .with("procedure", &p.name),
            );
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for c in &spec.conditions {
        if !seen.insert(&c.name) {
            out.push(
                Diagnostic::new(
                    DiagCode::DuplicateCond,
                    &spec.name,
                    format!("condition {:?} is declared more than once", c.name),
                )
                .with("condition", &c.name),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Class / role consistency (RML02x)
// ---------------------------------------------------------------------

fn check_class_roles(spec: &MonitorSpec, out: &mut Vec<Diagnostic>) {
    let role = |r: ProcRole| spec.procedures.iter().filter(|p| p.role == r).count();
    let cond = |r: CondRole| spec.conditions.iter().filter(|c| c.role == r).count();
    match spec.class {
        MonitorClass::CommunicationCoordinator => {
            if role(ProcRole::Send) == 0 || role(ProcRole::Receive) == 0 {
                out.push(
                    Diagnostic::new(
                        DiagCode::CoordinatorRoles,
                        &spec.name,
                        format!(
                            "a communication coordinator needs both a Send and a Receive \
                             procedure for the ST-7 integrity checks; found {} Send, {} Receive",
                            role(ProcRole::Send),
                            role(ProcRole::Receive)
                        ),
                    )
                    .with("send", role(ProcRole::Send))
                    .with("receive", role(ProcRole::Receive)),
                );
            }
            match spec.capacity {
                None | Some(0) => out.push(
                    Diagnostic::new(
                        DiagCode::CoordinatorCapacity,
                        &spec.name,
                        format!(
                            "buffer capacity is {}; every Send would overflow and the \
                             R#-conservation checks (ST-7a/b) are meaningless",
                            match spec.capacity {
                                None => "undeclared".to_string(),
                                Some(n) => n.to_string(),
                            }
                        ),
                    )
                    .with("capacity", format!("{:?}", spec.capacity)),
                ),
                Some(_) => {}
            }
            if cond(CondRole::BufferFull) == 0 && cond(CondRole::BufferEmpty) == 0 {
                out.push(Diagnostic::new(
                    DiagCode::CoordinatorNoWaitConds,
                    &spec.name,
                    "no BufferFull/BufferEmpty condition declared: the blocked-sender/receiver \
                     checks (ST-7c/d) cannot apply"
                        .to_string(),
                ));
            }
        }
        MonitorClass::ResourceAllocator => {
            let (rq, rl) = (role(ProcRole::Request), role(ProcRole::Release));
            if (rq == 0) != (rl == 0) || rq == 0 {
                out.push(
                    Diagnostic::new(
                        DiagCode::AllocatorRoles,
                        &spec.name,
                        format!(
                            "an allocator should declare both Request and Release procedures \
                             (ST-8 tracks the Request-List); found {rq} Request, {rl} Release"
                        ),
                    )
                    .with("request", rq)
                    .with("release", rl),
                );
            }
            let buffers = cond(CondRole::BufferFull) + cond(CondRole::BufferEmpty);
            if buffers > 0 {
                out.push(
                    Diagnostic::new(
                        DiagCode::AllocatorBufferCond,
                        &spec.name,
                        "BufferFull/BufferEmpty condition roles are coordinator machinery; \
                         on an allocator the ST-7c/d checks they enable never apply"
                            .to_string(),
                    )
                    .with("buffer_conds", buffers),
                );
            }
            if spec.capacity.is_none() && cond(CondRole::UnitAvailable) > 0 {
                out.push(Diagnostic::new(
                    DiagCode::AllocatorNoCapacity,
                    &spec.name,
                    "a UnitAvailable condition is declared but no capacity: the R# counter the \
                     availability checks compare against does not exist"
                        .to_string(),
                ));
            }
        }
        MonitorClass::OperationManager => {
            let machinery = role(ProcRole::Send)
                + role(ProcRole::Receive)
                + role(ProcRole::Request)
                + role(ProcRole::Release);
            if machinery > 0 || spec.capacity.is_some() {
                out.push(
                    Diagnostic::new(
                        DiagCode::ManagerMachinery,
                        &spec.name,
                        format!(
                            "operation managers are checked by the general rules only \
                             (ST-1..6); {machinery} coordinator/allocator role(s) and \
                             capacity {:?} suggest the class is wrong",
                            spec.capacity
                        ),
                    )
                    .with("special_roles", machinery),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Assertion satisfiability (RML03x)
// ---------------------------------------------------------------------

fn check_assertions(spec: &MonitorSpec, out: &mut Vec<Diagnostic>) {
    for a in &spec.assertions {
        match *a {
            StateAssertion::AvailableAtLeast(n) => match spec.capacity {
                Some(rmax) if n > rmax => out.push(
                    Diagnostic::new(
                        DiagCode::AssertUnsatisfiable,
                        &spec.name,
                        format!(
                            "assertion {a} can never pass a checkpoint: R# starts at \
                             Rmax = {rmax} and ST-7a forbids exceeding it"
                        ),
                    )
                    .with("assertion", a)
                    .with("rmax", rmax),
                ),
                Some(_) => {}
                None => out.push(no_counter(spec, a)),
            },
            StateAssertion::AvailableAtMost(n) => match spec.capacity {
                Some(rmax) if n >= rmax => out.push(
                    Diagnostic::new(
                        DiagCode::AssertVacuous,
                        &spec.name,
                        format!(
                            "assertion {a} is implied by Rmax = {rmax}: the built-in ST-7a \
                             check already reports any state with R# > Rmax"
                        ),
                    )
                    .with("assertion", a)
                    .with("rmax", rmax),
                ),
                Some(_) => {}
                None => out.push(no_counter(spec, a)),
            },
            StateAssertion::CondQueueAtMost { cond, .. } => {
                if cond.as_usize() >= spec.conditions.len() {
                    out.push(
                        Diagnostic::new(
                            DiagCode::AssertUnknownCond,
                            &spec.name,
                            format!(
                                "assertion {a} references condition index {} but only {} \
                                 condition(s) are declared",
                                cond.as_usize(),
                                spec.conditions.len()
                            ),
                        )
                        .with("cond_index", cond.as_usize()),
                    );
                }
            }
            StateAssertion::EntryQueueAtMost(_)
            | StateAssertion::PopulationAtMost(_)
            | StateAssertion::ExcludesPid(_) => {}
        }
    }
}

fn no_counter(spec: &MonitorSpec, a: &StateAssertion) -> Diagnostic {
    Diagnostic::new(
        DiagCode::AssertNoCounter,
        &spec.name,
        format!(
            "assertion {a} is over the resource counter R#, but the spec declares no \
             capacity — the assertion is never evaluated"
        ),
    )
    .with("assertion", a)
}

// ---------------------------------------------------------------------
// Call-order analysis (RML01x)
// ---------------------------------------------------------------------

fn check_call_order(spec: &MonitorSpec, out: &mut Vec<Diagnostic>) {
    let Some(order) = &spec.call_order else { return };

    // RML010: names in the path that are not declared procedures.
    let mut unknown = false;
    for name in order.names() {
        if spec.proc_by_name(name).is_none() {
            unknown = true;
            out.push(
                Diagnostic::new(
                    DiagCode::PathUnknownProc,
                    &spec.name,
                    format!(
                        "call order {:?} names {name:?}, which is not a declared procedure; \
                         the order can never be tracked",
                        order.source()
                    ),
                )
                .with("procedure", name),
            );
        }
    }

    // RML011: declared procedures the order never allows — every call
    // to one is an immediate ST-8 order violation.
    let in_path: HashSet<&str> = order.names().into_iter().collect();
    for p in &spec.procedures {
        if !in_path.contains(p.name.as_str()) {
            out.push(
                Diagnostic::new(
                    DiagCode::PathUnreachableProc,
                    &spec.name,
                    format!(
                        "procedure {:?} is declared but unreachable in the call order: \
                         every call to it violates the declared order",
                        p.name
                    ),
                )
                .with("procedure", &p.name),
            );
        }
    }

    // RML015: structurally identical alternative branches.
    check_duplicate_alts(spec, order, out);

    // Role-balance analysis over the AST (exact for max/min because
    // alternation choices are independent): RML013/RML014.
    check_balance(spec, order, out);

    // RML016: the order parses but does not compile to a table —
    // today only past the state cap; RML010 already covers unknown
    // names.
    if !unknown {
        if let Err(e) = order.compile(|n| spec.proc_by_name(n)) {
            out.push(
                Diagnostic::new(
                    DiagCode::PathSyntax,
                    &spec.name,
                    format!("call order does not compile: {e}; the order can never be tracked"),
                )
                .with("source", order.source()),
            );
        }
    }
}

fn check_duplicate_alts(spec: &MonitorSpec, order: &PathExpr, out: &mut Vec<Diagnostic>) {
    fn walk(node: &Node, spec: &MonitorSpec, order: &PathExpr, out: &mut Vec<Diagnostic>) {
        match node {
            Node::Alt(v) => {
                for (i, a) in v.iter().enumerate() {
                    if v[..i].contains(a) {
                        out.push(
                            Diagnostic::new(
                                DiagCode::PathDuplicateAlt,
                                &spec.name,
                                format!(
                                    "call order {:?} repeats an identical alternative branch; \
                                     the duplicate adds states but no behaviour",
                                    order.source()
                                ),
                            )
                            .with("branch", i),
                        );
                    }
                }
                v.iter().for_each(|c| walk(c, spec, order, out));
            }
            Node::Seq(v) => v.iter().for_each(|c| walk(c, spec, order, out)),
            Node::Star(c) | Node::Plus(c) | Node::Opt(c) => walk(c, spec, order, out),
            Node::Name(_) => {}
        }
    }
    walk(order.ast(), spec, order, out);
}

/// Request/Release balance envelope of a path sub-expression:
/// the achievable range of the *end* balance over complete matches and
/// the achievable minimum over all *prefixes* of complete matches.
/// `i64::MIN`/`i64::MAX` stand for −∞/+∞ (a pumpable loop).
#[derive(Clone, Copy)]
struct Balance {
    end_lo: i64,
    end_hi: i64,
    pre_lo: i64,
}

const NEG_INF: i64 = i64::MIN;
const POS_INF: i64 = i64::MAX;

fn sat_add(a: i64, b: i64) -> i64 {
    if a == NEG_INF || b == NEG_INF {
        NEG_INF
    } else if a == POS_INF || b == POS_INF {
        POS_INF
    } else {
        a + b
    }
}

fn balance_of(node: &Node, delta: &impl Fn(&str) -> i64) -> Balance {
    match node {
        Node::Name(n) => {
            let d = delta(n);
            Balance { end_lo: d, end_hi: d, pre_lo: d.min(0) }
        }
        Node::Seq(v) => {
            let mut acc = Balance { end_lo: 0, end_hi: 0, pre_lo: 0 };
            for child in v {
                let c = balance_of(child, delta);
                acc = Balance {
                    pre_lo: acc.pre_lo.min(sat_add(acc.end_lo, c.pre_lo)),
                    end_lo: sat_add(acc.end_lo, c.end_lo),
                    end_hi: sat_add(acc.end_hi, c.end_hi),
                };
            }
            acc
        }
        Node::Alt(v) => {
            let mut it = v.iter().map(|c| balance_of(c, delta));
            let first = it.next().expect("Alt has at least one child");
            it.fold(first, |a, b| Balance {
                end_lo: a.end_lo.min(b.end_lo),
                end_hi: a.end_hi.max(b.end_hi),
                pre_lo: a.pre_lo.min(b.pre_lo),
            })
        }
        Node::Star(c) | Node::Plus(c) => {
            let b = balance_of(c, delta);
            let once = matches!(node, Node::Plus(_));
            Balance {
                end_lo: if b.end_lo < 0 {
                    NEG_INF
                } else if once {
                    b.end_lo
                } else {
                    0
                },
                end_hi: if b.end_hi > 0 {
                    POS_INF
                } else if once {
                    b.end_hi
                } else {
                    0
                },
                pre_lo: if b.end_lo < 0 { NEG_INF } else { b.pre_lo.min(0) },
            }
        }
        Node::Opt(c) => {
            let b = balance_of(c, delta);
            Balance { end_lo: b.end_lo.min(0), end_hi: b.end_hi.max(0), pre_lo: b.pre_lo.min(0) }
        }
    }
}

fn check_balance(spec: &MonitorSpec, order: &PathExpr, out: &mut Vec<Diagnostic>) {
    let has_rights =
        spec.procedures.iter().any(|p| matches!(p.role, ProcRole::Request | ProcRole::Release));
    if !has_rights {
        return;
    }
    let delta = |name: &str| -> i64 {
        match spec.proc_by_name(name).map(|p| spec.proc_role(p)) {
            Some(ProcRole::Request) => 1,
            Some(ProcRole::Release) => -1,
            _ => 0,
        }
    };
    let b = balance_of(order.ast(), &delta);
    if b.end_hi > 0 {
        out.push(
            Diagnostic::new(
                DiagCode::PathUnreleasedCompletion,
                &spec.name,
                format!(
                    "call order {:?} accepts a completed call sequence with {} more Request \
                     than Release calls: a process can terminate holding access rights \
                     without ever violating the declared order",
                    order.source(),
                    if b.end_hi == POS_INF {
                        "unboundedly".to_string()
                    } else {
                        b.end_hi.to_string()
                    }
                ),
            )
            .with(
                "max_unreleased",
                if b.end_hi == POS_INF { "inf".into() } else { b.end_hi.to_string() },
            ),
        );
    }
    if b.pre_lo < 0 {
        out.push(
            Diagnostic::new(
                DiagCode::PathReleaseBeforeRequest,
                &spec.name,
                format!(
                    "call order {:?} permits a Release before any matching Request: the \
                     declared order and the ST-8 Request-List checks contradict each other",
                    order.source()
                ),
            )
            .with(
                "min_prefix_balance",
                if b.pre_lo == NEG_INF { "-inf".into() } else { b.pre_lo.to_string() },
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Fleet-level checks (RML04x)
// ---------------------------------------------------------------------

/// One monitor registration as a fleet sees it: the name it resolves by
/// and the spec that name resolved to (`None` when resolution failed).
pub type FleetEntry = (String, Option<Arc<MonitorSpec>>);

/// Cross-monitor checks over one registration namespace (a
/// `DetectionService` fleet, one spec file, or one journal epoch):
///
/// * **RML040** — one name bound to structurally different specs:
///   name-based resolution (journal replay, service renaming) would
///   silently check the wrong declaration for one of them.
/// * **RML041** — the special case of paired communication
///   coordinators that differ *only* in capacity (config drift between
///   the two ends of a channel).
/// * **RML042** — names that resolved to no spec: those monitors are
///   not checked at all.
/// * **RML043** — the same name registered more than once with an
///   identical spec (legal, but worth an eyebrow in one namespace).
pub fn analyze_fleet<I>(entries: I) -> LintReport
where
    I: IntoIterator<Item = FleetEntry>,
{
    let mut out = Vec::new();
    let mut by_name: BTreeMap<String, Vec<Option<Arc<MonitorSpec>>>> = BTreeMap::new();
    for (name, spec) in entries {
        by_name.entry(name).or_default().push(spec);
    }
    for (name, specs) in &by_name {
        let resolved: Vec<&Arc<MonitorSpec>> = specs.iter().flatten().collect();
        let unresolved = specs.len() - resolved.len();
        if unresolved > 0 {
            out.push(
                Diagnostic::new(
                    DiagCode::FleetUnresolved,
                    name,
                    format!(
                        "{unresolved} registration(s) of {name:?} resolve to no known spec; \
                         those monitors are not checked"
                    ),
                )
                .with("unresolved", unresolved),
            );
        }
        if let Some(first) = resolved.first() {
            for other in &resolved[1..] {
                if specs_equivalent(first, other) {
                    continue;
                }
                if capacity_only_mismatch(first, other) {
                    out.push(
                        Diagnostic::new(
                            DiagCode::FleetCapacityMismatch,
                            name,
                            format!(
                                "paired coordinator specs for {name:?} declare different \
                                 capacities ({:?} vs {:?}): the two ends of the channel \
                                 disagree on Rmax and one side's ST-7 verdicts are wrong",
                                first.capacity, other.capacity
                            ),
                        )
                        .with("capacity_a", format!("{:?}", first.capacity))
                        .with("capacity_b", format!("{:?}", other.capacity)),
                    );
                } else {
                    out.push(Diagnostic::new(
                        DiagCode::FleetNameCollision,
                        name,
                        format!(
                            "name {name:?} is bound to structurally different specs; \
                             name-based resolution (replay, service renaming) will check \
                             the wrong declaration for one of them"
                        ),
                    ));
                }
            }
            if resolved.len() > 1
                && resolved[1..].iter().all(|other| specs_equivalent(first, other))
            {
                out.push(
                    Diagnostic::new(
                        DiagCode::FleetDuplicateRegistration,
                        name,
                        format!(
                            "{} registrations of {name:?} share one namespace; replay \
                             resolves them to the same declaration (fine if intended)",
                            resolved.len()
                        ),
                    )
                    .with("count", resolved.len()),
                );
            }
        }
    }
    LintReport::from(out)
}

fn specs_equivalent(a: &MonitorSpec, b: &MonitorSpec) -> bool {
    a.class == b.class
        && a.capacity == b.capacity
        && a.procedures == b.procedures
        && a.conditions == b.conditions
        && a.call_order == b.call_order
}

fn capacity_only_mismatch(a: &MonitorSpec, b: &MonitorSpec) -> bool {
    a.class == MonitorClass::CommunicationCoordinator
        && b.class == MonitorClass::CommunicationCoordinator
        && a.capacity != b.capacity
        && a.procedures == b.procedures
        && a.conditions == b.conditions
        && a.call_order == b.call_order
}

/// Convenience: per-spec [`analyze`] over every resolved entry plus the
/// fleet-level checks, in one report. What `rmon-lint` runs over a spec
/// file and what [`DetectionService::lint_fleet`] runs over a live
/// fleet.
///
/// [`DetectionService::lint_fleet`]: https://docs.rs/rmon-net
pub fn analyze_all<I>(entries: I) -> LintReport
where
    I: IntoIterator<Item = FleetEntry>,
{
    let entries: Vec<FleetEntry> = entries.into_iter().collect();
    let mut seen: HashMap<*const MonitorSpec, ()> = HashMap::new();
    let mut report = LintReport::default();
    for (_, spec) in &entries {
        if let Some(spec) = spec {
            // Lint each distinct declaration once even when many
            // registrations share one `Arc`.
            if seen.insert(Arc::as_ptr(spec), ()).is_none() {
                report.merge(analyze(spec));
            }
        }
    }
    report.merge(analyze_fleet(entries));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::StateAssertion;
    use crate::ids::CondId;
    use crate::spec::{CondSpec, ProcedureSpec};

    fn codes(report: &LintReport) -> Vec<DiagCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn raw_allocator(order: &str) -> MonitorSpec {
        MonitorSpec {
            name: "al".into(),
            class: MonitorClass::ResourceAllocator,
            procedures: vec![
                ProcedureSpec { name: "request".into(), role: ProcRole::Request },
                ProcedureSpec { name: "release".into(), role: ProcRole::Release },
            ],
            conditions: vec![CondSpec { name: "unit".into(), role: CondRole::UnitAvailable }],
            capacity: Some(1),
            call_order: Some(PathExpr::parse(order).unwrap()),
            assertions: Vec::new(),
        }
    }

    #[test]
    fn canonical_specs_are_clean() {
        assert!(analyze(&MonitorSpec::bounded_buffer("b", 4).spec).is_clean());
        assert!(analyze(&MonitorSpec::allocator("a", 2).spec).is_clean());
        assert!(analyze(&MonitorSpec::operation_manager("m").spec).is_clean());
    }

    #[test]
    fn duplicate_procedure_and_condition_names() {
        let mut spec = MonitorSpec::operation_manager("m").spec;
        spec.procedures.push(ProcedureSpec { name: "operate".into(), role: ProcRole::Plain });
        spec.conditions.push(CondSpec { name: "c".into(), role: CondRole::Plain });
        spec.conditions.push(CondSpec { name: "c".into(), role: CondRole::Plain });
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::DuplicateProc));
        assert!(codes(&report).contains(&DiagCode::DuplicateCond));
        assert!(report.has_errors());
    }

    #[test]
    fn coordinator_missing_roles_and_capacity() {
        let spec = MonitorSpec {
            name: "c".into(),
            class: MonitorClass::CommunicationCoordinator,
            procedures: vec![ProcedureSpec { name: "send".into(), role: ProcRole::Send }],
            conditions: Vec::new(),
            capacity: Some(0),
            call_order: None,
            assertions: Vec::new(),
        };
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::CoordinatorRoles));
        assert!(codes(&report).contains(&DiagCode::CoordinatorCapacity));
        assert!(codes(&report).contains(&DiagCode::CoordinatorNoWaitConds));
    }

    #[test]
    fn allocator_role_and_condition_checks() {
        let mut spec = raw_allocator("request*");
        spec.procedures.remove(1); // drop release
        spec.conditions[0].role = CondRole::BufferFull;
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::AllocatorRoles));
        assert!(codes(&report).contains(&DiagCode::AllocatorBufferCond));
    }

    #[test]
    fn allocator_unit_cond_without_capacity() {
        let mut spec = raw_allocator("(request ; release)*");
        spec.capacity = None;
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::AllocatorNoCapacity));
        assert!(!report.has_errors());
    }

    #[test]
    fn manager_with_machinery_is_linted() {
        let mut spec = MonitorSpec::operation_manager("m").spec;
        spec.capacity = Some(3);
        let report = analyze(&spec);
        assert_eq!(codes(&report), vec![DiagCode::ManagerMachinery]);
        assert_eq!(report.worst(), Some(Severity::Lint));
    }

    #[test]
    fn assertion_satisfiability_against_rmax() {
        let mut spec = MonitorSpec::allocator("a", 2).spec;
        spec.assertions.push(StateAssertion::AvailableAtLeast(3)); // > Rmax: impossible
        spec.assertions.push(StateAssertion::AvailableAtLeast(2)); // == Rmax: fine
        spec.assertions.push(StateAssertion::AvailableAtMost(2)); // implied by ST-7a
        spec.assertions.push(StateAssertion::AvailableAtMost(1)); // meaningful reserve cap
        let report = analyze(&spec);
        assert_eq!(codes(&report), vec![DiagCode::AssertUnsatisfiable, DiagCode::AssertVacuous]);
    }

    #[test]
    fn assertion_on_unknown_condition_and_missing_counter() {
        let mut spec = MonitorSpec::operation_manager("m").spec;
        spec.assertions.push(StateAssertion::CondQueueAtMost { cond: CondId::new(5), at_most: 1 });
        spec.assertions.push(StateAssertion::AvailableAtLeast(1));
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::AssertUnknownCond));
        assert!(codes(&report).contains(&DiagCode::AssertNoCounter));
    }

    #[test]
    fn path_unknown_and_unreachable_procedures() {
        let mut spec = raw_allocator("(request ; free)*");
        spec.call_order = Some(PathExpr::parse("(request ; free)*").unwrap());
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::PathUnknownProc));
        // `release` is declared but never appears in the order.
        assert!(codes(&report).contains(&DiagCode::PathUnreachableProc));
    }

    #[test]
    fn path_unreleased_completion() {
        let spec = raw_allocator("request ; release? ");
        let report = analyze(&spec);
        assert!(codes(&report).contains(&DiagCode::PathUnreleasedCompletion), "{report}");
        // Balanced order: clean.
        assert!(analyze(&raw_allocator("(request ; release)*")).is_clean());
    }

    #[test]
    fn path_release_before_request() {
        let spec = raw_allocator("release ; request");
        let report = analyze(&spec);
        // Ends balanced (one release, one request) so RML013 stays
        // quiet; the inverted prefix is the finding.
        assert_eq!(codes(&report), vec![DiagCode::PathReleaseBeforeRequest], "{report}");
    }

    #[test]
    fn balance_interval_handles_loops_and_alternation() {
        // Pumpable surplus: (request)* can end +inf held.
        let r = analyze(&raw_allocator("request* ; release?"));
        assert!(codes(&r).contains(&DiagCode::PathUnreleasedCompletion));
        // Alternation where both branches balance: clean.
        let r = analyze(&raw_allocator(
            "((request ; release) | (request ; release ; request ; release))*",
        ));
        assert!(!codes(&r).contains(&DiagCode::PathDuplicateAlt), "{r}");
        assert!(!codes(&r).contains(&DiagCode::PathUnreleasedCompletion), "{r}");
    }

    #[test]
    fn duplicate_alternatives_are_linted() {
        let report = analyze(&raw_allocator("((request ; release) | (request ; release))*"));
        assert_eq!(codes(&report), vec![DiagCode::PathDuplicateAlt]);
    }

    #[test]
    fn order_past_the_state_cap_is_rml016() {
        // The 13th call from the end is a request: 2^13 table states.
        let blow_up =
            format!("(request | release)* ; request{}", " ; (request | release)".repeat(12));
        let report = analyze(&raw_allocator(&blow_up));
        let found: Vec<_> =
            report.diagnostics.iter().filter(|d| d.code == DiagCode::PathSyntax).collect();
        assert_eq!(found.len(), 1, "{report}");
        assert!(found[0].message.contains("1024 automaton states"), "{report}");
        assert!(report.has_errors());
        // The canonical order compiles, so the code stays silent.
        let ok = analyze(&raw_allocator("(request ; release)*"));
        assert!(!codes(&ok).contains(&DiagCode::PathSyntax), "{ok}");
    }

    #[test]
    fn fleet_collision_capacity_and_duplicates() {
        let a = Arc::new(MonitorSpec::bounded_buffer("mailbox", 4).spec);
        let b = Arc::new(MonitorSpec::bounded_buffer("mailbox", 8).spec);
        let c = Arc::new(MonitorSpec::allocator("mailbox", 1).spec);
        // Capacity-only drift between paired coordinators.
        let r = analyze_fleet(vec![
            ("mailbox".to_string(), Some(Arc::clone(&a))),
            ("mailbox".to_string(), Some(Arc::clone(&b))),
        ]);
        assert_eq!(codes(&r), vec![DiagCode::FleetCapacityMismatch]);
        // Structurally different: collision.
        let r = analyze_fleet(vec![
            ("mailbox".to_string(), Some(Arc::clone(&a))),
            ("mailbox".to_string(), Some(c)),
        ]);
        assert_eq!(codes(&r), vec![DiagCode::FleetNameCollision]);
        // Identical duplicate: lint only.
        let r = analyze_fleet(vec![
            ("mailbox".to_string(), Some(Arc::clone(&a))),
            ("mailbox".to_string(), Some(a)),
        ]);
        assert_eq!(codes(&r), vec![DiagCode::FleetDuplicateRegistration]);
    }

    #[test]
    fn fleet_unresolved_names_are_flagged() {
        let r = analyze_fleet(vec![("ghost".to_string(), None)]);
        assert_eq!(codes(&r), vec![DiagCode::FleetUnresolved]);
        assert_eq!(r.worst(), Some(Severity::Warn));
    }

    #[test]
    fn analyze_all_merges_spec_and_fleet_findings() {
        let mut bad = MonitorSpec::bounded_buffer("b", 4).spec;
        bad.capacity = Some(0);
        let bad = Arc::new(bad);
        let r = analyze_all(vec![
            ("b".to_string(), Some(Arc::clone(&bad))),
            ("b".to_string(), Some(bad)),
        ]);
        assert!(codes(&r).contains(&DiagCode::CoordinatorCapacity));
        assert!(codes(&r).contains(&DiagCode::FleetDuplicateRegistration));
        // The shared Arc is linted once, not twice.
        assert_eq!(
            r.diagnostics.iter().filter(|d| d.code == DiagCode::CoordinatorCapacity).count(),
            1
        );
    }

    #[test]
    fn report_ordering_and_accessors() {
        let mut spec = MonitorSpec::operation_manager("m").spec;
        spec.capacity = Some(1); // lint
        spec.procedures.push(ProcedureSpec { name: "operate".into(), role: ProcRole::Plain }); // error
        let report = analyze(&spec);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity(), Severity::Error);
        assert_eq!(report.at(Severity::Lint).count(), 1);
        assert!(report.to_string().contains("RML001"));
    }

    #[test]
    fn code_table_is_consistent() {
        let mut seen = HashSet::new();
        for &code in DiagCode::all() {
            assert!(seen.insert(code.as_str()), "duplicate code {}", code.as_str());
            assert!(code.as_str().starts_with("RML"));
            assert!(!code.title().is_empty());
        }
        assert_eq!(Severity::Error.max(Severity::Lint), Severity::Error);
    }
}
