//! Monitor specifications — the "visible part" of the augmented monitor
//! construct (§3 and §4 of the paper).
//!
//! The paper requires the user to declare, alongside the monitor body:
//! the monitor's *type* (communication coordinator, resource-access-right
//! allocator, or resource operation manager — §2.1), its procedures and
//! condition variables, the resource capacity `Rmax`, and the partial
//! ordering of procedure calls "in path-expression like notation".
//!
//! [`MonitorSpec`] captures exactly that declaration. The detector never
//! inspects procedure *bodies* (the paper's taxonomy deliberately covers
//! only the observable effects of procedures), so the spec is all the
//! static information it needs.

use crate::assertion::StateAssertion;
use crate::ids::{CondId, ProcName};
use crate::path::PathExpr;
use std::fmt;

pub mod analyze;
mod dsl;
pub mod textfmt;

pub use analyze::{analyze_all, analyze_fleet, DiagCode, Diagnostic, LintReport, Severity};

/// Functional classification of monitors (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorClass {
    /// Pairs of processes exchange data through a bounded buffer under
    /// the monitor's mutual exclusion (`Send` / `Receive`). Subject to
    /// the integrity constraints checked by Algorithm-2 (ST-7).
    CommunicationCoordinator,
    /// Processes compete for exclusive access rights (`Request` /
    /// `Release`); the monitor arbitrates but does not mediate use.
    /// Subject to the call-ordering constraints checked in real time by
    /// Algorithm-3 (ST-8).
    ResourceAllocator,
    /// The monitor encapsulates the resource and its operations; user
    /// processes issue single operations and synchronization is
    /// implicit. Only the general rules (ST-1..6) apply.
    OperationManager,
}

impl fmt::Display for MonitorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MonitorClass::CommunicationCoordinator => "communication-coordinator",
            MonitorClass::ResourceAllocator => "resource-access-right-allocator",
            MonitorClass::OperationManager => "resource-operation-manager",
        };
        f.write_str(s)
    }
}

/// Semantic role of a monitor procedure, used by the detection rules.
///
/// Roles decouple rule logic from procedure *names*: a communication
/// coordinator may call its procedures `put`/`take`, declaring them with
/// roles [`ProcRole::Send`] / [`ProcRole::Receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcRole {
    /// Deposits one item / consumes one free slot (ST-7 counts `s`).
    Send,
    /// Removes one item / frees one slot (ST-7 counts `r`).
    Receive,
    /// Acquires an access right (ST-8 appends to the Request-List).
    Request,
    /// Releases an access right (ST-8 removes from the Request-List).
    Release,
    /// No special bookkeeping.
    #[default]
    Plain,
}

impl fmt::Display for ProcRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcRole::Send => "send",
            ProcRole::Receive => "receive",
            ProcRole::Request => "request",
            ProcRole::Release => "release",
            ProcRole::Plain => "plain",
        };
        f.write_str(s)
    }
}

/// Semantic role of a condition variable, used by ST-7c/d.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CondRole {
    /// Senders wait here while the buffer is full (`R# = 0`).
    BufferFull,
    /// Receivers wait here while the buffer is empty (`R# = Rmax`).
    BufferEmpty,
    /// Requesters wait here while no unit is available.
    UnitAvailable,
    /// No special bookkeeping.
    #[default]
    Plain,
}

impl fmt::Display for CondRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CondRole::BufferFull => "buffer-full",
            CondRole::BufferEmpty => "buffer-empty",
            CondRole::UnitAvailable => "unit-available",
            CondRole::Plain => "plain",
        };
        f.write_str(s)
    }
}

/// Declaration of one monitor procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureSpec {
    /// Human-readable name, e.g. `"send"`.
    pub name: String,
    /// Semantic role used by the detection rules.
    pub role: ProcRole,
}

/// Declaration of one condition variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondSpec {
    /// Human-readable name, e.g. `"not_full"`.
    pub name: String,
    /// Semantic role used by ST-7c/d.
    pub role: CondRole,
}

/// The full static declaration of a monitor, as the augmented construct
/// of §4 requires.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSpec {
    /// Monitor name (for reports).
    pub name: String,
    /// Functional classification (§2.1).
    pub class: MonitorClass,
    /// Declared procedures; [`ProcName`] indexes into this table.
    pub procedures: Vec<ProcedureSpec>,
    /// Declared condition variables; [`CondId`] indexes into this table.
    pub conditions: Vec<CondSpec>,
    /// Maximum number of resources `Rmax` (buffer capacity for a
    /// coordinator, unit count for an allocator). `None` for monitors
    /// without a resource counter.
    pub capacity: Option<u64>,
    /// Declared partial ordering of procedure calls, as a path
    /// expression over procedure names (§3: "the partial ordering of
    /// procedure calls within a monitor be specified in the monitor
    /// declaration").
    pub call_order: Option<PathExpr>,
    /// User-supplied state assertions evaluated at every checkpoint
    /// (the §5 extension).
    pub assertions: Vec<StateAssertion>,
}

impl MonitorSpec {
    /// Starts building a spec of the given class.
    pub fn builder(name: impl Into<String>, class: MonitorClass) -> MonitorSpecBuilder {
        MonitorSpecBuilder {
            spec: MonitorSpec {
                name: name.into(),
                class,
                procedures: Vec::new(),
                conditions: Vec::new(),
                capacity: None,
                call_order: None,
                assertions: Vec::new(),
            },
        }
    }

    /// Canonical communication-coordinator spec: a bounded buffer with
    /// `send`/`receive` procedures and `not_full`/`not_empty` conditions.
    ///
    /// Returns the spec together with the procedure and condition
    /// indices: `(spec, send, receive, full_cond, empty_cond)`.
    pub fn bounded_buffer(name: impl Into<String>, capacity: u64) -> BoundedBufferSpec {
        let spec = crate::monitor_spec! {
            name: name.into(),
            class: CommunicationCoordinator,
            capacity: capacity,
            procedures: { send: Send, receive: Receive },
            conditions: { buffer_full: BufferFull, buffer_empty: BufferEmpty },
        };
        BoundedBufferSpec {
            spec,
            send: ProcName::new(0),
            receive: ProcName::new(1),
            full_cond: CondId::new(0),
            empty_cond: CondId::new(1),
        }
    }

    /// Canonical resource-access-right-allocator spec with the default
    /// call order `path (request ; release)* end`.
    ///
    /// Returns `(spec, request, release, avail_cond)`.
    pub fn allocator(name: impl Into<String>, units: u64) -> AllocatorSpec {
        let spec = crate::monitor_spec! {
            name: name.into(),
            class: ResourceAllocator,
            capacity: units,
            procedures: { request: Request, release: Release },
            conditions: { unit_available: UnitAvailable },
            call_order: "path (request ; release)* end",
        };
        AllocatorSpec {
            spec,
            request: ProcName::new(0),
            release: ProcName::new(1),
            avail_cond: CondId::new(0),
        }
    }

    /// Canonical operation-manager spec with a single `operate`
    /// procedure and no condition variables.
    ///
    /// Returns `(spec, operate)`.
    pub fn operation_manager(name: impl Into<String>) -> ManagerSpec {
        let spec = crate::monitor_spec! {
            name: name.into(),
            class: OperationManager,
            procedures: { operate: Plain },
        };
        ManagerSpec { spec, operate: ProcName::new(0) }
    }

    /// Looks up a procedure declaration; out-of-range indices yield a
    /// placeholder `Plain` declaration so that the detector degrades
    /// gracefully on malformed traces (flagged elsewhere).
    pub fn procedure(&self, p: ProcName) -> ProcedureSpec {
        self.procedures
            .get(p.as_usize())
            .cloned()
            .unwrap_or(ProcedureSpec { name: format!("<unknown {p}>"), role: ProcRole::Plain })
    }

    /// Role of procedure `p` (`Plain` if out of range).
    pub fn proc_role(&self, p: ProcName) -> ProcRole {
        self.procedures.get(p.as_usize()).map_or(ProcRole::Plain, |s| s.role)
    }

    /// Role of condition `c` (`Plain` if out of range).
    pub fn cond_role(&self, c: CondId) -> CondRole {
        self.conditions.get(c.as_usize()).map_or(CondRole::Plain, |s| s.role)
    }

    /// Human-readable procedure name.
    pub fn proc_display(&self, p: ProcName) -> String {
        self.procedures
            .get(p.as_usize())
            .map_or_else(|| format!("<unknown {p}>"), |s| s.name.clone())
    }

    /// Human-readable condition name.
    pub fn cond_display(&self, c: CondId) -> String {
        self.conditions
            .get(c.as_usize())
            .map_or_else(|| format!("<unknown {c}>"), |s| s.name.clone())
    }

    /// Looks up a procedure index by name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcName> {
        self.procedures.iter().position(|p| p.name == name).map(|i| ProcName::new(i as u16))
    }

    /// Looks up a condition index by name.
    pub fn cond_by_name(&self, name: &str) -> Option<CondId> {
        self.conditions.iter().position(|c| c.name == name).map(|i| CondId::new(i as u16))
    }

    /// Number of declared condition variables.
    pub fn cond_count(&self) -> usize {
        self.conditions.len()
    }

    /// The canonical empty state for this declaration: all queues
    /// empty, all declared capacity available. The single source of
    /// truth for "freshly created monitor" — registration paths
    /// (inline detector, sharded service, runtime) all start here.
    pub fn empty_state(&self) -> crate::state::MonitorState {
        let mut state = crate::state::MonitorState::new(self.cond_count());
        state.available = self.capacity;
        state
    }
}

/// Builder for [`MonitorSpec`] (non-consuming terminal would not help
/// here; the builder is cheap and single-use).
#[derive(Debug, Clone)]
pub struct MonitorSpecBuilder {
    spec: MonitorSpec,
}

impl MonitorSpecBuilder {
    /// Declares a procedure; declaration order defines [`ProcName`]
    /// indices.
    pub fn procedure(mut self, name: impl Into<String>, role: ProcRole) -> Self {
        self.spec.procedures.push(ProcedureSpec { name: name.into(), role });
        self
    }

    /// Declares a condition variable; declaration order defines
    /// [`CondId`] indices.
    pub fn condition(mut self, name: impl Into<String>, role: CondRole) -> Self {
        self.spec.conditions.push(CondSpec { name: name.into(), role });
        self
    }

    /// Sets the resource capacity `Rmax`.
    pub fn capacity(mut self, rmax: u64) -> Self {
        self.spec.capacity = Some(rmax);
        self
    }

    /// Declares the partial order of procedure calls.
    pub fn call_order(mut self, order: PathExpr) -> Self {
        self.spec.call_order = Some(order);
        self
    }

    /// Declares a user-supplied state assertion (checked at every
    /// checkpoint).
    pub fn assertion(mut self, a: StateAssertion) -> Self {
        self.spec.assertions.push(a);
        self
    }

    /// Finishes the declaration.
    ///
    /// # Panics
    ///
    /// Panics if a procedure or condition name is declared twice:
    /// duplicate names make [`ProcName`]/[`CondId`] resolution by name
    /// ambiguous (call orders, journal replay and the detection rules
    /// all resolve by name), so such a declaration is never usable.
    /// Use [`MonitorSpecBuilder::try_build`] to handle the rejection.
    pub fn build(self) -> MonitorSpec {
        match self.try_build() {
            Ok(spec) => spec,
            Err(report) => panic!("invalid monitor spec:\n{report}"),
        }
    }

    /// Finishes the declaration, rejecting duplicate procedure or
    /// condition names with the corresponding `RML001`/`RML002`
    /// diagnostics instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the duplicate-name [`LintReport`] if any name is
    /// declared twice.
    pub fn try_build(self) -> Result<MonitorSpec, LintReport> {
        let report = analyze::duplicate_name_report(&self.spec);
        if report.has_errors() {
            return Err(report);
        }
        Ok(self.spec)
    }
}

/// Finishes a [`monitor_spec!`](crate::monitor_spec) declaration:
/// parses the optional call order, builds the spec, runs the full
/// static analyzer ([`analyze::analyze`]) and rejects any Error-level
/// diagnostic. This is the macro's runtime back-end; it is public so
/// the macro can expand outside this crate, and usable directly when a
/// spec is assembled dynamically but should still be vetted at
/// construction.
///
/// # Panics
///
/// Panics with the full diagnostic report if the call order does not
/// parse (`RML016`) or the finished spec has Error-level findings.
pub fn build_checked(builder: MonitorSpecBuilder, order: Option<&str>) -> MonitorSpec {
    let mut spec = match builder.try_build() {
        Ok(spec) => spec,
        Err(report) => panic!("monitor_spec! declaration rejected:\n{report}"),
    };
    if let Some(src) = order {
        match PathExpr::parse(src) {
            Ok(p) => spec.call_order = Some(p),
            Err(e) => panic!(
                "monitor_spec! declaration for {:?} rejected:\n  RML016 error [{}] {e}",
                spec.name, spec.name
            ),
        }
    }
    let report = analyze::analyze(&spec);
    if report.has_errors() {
        panic!("monitor_spec! declaration for {:?} rejected:\n{report}", spec.name);
    }
    spec
}

/// A bounded-buffer (communication coordinator) spec with its well-known
/// indices.
#[derive(Debug, Clone)]
pub struct BoundedBufferSpec {
    /// The monitor declaration.
    pub spec: MonitorSpec,
    /// Index of the `send` procedure.
    pub send: ProcName,
    /// Index of the `receive` procedure.
    pub receive: ProcName,
    /// Condition senders wait on while the buffer is full.
    pub full_cond: CondId,
    /// Condition receivers wait on while the buffer is empty.
    pub empty_cond: CondId,
}

/// A resource-allocator spec with its well-known indices.
#[derive(Debug, Clone)]
pub struct AllocatorSpec {
    /// The monitor declaration.
    pub spec: MonitorSpec,
    /// Index of the `request` procedure.
    pub request: ProcName,
    /// Index of the `release` procedure.
    pub release: ProcName,
    /// Condition requesters wait on while no unit is available.
    pub avail_cond: CondId,
}

/// An operation-manager spec with its well-known indices.
#[derive(Debug, Clone)]
pub struct ManagerSpec {
    /// The monitor declaration.
    pub spec: MonitorSpec,
    /// Index of the single `operate` procedure.
    pub operate: ProcName,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_indices_in_order() {
        let spec = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("a", ProcRole::Plain)
            .procedure("b", ProcRole::Send)
            .condition("c0", CondRole::Plain)
            .build();
        assert_eq!(spec.proc_by_name("a"), Some(ProcName::new(0)));
        assert_eq!(spec.proc_by_name("b"), Some(ProcName::new(1)));
        assert_eq!(spec.proc_by_name("zzz"), None);
        assert_eq!(spec.cond_by_name("c0"), Some(CondId::new(0)));
        assert_eq!(spec.proc_role(ProcName::new(1)), ProcRole::Send);
        assert_eq!(spec.cond_count(), 1);
    }

    #[test]
    fn bounded_buffer_canonical_shape() {
        let bb = MonitorSpec::bounded_buffer("buf", 4);
        assert_eq!(bb.spec.class, MonitorClass::CommunicationCoordinator);
        assert_eq!(bb.spec.capacity, Some(4));
        assert_eq!(bb.spec.proc_role(bb.send), ProcRole::Send);
        assert_eq!(bb.spec.proc_role(bb.receive), ProcRole::Receive);
        assert_eq!(bb.spec.cond_role(bb.full_cond), CondRole::BufferFull);
        assert_eq!(bb.spec.cond_role(bb.empty_cond), CondRole::BufferEmpty);
    }

    #[test]
    fn allocator_has_default_call_order() {
        let al = MonitorSpec::allocator("printer", 1);
        assert_eq!(al.spec.class, MonitorClass::ResourceAllocator);
        assert!(al.spec.call_order.is_some());
        assert_eq!(al.spec.proc_role(al.request), ProcRole::Request);
        assert_eq!(al.spec.proc_role(al.release), ProcRole::Release);
    }

    #[test]
    fn operation_manager_is_minimal() {
        let m = MonitorSpec::operation_manager("shared");
        assert_eq!(m.spec.class, MonitorClass::OperationManager);
        assert_eq!(m.spec.cond_count(), 0);
        assert_eq!(m.spec.capacity, None);
    }

    #[test]
    fn unknown_indices_degrade_gracefully() {
        let m = MonitorSpec::operation_manager("shared");
        assert_eq!(m.spec.proc_role(ProcName::new(99)), ProcRole::Plain);
        assert_eq!(m.spec.cond_role(CondId::new(99)), CondRole::Plain);
        assert!(m.spec.proc_display(ProcName::new(99)).contains("unknown"));
        assert!(m.spec.cond_display(CondId::new(99)).contains("unknown"));
    }

    #[test]
    fn builder_rejects_duplicate_procedure_names() {
        // Regression: the builder used to accept duplicate names
        // silently, making name-based ProcName resolution ambiguous.
        let report = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("op", ProcRole::Plain)
            .procedure("op", ProcRole::Send)
            .try_build()
            .expect_err("duplicate procedure names must be rejected");
        assert!(report.diagnostics.iter().any(|d| d.code == analyze::DiagCode::DuplicateProc));
    }

    #[test]
    #[should_panic(expected = "RML002")]
    fn build_panics_on_duplicate_condition_names() {
        let _ = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("op", ProcRole::Plain)
            .condition("c", CondRole::Plain)
            .condition("c", CondRole::Plain)
            .build();
    }

    #[test]
    fn try_build_accepts_well_formed_specs() {
        let spec = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("op", ProcRole::Plain)
            .try_build()
            .expect("unique names build fine");
        assert_eq!(spec.procedures.len(), 1);
    }

    #[test]
    fn display_of_class_and_roles() {
        assert_eq!(MonitorClass::CommunicationCoordinator.to_string(), "communication-coordinator");
        assert_eq!(ProcRole::Request.to_string(), "request");
        assert_eq!(CondRole::BufferEmpty.to_string(), "buffer-empty");
    }
}
