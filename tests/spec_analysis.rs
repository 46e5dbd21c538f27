//! Static spec-analysis campaign over the `RML0xx` diagnostics engine:
//!
//! * **Catalogue coverage** — every diagnostic code has a minimal
//!   trigger (a spec that fires exactly this finding) and a near-miss
//!   (the smallest correction, which must silence it). A completeness
//!   check keeps the table honest against `DiagCode::all()`.
//! * **No false positives** — randomly shaped *well-formed* specs of
//!   every class lint clean, and survive a round-trip through the
//!   `.mspec` text format unchanged.
//! * **Seeded mutations** — one seeded defect injected into a clean
//!   allocator must surface as the expected code (no false negatives).
//! * **Fleet laws** — distinct clean specs form a clean fleet; shared
//!   registrations dedup to at most a lint; colliding names are errors.
//!
//! `RML012` (trap states) is retired: `PathExpr::compile` builds a
//! trim table, so no spec could trigger it, and the code is gone from
//! `DiagCode::all()`.

use proptest::prelude::*;
use rmon::core::spec::textfmt;
use rmon::core::{
    analyze, analyze_fleet, CondId, CondRole, CondSpec, DiagCode, MonitorClass, MonitorSpec,
    PathExpr, Pid, ProcRole, ProcedureSpec, StateAssertion,
};
use rmon::prelude::analyze_all;
use std::sync::Arc;

/// Assembles a spec directly (no builder), so malformed shapes the
/// builder rejects are still constructible — the analyzer's job is
/// exactly to describe those.
fn raw(
    class: MonitorClass,
    procs: &[(&str, ProcRole)],
    conds: &[(&str, CondRole)],
    capacity: Option<u64>,
    order: Option<&str>,
    assertions: Vec<StateAssertion>,
) -> MonitorSpec {
    MonitorSpec {
        name: "m".into(),
        class,
        procedures: procs
            .iter()
            .map(|(n, r)| ProcedureSpec { name: n.to_string(), role: *r })
            .collect(),
        conditions: conds.iter().map(|(n, r)| CondSpec { name: n.to_string(), role: *r }).collect(),
        capacity,
        call_order: order.map(|s| PathExpr::parse(s).expect("table orders parse")),
        assertions,
    }
}

fn codes(spec: &MonitorSpec) -> Vec<DiagCode> {
    analyze(spec).diagnostics.iter().map(|d| d.code).collect()
}

/// A minimal clean allocator — the base most triggers mutate away from.
fn clean_allocator() -> MonitorSpec {
    raw(
        MonitorClass::ResourceAllocator,
        &[("request", ProcRole::Request), ("release", ProcRole::Release)],
        &[("unit_available", CondRole::UnitAvailable)],
        Some(2),
        Some("path (request ; release)* end"),
        vec![],
    )
}

/// A minimal clean coordinator.
fn clean_coordinator() -> MonitorSpec {
    raw(
        MonitorClass::CommunicationCoordinator,
        &[("send", ProcRole::Send), ("receive", ProcRole::Receive)],
        &[("full", CondRole::BufferFull), ("empty", CondRole::BufferEmpty)],
        Some(4),
        None,
        vec![],
    )
}

/// The catalogue table: for each single-spec code, the minimal spec
/// that triggers it and the near-miss that must not.
fn catalogue() -> Vec<(DiagCode, MonitorSpec, MonitorSpec)> {
    use DiagCode::*;
    use MonitorClass::*;
    vec![
        (
            DuplicateProc,
            raw(
                OperationManager,
                &[("op", ProcRole::Plain), ("op", ProcRole::Plain)],
                &[],
                None,
                None,
                vec![],
            ),
            raw(
                OperationManager,
                &[("op", ProcRole::Plain), ("op2", ProcRole::Plain)],
                &[],
                None,
                None,
                vec![],
            ),
        ),
        (
            DuplicateCond,
            raw(
                OperationManager,
                &[("op", ProcRole::Plain)],
                &[("c", CondRole::Plain), ("c", CondRole::Plain)],
                None,
                None,
                vec![],
            ),
            raw(
                OperationManager,
                &[("op", ProcRole::Plain)],
                &[("c", CondRole::Plain), ("d", CondRole::Plain)],
                None,
                None,
                vec![],
            ),
        ),
        (
            PathUnknownProc,
            {
                let mut s = clean_allocator();
                s.call_order = Some(PathExpr::parse("path (request ; free)* end").unwrap());
                s
            },
            clean_allocator(),
        ),
        (
            PathUnreachableProc,
            {
                let mut s = clean_allocator();
                s.procedures.push(ProcedureSpec { name: "status".into(), role: ProcRole::Plain });
                s
            },
            {
                let mut s = clean_allocator();
                s.procedures.push(ProcedureSpec { name: "status".into(), role: ProcRole::Plain });
                s.call_order =
                    Some(PathExpr::parse("path ((request ; release) | status)* end").unwrap());
                s
            },
        ),
        (
            PathUnreleasedCompletion,
            {
                let mut s = clean_allocator();
                s.call_order = Some(PathExpr::parse("path (request ; release?)* end").unwrap());
                s
            },
            clean_allocator(),
        ),
        (
            PathReleaseBeforeRequest,
            {
                let mut s = clean_allocator();
                s.call_order = Some(PathExpr::parse("path (release ; request) end").unwrap());
                s
            },
            clean_allocator(),
        ),
        (
            PathDuplicateAlt,
            {
                let mut s = clean_allocator();
                s.call_order = Some(
                    PathExpr::parse("path ((request ; release) | (request ; release))* end")
                        .unwrap(),
                );
                s
            },
            {
                // Two structurally different (both balanced) branches.
                let mut s = clean_allocator();
                s.call_order = Some(
                    PathExpr::parse(
                        "path ((request ; release) | (request ; release ; request ; release))* end",
                    )
                    .unwrap(),
                );
                s
            },
        ),
        (
            CoordinatorRoles,
            raw(
                CommunicationCoordinator,
                &[("send", ProcRole::Send)],
                &[("full", CondRole::BufferFull)],
                Some(4),
                None,
                vec![],
            ),
            clean_coordinator(),
        ),
        (
            CoordinatorCapacity,
            {
                let mut s = clean_coordinator();
                s.capacity = Some(0);
                s
            },
            clean_coordinator(),
        ),
        (
            AllocatorRoles,
            raw(
                MonitorClass::ResourceAllocator,
                &[("request", ProcRole::Request)],
                &[],
                Some(2),
                None,
                vec![],
            ),
            clean_allocator(),
        ),
        (
            AllocatorBufferCond,
            {
                let mut s = clean_allocator();
                s.conditions.push(CondSpec { name: "full".into(), role: CondRole::BufferFull });
                s
            },
            clean_allocator(),
        ),
        (
            AllocatorNoCapacity,
            {
                let mut s = clean_allocator();
                s.capacity = None;
                s
            },
            clean_allocator(),
        ),
        (
            ManagerMachinery,
            raw(OperationManager, &[("op", ProcRole::Request)], &[], None, None, vec![]),
            raw(OperationManager, &[("op", ProcRole::Plain)], &[], None, None, vec![]),
        ),
        (
            CoordinatorNoWaitConds,
            raw(
                CommunicationCoordinator,
                &[("send", ProcRole::Send), ("receive", ProcRole::Receive)],
                &[],
                Some(4),
                None,
                vec![],
            ),
            clean_coordinator(),
        ),
        (
            AssertUnsatisfiable,
            {
                let mut s = clean_allocator();
                s.assertions.push(StateAssertion::AvailableAtLeast(3));
                s
            },
            {
                let mut s = clean_allocator();
                s.assertions.push(StateAssertion::AvailableAtLeast(2));
                s
            },
        ),
        (
            AssertVacuous,
            {
                let mut s = clean_allocator();
                s.assertions.push(StateAssertion::AvailableAtMost(2));
                s
            },
            {
                let mut s = clean_allocator();
                s.assertions.push(StateAssertion::AvailableAtMost(1));
                s
            },
        ),
        (
            AssertUnknownCond,
            {
                let mut s = clean_allocator();
                s.assertions
                    .push(StateAssertion::CondQueueAtMost { cond: CondId::new(7), at_most: 1 });
                s
            },
            {
                let mut s = clean_allocator();
                s.assertions
                    .push(StateAssertion::CondQueueAtMost { cond: CondId::new(0), at_most: 1 });
                s
            },
        ),
        (
            AssertNoCounter,
            {
                let mut s = clean_allocator();
                s.capacity = None;
                s.conditions.clear(); // avoid the RML024 overlap
                s.assertions.push(StateAssertion::AvailableAtLeast(1));
                s
            },
            {
                let mut s = clean_allocator();
                s.assertions.push(StateAssertion::AvailableAtLeast(1));
                s
            },
        ),
    ]
}

#[test]
fn every_code_has_a_minimal_trigger() {
    for (code, trigger, _) in catalogue() {
        let found = codes(&trigger);
        assert!(found.contains(&code), "{code:?}: expected in {found:?}\nspec: {trigger:?}");
    }
}

#[test]
fn every_near_miss_stays_silent_on_its_code() {
    for (code, _, near) in catalogue() {
        let found = codes(&near);
        assert!(!found.contains(&code), "{code:?}: near-miss still fires: {found:?}");
    }
}

#[test]
fn catalogue_covers_every_single_spec_code() {
    let covered: std::collections::BTreeSet<&str> =
        catalogue().iter().map(|(c, _, _)| c.as_str()).collect();
    // RML016: a front-end code, tested below; its state-cap case is
    // unit-tested in core.
    // RML04x: fleet-level, tested below.
    let excluded = ["RML016", "RML040", "RML041", "RML042", "RML043"];
    for code in DiagCode::all() {
        if excluded.contains(&code.as_str()) {
            continue;
        }
        assert!(covered.contains(code.as_str()), "{code:?} has no catalogue entry");
    }
}

#[test]
fn unparsable_order_in_text_format_is_rml016() {
    let file = textfmt::parse_specs(
        "monitor m\n  class manager\n  proc op plain\n  order path (op* end\nend\n",
    )
    .expect("structurally fine");
    assert_eq!(
        file.diagnostics.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>(),
        vec![DiagCode::PathSyntax]
    );
    // The near-miss: the parenthesis closed.
    let ok = textfmt::parse_specs(
        "monitor m\n  class manager\n  proc op plain\n  order path (op)* end\nend\n",
    )
    .expect("structurally fine");
    assert!(ok.diagnostics.is_clean());
}

#[test]
fn fleet_codes_have_triggers_and_near_misses() {
    let a = Arc::new(clean_allocator());
    let b = Arc::new(clean_coordinator());

    // RML040: one name, two structurally different specs.
    let r = analyze_fleet(vec![
        ("m".to_string(), Some(Arc::clone(&a))),
        ("m".to_string(), Some(Arc::clone(&b))),
    ]);
    assert!(r.diagnostics.iter().any(|d| d.code == DiagCode::FleetNameCollision), "{r}");

    // RML041: coordinators differing only in capacity — a softer
    // mismatch than RML040.
    let mut b2 = clean_coordinator();
    b2.capacity = Some(8);
    let r = analyze_fleet(vec![
        ("m".to_string(), Some(Arc::clone(&b))),
        ("m".to_string(), Some(Arc::new(b2))),
    ]);
    assert!(r.diagnostics.iter().any(|d| d.code == DiagCode::FleetCapacityMismatch), "{r}");
    assert!(!r.diagnostics.iter().any(|d| d.code == DiagCode::FleetNameCollision), "{r}");

    // RML042: a name that resolved to no spec.
    let r = analyze_fleet(vec![("ghost".to_string(), None)]);
    assert!(r.diagnostics.iter().any(|d| d.code == DiagCode::FleetUnresolved), "{r}");

    // RML043: the same declaration registered twice under one name.
    let r = analyze_fleet(vec![
        ("m".to_string(), Some(Arc::clone(&a))),
        ("m".to_string(), Some(Arc::clone(&a))),
    ]);
    assert!(r.diagnostics.iter().any(|d| d.code == DiagCode::FleetDuplicateRegistration), "{r}");

    // Near-miss for all four: distinct names, all resolved, no dups.
    let r = analyze_fleet(vec![("a".to_string(), Some(a)), ("b".to_string(), Some(b))]);
    assert!(r.is_clean(), "{r}");
}

// ---------------------------------------------------------------------
// Properties: clean shapes lint clean; seeded mutations are caught
// ---------------------------------------------------------------------

/// Randomly shaped *well-formed* specs of every class.
fn arb_clean_spec() -> impl Strategy<Value = MonitorSpec> {
    prop_oneof![
        // Coordinator: canonical roles, positive capacity, optional
        // auxiliary Plain procedures and a queue-depth assertion.
        (1u64..32, 0usize..3, any::<bool>()).prop_map(|(cap, extra, with_assert)| {
            let mut s = clean_coordinator();
            s.capacity = Some(cap);
            for i in 0..extra {
                s.procedures.push(ProcedureSpec { name: format!("aux{i}"), role: ProcRole::Plain });
            }
            if with_assert {
                s.assertions.push(StateAssertion::EntryQueueAtMost(64));
            }
            s
        }),
        // Allocator: optional declared order, satisfiable assertions.
        (1u64..32, any::<bool>(), any::<bool>()).prop_map(|(cap, with_order, with_assert)| {
            let mut s = clean_allocator();
            s.capacity = Some(cap);
            if !with_order {
                s.call_order = None;
            }
            if with_assert {
                s.assertions.push(StateAssertion::AvailableAtLeast(cap));
                s.assertions.push(StateAssertion::PopulationAtMost(16));
            }
            s
        }),
        // Manager: any number of distinct Plain procedures/conditions.
        (1usize..6, 0usize..3).prop_map(|(nproc, ncond)| {
            let procs: Vec<(String, ProcRole)> =
                (0..nproc).map(|i| (format!("op{i}"), ProcRole::Plain)).collect();
            let conds: Vec<(String, CondRole)> =
                (0..ncond).map(|i| (format!("c{i}"), CondRole::Plain)).collect();
            MonitorSpec {
                name: "mgr".into(),
                class: MonitorClass::OperationManager,
                procedures: procs
                    .into_iter()
                    .map(|(name, role)| ProcedureSpec { name, role })
                    .collect(),
                conditions: conds.into_iter().map(|(name, role)| CondSpec { name, role }).collect(),
                capacity: None,
                call_order: None,
                assertions: vec![StateAssertion::ExcludesPid(Pid::new(0))],
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Well-formed specs produce no findings at all, and survive the
    /// `.mspec` round-trip both structurally and under the analyzer.
    #[test]
    fn clean_specs_lint_clean_and_round_trip(spec in arb_clean_spec()) {
        let report = analyze(&spec);
        prop_assert!(report.is_clean(), "{report}\nspec: {spec:?}");

        let text = textfmt::to_text([&spec]);
        let file = textfmt::parse_specs(&text).expect("writer output re-parses");
        prop_assert!(file.diagnostics.is_clean());
        prop_assert_eq!(&file.specs, &vec![spec]);
        let fleet = file.specs.into_iter().map(|s| (s.name.clone(), Some(Arc::new(s))));
        prop_assert!(analyze_all(fleet).is_clean());
    }

    /// One seeded defect injected into a clean allocator always
    /// surfaces, and as the expected code.
    #[test]
    fn seeded_mutations_are_reported(mutation in 0usize..12, cap in 1u64..16) {
        let mut s = clean_allocator();
        s.capacity = Some(cap);
        let expect = match mutation {
            0 => { s.procedures.push(ProcedureSpec { name: "request".into(), role: ProcRole::Plain }); DiagCode::DuplicateProc }
            1 => { s.conditions.push(CondSpec { name: "unit_available".into(), role: CondRole::Plain }); DiagCode::DuplicateCond }
            2 => { s.call_order = Some(PathExpr::parse("path (request ; ghost)* end").unwrap()); DiagCode::PathUnknownProc }
            3 => { s.procedures.push(ProcedureSpec { name: "extra".into(), role: ProcRole::Plain }); DiagCode::PathUnreachableProc }
            4 => { s.call_order = Some(PathExpr::parse("path request+ end").unwrap()); DiagCode::PathUnreleasedCompletion }
            5 => { s.call_order = Some(PathExpr::parse("path (release ; request) end").unwrap()); DiagCode::PathReleaseBeforeRequest }
            6 => { s.call_order = Some(PathExpr::parse("path (request | request) end").unwrap()); DiagCode::PathDuplicateAlt }
            7 => { s.procedures[0].role = ProcRole::Plain; s.procedures[1].role = ProcRole::Plain; DiagCode::AllocatorRoles }
            8 => { s.conditions[0].role = CondRole::BufferFull; DiagCode::AllocatorBufferCond }
            9 => { s.capacity = None; DiagCode::AllocatorNoCapacity }
            10 => { s.assertions.push(StateAssertion::AvailableAtLeast(cap + 1)); DiagCode::AssertUnsatisfiable }
            _ => { s.assertions.push(StateAssertion::CondQueueAtMost { cond: CondId::new(9), at_most: 0 }); DiagCode::AssertUnknownCond }
        };
        let report = analyze(&s);
        prop_assert!(!report.is_clean(), "mutation {mutation} went unnoticed: {s:?}");
        prop_assert!(
            report.diagnostics.iter().any(|d| d.code == expect),
            "mutation {mutation}: expected {expect:?} in {report}"
        );
    }

    /// Fleets of distinct clean specs are clean; duplicating one shared
    /// registration adds at most the RML043 lint, never an error.
    #[test]
    fn clean_fleets_lint_clean(n in 1usize..6, dups in 0usize..3) {
        let specs: Vec<Arc<MonitorSpec>> = (0..n)
            .map(|i| {
                let mut s = clean_allocator();
                s.name = format!("alloc{i}");
                Arc::new(s)
            })
            .collect();
        let mut entries: Vec<(String, Option<Arc<MonitorSpec>>)> =
            specs.iter().map(|s| (s.name.clone(), Some(Arc::clone(s)))).collect();
        for _ in 0..dups {
            entries.push((specs[0].name.clone(), Some(Arc::clone(&specs[0]))));
        }
        let report = analyze_fleet(entries);
        if dups == 0 {
            prop_assert!(report.is_clean(), "{report}");
        } else {
            prop_assert!(report.worst() <= Some(rmon::core::Severity::Lint), "{report}");
        }
    }
}
