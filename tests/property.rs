//! Property-based tests (proptest) over the detector's core
//! guarantees:
//!
//! * **No false positives** — randomly shaped, randomly scheduled
//!   *correct* workloads never trigger a violation, on either
//!   substrate.
//! * **Path expressions** — the compiled call-order table agrees with
//!   the independent backtracking matcher on random expressions and
//!   random call strings, at every prefix.
//! * **Conservation** — replaying any recorded clean trace through the
//!   checking lists preserves the process population (nobody is
//!   created or lost by the bookkeeping itself).
//! * **Vector-clock lattice laws** — `merge` is the least upper bound
//!   of the stamp lattice, and `le` is exactly the componentwise
//!   order.
//! * **Witness legality** — every violation the predictive pass emits
//!   carries a witness that is a legal linearization of the recorded
//!   happens-before partial order, on arbitrarily scheduled allocator
//!   windows; schedules without contention predict nothing.

use proptest::prelude::*;
use rmon::core::detect::predict::{is_legal_linearization, predict_window, Annotation};
use rmon::core::{DetectorConfig, GeneralLists, Nanos, OrderState, PathExpr, VClock};
use rmon::prelude::*;
use rmon::workloads::sweep;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any balanced producer/consumer workload, any seed, any
    /// scheduling policy: the detector stays silent.
    #[test]
    fn no_false_positives_on_random_pc_workloads(seed in 0u64..5_000) {
        let w = PcWorkload::randomized(seed);
        let (mut sim, _) = w.build_sim(SimConfig::random_seeded(seed));
        let out = run_with_detection(&mut sim, DetectorConfig::without_timeouts());
        prop_assert!(out.finished, "balanced workload must finish (seed {seed})");
        prop_assert!(out.is_clean(), "seed {seed}: {}", out.combined);
    }

    /// Ordered dining philosophers never trip the detector either —
    /// a multi-monitor, allocator-class workload.
    #[test]
    fn no_false_positives_on_random_philosophers(
        seed in 0u64..5_000,
        seats in 2usize..6,
        meals in 1usize..4,
    ) {
        let w = Philosophers {
            seats,
            meals,
            eat: Nanos::from_micros(2),
            ordered: true,
        };
        let (mut sim, _) = w.build_sim(SimConfig::random_seeded(seed));
        let out = run_with_detection(&mut sim, DetectorConfig::without_timeouts());
        prop_assert!(out.finished);
        prop_assert!(out.is_clean(), "seed {seed}: {}", out.combined);
    }

    /// Replaying a clean trace never loses or invents processes: at
    /// every point the population of the checking lists equals the
    /// number of processes whose Enter has been seen minus those whose
    /// exits completed.
    #[test]
    fn checking_lists_conserve_population(seed in 0u64..1_000, items in 1usize..15) {
        let trace = sweep::pc_trace(items, seed);
        let mut lists = GeneralLists::new(trace.monitor, trace.spec.cond_count());
        let mut out = Vec::new();
        let mut inside: i64 = 0;
        for e in &trace.events {
            match e.kind {
                rmon::core::EventKind::Enter { .. } => inside += 1,
                rmon::core::EventKind::SignalExit { .. } => inside -= 1,
                _ => {}
            }
            lists.apply(&trace.spec, e, &mut out);
            let population = lists.enter_q().len()
                + lists.wait_cond().iter().map(|q| q.len()).sum::<usize>()
                + lists.running().len();
            prop_assert_eq!(population as i64, inside, "at event {}", e.seq);
        }
        prop_assert!(out.is_empty(), "clean trace produced {:?}", out);
        prop_assert_eq!(inside, 0);
    }
}

// ---------------------------------------------------------------------
// Path expressions: compiled table vs. naive matcher
// ---------------------------------------------------------------------

/// A tiny generator of random path expressions over a fixed alphabet.
fn arb_path_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![Just("a".to_string()), Just("b".to_string()), Just("c".to_string())];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x} ; {y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x} | {y})")),
            inner.clone().prop_map(|x| format!("({x})*")),
            inner.clone().prop_map(|x| format!("({x})+")),
            inner.prop_map(|x| format!("({x})?")),
        ]
    })
}

/// Whether the backtracking matcher accepts `prefix` followed by some
/// completion of at most `max` calls from `{a, b, c}`.
fn has_completion(expr: &PathExpr, prefix: &[&'static str], max: usize) -> bool {
    let mut frontier = vec![prefix.to_vec()];
    for _ in 0..=max {
        if frontier.iter().any(|w| expr.accepts_names(w)) {
            return true;
        }
        frontier = frontier
            .iter()
            .flat_map(|w| ["a", "b", "c"].map(|x| [w.as_slice(), &[x]].concat()))
            .collect();
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled table and the independent backtracking matcher
    /// agree on every (expression, input) pair, and on every prefix of
    /// the input.
    #[test]
    fn nfa_agrees_with_naive_matcher(
        src in arb_path_expr(),
        input in proptest::collection::vec(0u16..3, 0..8),
    ) {
        let expr = PathExpr::parse(&src).expect("generated expressions parse");
        let spec = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("a", rmon::core::ProcRole::Plain)
            .procedure("b", rmon::core::ProcRole::Plain)
            .procedure("c", rmon::core::ProcRole::Plain)
            .build();
        let compiled = expr.compile(|n| spec.proc_by_name(n)).expect("compiles");
        let procs: Vec<rmon::core::ProcName> =
            input.iter().map(|&i| rmon::core::ProcName::new(i)).collect();
        let names: Vec<&str> = input
            .iter()
            .map(|&i| ["a", "b", "c"][i as usize])
            .collect();
        prop_assert_eq!(
            compiled.accepts(&procs),
            expr.accepts_names(&names),
            "expr {} on {:?}",
            src,
            names
        );
        // At every prefix the table has a transition exactly when the
        // matcher accepts some completion. A trim table of n states
        // reaches acceptance within n - 1 more calls, so completions
        // of at most `state_count()` symbols decide it.
        let mut state = compiled.start();
        for (k, &p) in procs.iter().enumerate() {
            let next = compiled.step(state, p);
            let viable = has_completion(&expr, &names[..=k], compiled.state_count());
            prop_assert_eq!(next.is_some(), viable, "expr {} on prefix {:?}", src, &names[..=k]);
            match next {
                Some(next) => state = next,
                None => break,
            }
        }
    }

    /// A tracker never accepts a call its lookahead refused, and
    /// always accepts one it allowed.
    #[test]
    fn tracker_lookahead_is_consistent(
        src in arb_path_expr(),
        input in proptest::collection::vec(0u16..3, 0..8),
    ) {
        let expr = PathExpr::parse(&src).expect("parses");
        let spec = MonitorSpec::builder("m", MonitorClass::OperationManager)
            .procedure("a", rmon::core::ProcRole::Plain)
            .procedure("b", rmon::core::ProcRole::Plain)
            .procedure("c", rmon::core::ProcRole::Plain)
            .build();
        let compiled = expr.compile(|n| spec.proc_by_name(n)).expect("compiles");
        let mut tracker = compiled.tracker();
        for &i in &input {
            let p = rmon::core::ProcName::new(i);
            let allowed = tracker.allows(p);
            let advanced = tracker.advance(p).is_ok();
            prop_assert_eq!(allowed, advanced, "lookahead vs advance on {}", src);
            if !advanced {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Vector clocks: lattice laws
// ---------------------------------------------------------------------

/// Arbitrary *set, unsaturated* clocks: any owner slot, any counters.
fn arb_vclock() -> impl Strategy<Value = VClock> {
    (0usize..VClock::CAPACITY, proptest::collection::vec(0u32..1_000, 8..9)).prop_map(
        |(owner, slots)| {
            let slots: [u32; VClock::CAPACITY] = slots.try_into().expect("exactly 8 counters");
            VClock::from_parts(owner, slots)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `merge` is idempotent, commutative and associative on the
    /// counters (ownership is the receiver's identity, not part of the
    /// lattice value).
    #[test]
    fn vclock_merge_is_a_semilattice(
        a in arb_vclock(),
        b in arb_vclock(),
        c in arb_vclock(),
    ) {
        prop_assert_eq!(VClock::merged(&a, &a).raw_slots(), a.raw_slots());
        prop_assert_eq!(
            VClock::merged(&a, &b).raw_slots(),
            VClock::merged(&b, &a).raw_slots()
        );
        prop_assert_eq!(
            VClock::merged(&VClock::merged(&a, &b), &c).raw_slots(),
            VClock::merged(&a, &VClock::merged(&b, &c)).raw_slots()
        );
    }

    /// `merge` computes the least upper bound of `le`: an upper bound
    /// of both operands, and below every other common upper bound.
    #[test]
    fn vclock_merge_is_the_least_upper_bound(
        a in arb_vclock(),
        b in arb_vclock(),
        c in arb_vclock(),
    ) {
        let lub = VClock::merged(&a, &b);
        prop_assert!(a.le(&lub));
        prop_assert!(b.le(&lub));
        if a.le(&c) && b.le(&c) {
            prop_assert!(lub.le(&c));
        }
    }

    /// `le` is exactly the componentwise order, and `partial_cmp` is
    /// consistent with it in both directions.
    #[test]
    fn vclock_le_is_the_componentwise_order(a in arb_vclock(), b in arb_vclock()) {
        let componentwise =
            a.raw_slots().iter().zip(b.raw_slots().iter()).all(|(x, y)| x <= y);
        prop_assert_eq!(a.le(&b), componentwise);
        use std::cmp::Ordering;
        match a.partial_cmp(&b) {
            Some(Ordering::Equal) => prop_assert!(a.le(&b) && b.le(&a)),
            Some(Ordering::Less) => prop_assert!(a.le(&b) && !b.le(&a)),
            Some(Ordering::Greater) => prop_assert!(!a.le(&b) && b.le(&a)),
            None => {
                prop_assert!(!a.le(&b) && !b.le(&a));
                prop_assert!(a.concurrent_with(&b));
            }
        }
    }

    /// The degenerate elements behave as lattice constants: a fresh
    /// [`VClock::UNSET`] is the identity of `merge`, the saturated
    /// clock is absorbing (and stays sticky through ticks).
    #[test]
    fn vclock_degenerates_are_identity_and_top(a in arb_vclock()) {
        prop_assert_eq!(VClock::merged(&a, &VClock::UNSET).raw_slots(), a.raw_slots());
        prop_assert!(VClock::merged(&a, &VClock::saturated()).is_saturated());
        prop_assert!(VClock::merged(&VClock::saturated(), &a).is_saturated());
        let mut s = VClock::saturated();
        s.tick();
        s.merge(&a);
        prop_assert!(s.is_saturated());
    }
}

// ---------------------------------------------------------------------
// Predictive detection: witness legality on random schedules
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prediction the pass emits on an arbitrarily interleaved
    /// allocator window — whatever the rule and whatever `Tlimit` —
    /// carries a witness that is a legal linearization of the recorded
    /// partial order.
    #[test]
    fn every_predicted_witness_is_a_legal_linearization(
        seed in any::<u64>(),
        procs in 2usize..5,
        cycles in 1usize..4,
        t_limit_steps in 1u64..40,
    ) {
        let (al, w) = sweep::seeded_allocator_schedule(procs, cycles, seed);
        let ann = Annotation::over_window(&w);
        let cfg = DetectorConfig::builder()
            .t_limit(Nanos::new(t_limit_steps * 10))
            .predict(rmon::core::PredictMode::Checkpoint)
            .build();
        let now = Nanos::new((w.len() as u64 + 1) * 10);
        let mut out = Vec::new();
        let order = OrderState::new(MonitorId::new(0), &al.spec);
        predict_window(&order, &al.spec, &cfg, &w, &ann, now, &mut out);
        for p in &out {
            prop_assert!(
                is_legal_linearization(&p.witness, &w, &ann),
                "seed {}: illegal witness {:?} for {}",
                seed,
                p.witness,
                p.violation
            );
        }
        // The executed schedule is always a legal linearization too.
        let executed: Vec<u64> = w.iter().map(|e| e.seq).collect();
        prop_assert!(is_legal_linearization(&executed, &w, &ann));
    }

    /// Contention-free schedules (one process, or any schedule that
    /// happened to record no blocked entry attempt) admit exactly one
    /// linearization: the pass must predict nothing.
    #[test]
    fn contention_free_schedules_predict_nothing(
        seed in any::<u64>(),
        cycles in 1usize..5,
        t_limit_steps in 1u64..40,
    ) {
        let (al, w) = sweep::seeded_allocator_schedule(1, cycles, seed);
        prop_assert!(
            w.iter().all(|e| !matches!(e.kind, rmon::core::EventKind::Enter { granted: false }))
        );
        let ann = Annotation::over_window(&w);
        let cfg = DetectorConfig::builder()
            .t_limit(Nanos::new(t_limit_steps * 10))
            .predict(rmon::core::PredictMode::Checkpoint)
            .build();
        let now = Nanos::new((w.len() as u64 + 1) * 10);
        let mut out = Vec::new();
        let order = OrderState::new(MonitorId::new(0), &al.spec);
        predict_window(&order, &al.spec, &cfg, &w, &ann, now, &mut out);
        prop_assert!(out.is_empty(), "seed {}: {:?}", seed, out);
    }
}
