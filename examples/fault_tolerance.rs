//! The §5 extensions in action: user-supplied assertions and error
//! recovery on top of detection — the paper's fault-tolerance roadmap.
//!
//! Run with: `cargo run --example fault_tolerance`
//!
//! 1. A monitor declares a state assertion (`R# ≥ 1`: keep one unit in
//!    reserve) that the periodic checker evaluates at every checkpoint.
//! 2. A worker crashes inside a monitor (fault T1). Detection reports
//!    it; the recovery checker force-releases the stuck monitor and the
//!    system resumes normal operation — detection first, recovery
//!    second, exactly as §5 prescribes.

use rmon::core::StateAssertion;
use rmon::prelude::*;
use rmon::rt::RecoveryChecker;
use std::time::Duration;

fn main() {
    // ----- 1. user-supplied assertions --------------------------------
    // A correct buffer satisfies its declared bounds at every checkpoint.
    let rt = Runtime::new(DetectorConfig::without_timeouts());
    let buf = BoundedBuffer::new(&rt, "tank", 4);
    for i in 0..4 {
        buf.send(i).expect("fill the tank");
    }
    let report = rt.checkpoint_now();
    println!("tank filled, checkpoint clean: {}", report.is_clean());

    // A runtime demonstrating a *failing* assertion: declare an
    // `R# ≥ 1` reserve on a monitor whose counter gets drained to 0.
    let rt2 = Runtime::new(DetectorConfig::without_timeouts());
    let spec = rmon::core::monitor_spec! {
        name: "pool",
        class: ResourceAllocator,
        capacity: 2,
        procedures: { request: Request, release: Release },
        conditions: { unit_available: UnitAvailable },
        call_order: "path (request ; release)* end",
        assertions: [StateAssertion::AvailableAtLeast(1)],
    };
    let pool = rmon::rt::Monitor::new(&rt2, spec, ());
    let request = pool.spec().proc_by_name("request").expect("declared");
    for _ in 0..2 {
        let g = pool.enter(request).expect("acquire");
        g.signal_exit_adjust(None, -1); // drain the reserve
    }
    let report = rt2.checkpoint_now();
    let asserts: Vec<String> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::UserAssertion)
        .map(|v| v.message.to_string())
        .collect();
    println!("reserve assertion violations: {asserts:?}");
    assert!(!asserts.is_empty(), "draining the reserve must trip the assertion");

    // ----- 2. detection + recovery ------------------------------------
    let rt3 = Runtime::builder(
        DetectorConfig::builder()
            .t_max(Nanos::from_millis(30))
            .t_io(Nanos::from_millis(30))
            .t_limit(Nanos::from_millis(60))
            .check_interval(Nanos::from_millis(10))
            .build(),
    )
    .park_timeout(Duration::from_millis(800))
    .build();
    let cell = OperationCell::new(&rt3, "ledger", 0u64);
    let recovery = RecoveryChecker::spawn(&rt3, vec![cell.core_weak()], Duration::from_millis(10));

    cell.operate(|n| *n += 1).expect("normal operation");
    cell.operate_and_die(|n| *n += 1).expect("worker crashes inside the monitor");
    // Without recovery the next operation would time out; with the
    // recovery checker the stuck monitor is force-released.
    let value = cell.operate(|n| *n).expect("recovered operation");
    let checks = recovery.stop();

    println!("ledger value after crash + recovery : {value}");
    println!("recovery checks run                 : {checks}");
    println!(
        "termination fault still reported    : {}",
        rt3.all_violations().iter().any(|v| v.rule == RuleId::St5InsideTimeout)
    );
    assert_eq!(value, 2);
    assert!(!rt3.is_clean(), "recovery never hides the detected fault");
    println!("fault tolerated: detection first, recovery second");
}
