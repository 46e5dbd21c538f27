//! Integration form of EXP-COV: the 21-class fault-injection campaign
//! reproduces the paper's robustness result end to end.

use rmon::prelude::*;
use rmon::workloads::faultset;

#[test]
fn full_campaign_detects_every_injected_fault() {
    // The seeds the `coverage` bin runs by default.
    let seeds: Vec<u64> = (0..8).collect();
    let rows = faultset::run_campaign(&seeds);
    assert_eq!(rows.len(), 21);
    for row in &rows {
        assert!(
            row.injected >= 1,
            "{}: the perturbation never became eligible in any seed",
            row.fault.code()
        );
        assert_eq!(
            row.detected,
            row.injected,
            "{}: {} injected but only {} detected (rules seen: {:?})",
            row.fault.code(),
            row.injected,
            row.detected,
            row.rules
        );
    }
    let injected: usize = rows.iter().map(|r| r.injected).sum();
    let detected: usize = rows.iter().map(|r| r.detected).sum();
    assert_eq!((injected, detected), (161, 161), "all injected faults are detected");
}

#[test]
fn campaign_rules_match_taxonomy_levels() {
    // Every user-process fault must have fired at least one ST-8 rule;
    // every procedure-level fault at least one ST-7 rule.
    let rows = faultset::run_campaign(&[0]);
    for row in rows {
        match row.fault.level() {
            FaultLevel::UserProcess => {
                assert!(
                    row.rules.iter().any(|r| r.code().starts_with("ST-8")),
                    "{}: {:?}",
                    row.fault.code(),
                    row.rules
                );
            }
            FaultLevel::MonitorProcedure => {
                assert!(
                    row.rules.iter().any(|r| r.code().starts_with("ST-7")),
                    "{}: {:?}",
                    row.fault.code(),
                    row.rules
                );
            }
            FaultLevel::Implementation => {
                assert!(!row.rules.is_empty());
            }
        }
    }
}

#[test]
fn primary_rule_mapping_holds_under_engineered_schedule() {
    // Under the engineered round-robin interleaving, each fault's
    // documented primary rules (`FaultKind::detected_by`) actually fire.
    for fault in FaultKind::ALL {
        let outcome = faultset::run_case(fault, 0);
        assert!(
            outcome.primary_rule_hit,
            "{}: primary rules {:?} not among fired {:?}",
            fault.code(),
            fault.detected_by(),
            outcome.rules_hit
        );
    }
}
