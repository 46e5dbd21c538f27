//! Shared helpers for the `rmon-bench` binaries in `src/bin/`:
//!
//! * `coverage` — the robustness/fault-injection experiment (§4: every
//!   injected fault is detected);
//! * `soak` — the durable-oplog chaos soak;
//! * `rmon-lint` — the static spec linter.
//!
//! Performance (the paper's Table 1 and the per-layer figures) is
//! measured by the `bench` binary of the separate `layerbench` package.

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join(" ")
}

/// Prints a rule line of the combined width.
pub fn rule_line(widths: &[usize]) -> String {
    "-".repeat(widths.iter().sum::<usize>() + widths.len().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting_pads() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   bb  ");
        assert_eq!(rule_line(&[3, 4]).len(), 8);
    }
}
