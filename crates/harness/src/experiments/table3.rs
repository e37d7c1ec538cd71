//! Table 3: detection capability on the Juliet-like suite.

use giantsan_ir::{CheckPlan, Program};
use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::juliet::{juliet_suite_scaled, paper_totals, JulietCase};

use crate::batch::BatchRunner;
use crate::json::Json;
use crate::session::SessionSpec;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// Detection tools of Table 3, in column order.
pub const COLUMNS: [Tool; 4] = [Tool::GiantSan, Tool::Asan, Tool::AsanMinusMinus, Tool::Lfp];

/// One CWE row of the table.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// CWE number.
    pub cwe: u32,
    /// Detected cases per column tool.
    pub detected: Vec<u32>,
    /// False positives on the safe twins per column tool (the paper reports
    /// none; this column validates that).
    pub false_positives: Vec<u32>,
    /// Total buggy cases.
    pub total: u32,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-CWE rows, ascending.
    pub rows: Vec<Table3Row>,
    /// Scaling divisor used (`--div`; 1 = the paper's full counts, larger
    /// values subsample each family).
    pub divisor: u32,
}

/// Human-readable CWE titles (the paper's row labels).
pub fn cwe_title(cwe: u32) -> &'static str {
    match cwe {
        121 => "Stack Buffer Overflow",
        122 => "Heap Buffer Overflow",
        124 => "Buffer Underwrite",
        126 => "Buffer Overread",
        127 => "Buffer Underread",
        416 => "Use After Free",
        476 => "NULL Pointer Dereference",
        761 => "Free Pointer Not at Start of Buffer",
        _ => "Unknown",
    }
}

impl Table3 {
    /// Folds [`Table3Entry`]'s per-case records into per-CWE rows.
    pub fn from_records(opts: &StudyOpts, records: &[Record]) -> Result<Table3, String> {
        let mut rows: Vec<Table3Row> = paper_totals()
            .iter()
            .map(|&(cwe, _)| Table3Row {
                cwe,
                detected: vec![0; COLUMNS.len()],
                false_positives: vec![0; COLUMNS.len()],
                total: 0,
            })
            .collect();
        for r in records {
            let cwe = study::req_u64(&r.payload, "cwe") as u32;
            let buggy = study::req_bools(&r.payload, "buggy");
            let safe = study::req_bools(&r.payload, "safe");
            let row = rows
                .iter_mut()
                .find(|row| row.cwe == cwe)
                .ok_or_else(|| format!("unknown CWE family {cwe}"))?;
            row.total += 1;
            for (t, (&b, &s)) in buggy.iter().zip(&safe).enumerate() {
                if b {
                    row.detected[t] += 1;
                }
                if s {
                    row.false_positives[t] += 1;
                }
            }
        }
        Ok(Table3 {
            rows,
            divisor: opts.div,
        })
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut headers = vec!["CWE ID & Type".to_string()];
        headers.extend(COLUMNS.iter().map(|t| t.name().to_string()));
        headers.push("Total".to_string());
        let mut t = TextTable::new(headers);
        let mut sums = vec![0u32; COLUMNS.len()];
        let mut total = 0u32;
        for r in &self.rows {
            let mut cells = vec![format!("{}: {}", r.cwe, cwe_title(r.cwe))];
            for (i, d) in r.detected.iter().enumerate() {
                cells.push(d.to_string());
                sums[i] += d;
            }
            cells.push(r.total.to_string());
            total += r.total;
            t.row(cells);
        }
        t.separator();
        let mut cells = vec!["Total".to_string()];
        cells.extend(sums.iter().map(|s| s.to_string()));
        cells.push(total.to_string());
        t.row(cells);
        let mut s = t.render();
        let fps: u32 = self
            .rows
            .iter()
            .flat_map(|r| r.false_positives.iter())
            .sum();
        s.push_str(&format!(
            "\nFalse positives on non-buggy twins: {fps} (paper: all tools pass all non-buggy tests)\n"
        ));
        if self.divisor > 1 {
            s.push_str(&format!(
                "(subsampled 1/{}; run with --div 1 for the paper's full counts)\n",
                self.divisor
            ));
        }
        s
    }
}

/// The column tools' session specs.
fn column_specs() -> Vec<SessionSpec> {
    COLUMNS
        .iter()
        .map(|tool| tool.builder().config(RuntimeConfig::small()).spec())
        .collect()
}

/// Runs one Juliet case's buggy and safe twins under every column tool,
/// with `plans` the per-tool plans of the case's template. The payload is
/// its CWE plus per-tool verdicts on each twin.
fn run_case(
    specs: &[SessionSpec],
    program: &Program,
    plans: &[CheckPlan],
    case: &JulietCase,
) -> Json {
    let (buggy, safe): (Vec<bool>, Vec<bool>) = specs
        .iter()
        .zip(plans)
        .map(|(spec, plan)| {
            (
                spec.run_planned(program, plan, &case.buggy_inputs)
                    .detected(),
                spec.run_planned(program, plan, &case.safe_inputs)
                    .detected(),
            )
        })
        .unzip();
    Json::obj()
        .field("cwe", case.cwe)
        .field("buggy", study::bools(&buggy))
        .field("safe", study::bools(&safe))
}

/// `repro table3` as a [`Study`]: one cell per Juliet case.
#[derive(Debug, Clone, Copy)]
pub struct Table3Entry;

impl Study for Table3Entry {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(juliet_suite_scaled(opts.div)
            .cases
            .iter()
            .enumerate()
            .map(|(i, c)| format!("cwe{}/case{i}", c.cwe))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let suite = juliet_suite_scaled(opts.div);
        let case = &suite.cases[index];
        let program = &suite.templates[case.template];
        let specs = column_specs();
        let plans: Vec<CheckPlan> = specs.iter().map(|s| s.plan(program)).collect();
        run_case(&specs, program, &plans, case)
    }

    /// Hoists the suite and the per-(template, tool) plan cache once per
    /// range — templates are shared across thousands of cases — while
    /// producing exactly the payloads [`Study::run_cell`] would.
    fn run_range(
        &self,
        opts: &StudyOpts,
        range: std::ops::Range<usize>,
        runner: &BatchRunner,
    ) -> Vec<Json> {
        let suite = juliet_suite_scaled(opts.div);
        let specs = column_specs();
        let plans: Vec<Vec<CheckPlan>> = suite
            .templates
            .iter()
            .map(|p| specs.iter().map(|s| s.plan(p)).collect())
            .collect();
        let indices: Vec<usize> = range.collect();
        runner.map(&indices, |_, &i| {
            let case = &suite.cases[i];
            run_case(
                &specs,
                &suite.templates[case.template],
                &plans[case.template],
                case,
            )
        })
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table3::from_records(opts, records)?;
        Ok(StudyOutput {
            report: format!("== Table 3: Juliet-like detection ==\n\n{}\n", t.render()),
            artifacts: vec![("table3.csv".to_string(), crate::csv::table3_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    fn table3_at(div: u32) -> Table3 {
        let opts = StudyOpts {
            div,
            ..StudyOpts::default()
        };
        let records = Campaign::new(&Table3Entry, opts.clone())
            .unwrap()
            .run_all(&BatchRunner::default());
        Table3::from_records(&opts, &records).unwrap()
    }

    #[test]
    fn subsampled_table_has_paper_shape() {
        let t = table3_at(30);
        // Column indexes.
        let (gs, asan, asanmm, lfp) = (0, 1, 2, 3);
        for r in &t.rows {
            // Location-based tools agree with each other everywhere.
            assert_eq!(r.detected[gs], r.detected[asan], "CWE-{}", r.cwe);
            assert_eq!(r.detected[asan], r.detected[asanmm], "CWE-{}", r.cwe);
            // No tool reports on safe twins.
            assert_eq!(r.false_positives.iter().sum::<u32>(), 0, "CWE-{}", r.cwe);
            match r.cwe {
                121 => assert!(r.detected[lfp] < r.detected[gs] / 4),
                122 => assert!(r.detected[lfp] < r.detected[gs] / 4),
                126 => assert!(r.detected[lfp] < r.detected[gs]),
                124 | 127 | 416 | 476 | 761 => {
                    assert_eq!(r.detected[lfp], r.detected[gs], "CWE-{}", r.cwe)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn render_includes_titles() {
        let t = table3_at(120);
        let s = t.render();
        assert!(s.contains("Use After Free"));
        assert!(s.contains("False positives"));
    }
}
