//! Plan provenance study: what the planner decided, per pass and per site.
//!
//! Not a figure from the paper but an observability surface over its
//! compilation phase (§4.4): for each (workload × tool) cell this runs the
//! pass pipeline and records the full [`Analysis`] — per-site fates with the
//! deciding pass and its reasoning, plus per-pass visited / transformed /
//! eliminated counters and wall time. `repro plan` renders the tables and
//! exports both as CSV.

use giantsan_analysis::{analyze, Analysis, SiteFate};
use giantsan_ir::Program;
use giantsan_workloads::{figure8_program, spec_workload};

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;
use crate::tool::Tool;

/// Site fates in the summary table's column order.
pub const FATES: [SiteFate; 8] = [
    SiteFate::Direct,
    SiteFate::Anchored,
    SiteFate::MergeLeader,
    SiteFate::MergedAway,
    SiteFate::Promoted,
    SiteFate::Cached,
    SiteFate::MemIntrinsic,
    SiteFate::StaticallySafe,
];

/// The workloads under study: the paper's worked example plus three
/// SPEC-model programs with distinct planner behavior (stencil,
/// pointer-chasing, byte-stream) — the same set the golden plan snapshots
/// lock.
pub const WORKLOADS: [&str; 4] = ["figure8", "519.lbm_r", "505.mcf_r", "557.xz_r"];

/// One (workload × tool) cell: the full analysis result.
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Workload id.
    pub workload: &'static str,
    /// The analysed tool.
    pub tool: Tool,
    /// The pipeline's output: plan, fates, provenance, pass statistics.
    pub analysis: Analysis,
}

fn workload_program(id: &str, scale: u64) -> Program {
    if id == "figure8" {
        figure8_program((100 * scale) as i64).0
    } else {
        spec_workload(id, scale)
            .expect("known SPEC-model id")
            .program
    }
}

/// Runs the planner for cell `index` (workload-major in [`WORKLOADS`] /
/// [`Tool::ALL`] order).
fn plan_cell(opts: &StudyOpts, index: usize) -> PlanCell {
    let workload = WORKLOADS[index / Tool::ALL.len()];
    let tool = Tool::ALL[index % Tool::ALL.len()];
    let program = workload_program(workload, opts.scale);
    PlanCell {
        workload,
        tool,
        analysis: analyze(&program, &tool.builder().spec().profile()),
    }
}

/// One cell's fate counts in [`FATES`] order.
fn fate_counts_of(cell: &PlanCell) -> Vec<u64> {
    let counts = cell.analysis.fate_counts();
    FATES
        .iter()
        .map(|f| counts.get(f).copied().unwrap_or(0) as u64)
        .collect()
}

/// One cell's detail section of the text report.
fn cell_block(cell: &PlanCell) -> String {
    format!(
        "\n== {} under {} ==\n{}{}",
        cell.workload,
        cell.tool.name(),
        cell.analysis.render_pass_stats(),
        cell.analysis.render_provenance()
    )
}

/// One cell's subtree of the JSON document (wall time excluded, so the
/// subtree is deterministic and campaign-shardable).
fn cell_json(cell: &PlanCell) -> Json {
    let sites: Vec<Json> = cell
        .analysis
        .fates
        .iter()
        .enumerate()
        .map(|(i, fate)| {
            let mut site = Json::obj()
                .field("site", i)
                .field("fate", format!("{fate:?}"));
            if let Some(p) = &cell.analysis.provenance[i] {
                site = site
                    .field("pass", p.pass.name())
                    .field("reason", p.reason.as_str());
            }
            site
        })
        .collect();
    let passes: Vec<Json> = cell
        .analysis
        .pass_stats
        .iter()
        .map(|p| {
            Json::obj()
                .field("pass", p.pass.name())
                .field("enabled", p.enabled)
                .field("visited", p.visited)
                .field("transformed", p.transformed)
                .field("eliminated", p.eliminated)
        })
        .collect();
    Json::obj()
        .field("workload", cell.workload)
        .field("tool", cell.tool.name())
        .field("sites", sites)
        .field("passes", passes)
}

/// The summary fate table over `(workload, tool, counts)` triples.
fn fate_table(rows: &[(String, String, Vec<u64>)]) -> String {
    let mut head = vec!["workload".to_string(), "tool".to_string()];
    head.extend(FATES.iter().map(|f| format!("{f:?}")));
    let mut t = TextTable::new(head);
    for (workload, tool, counts) in rows {
        let mut row = vec![workload.clone(), tool.clone()];
        row.extend(counts.iter().map(|c| c.to_string()));
        t.row(row);
    }
    t.render()
}

/// `repro plan` as a [`Study`]: one cell per (workload × tool), carrying the
/// pre-rendered text block, JSON subtree, and CSV rows so a merged campaign
/// reassembles every export byte-identically.
#[derive(Debug, Clone, Copy)]
pub struct PlanEntry;

impl Study for PlanEntry {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(WORKLOADS
            .iter()
            .flat_map(|w| Tool::ALL.iter().map(move |t| format!("{w}/{}", t.name())))
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let cell = plan_cell(opts, index);
        Json::obj()
            .field("workload", cell.workload)
            .field("tool", cell.tool.name())
            .field("fates", study::u64s(&fate_counts_of(&cell)))
            .field("block", cell_block(&cell))
            .field("json", cell_json(&cell))
            .field("prov", crate::csv::plan_provenance_rows(&cell))
            .field("passes", crate::csv::plan_passes_rows(&cell))
    }

    /// Renders a fate-count summary across all cells, then per-cell pass
    /// statistics and the per-site provenance trace. The JSON document
    /// (`repro plan --format json`) excludes per-pass wall time, so it is
    /// byte-identical run to run and thread-count invariant.
    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let mut report =
            String::from("== Planner observability: per-pass statistics + site provenance ==\n\n");
        report.push_str("-- site fates per (workload, tool) --\n");
        let rows: Vec<(String, String, Vec<u64>)> = records
            .iter()
            .map(|r| {
                (
                    study::req_str(&r.payload, "workload").to_string(),
                    study::req_str(&r.payload, "tool").to_string(),
                    study::req_u64s(&r.payload, "fates"),
                )
            })
            .collect();
        report.push_str(&fate_table(&rows));
        for r in records {
            report.push_str(study::req_str(&r.payload, "block"));
        }
        report.push('\n');
        let cells: Vec<Json> = records
            .iter()
            .map(|r| study::req(&r.payload, "json").clone())
            .collect();
        let json = Json::obj()
            .field("study", "plan")
            .field("cells", cells)
            .render();
        let mut prov = String::from(crate::csv::PLAN_PROVENANCE_HEADER);
        let mut passes = String::from(crate::csv::PLAN_PASSES_HEADER);
        for r in records {
            prov.push_str(study::req_str(&r.payload, "prov"));
            passes.push_str(study::req_str(&r.payload, "passes"));
        }
        Ok(StudyOutput {
            report,
            json: Some(json),
            artifacts: vec![
                ("plan_provenance.csv".to_string(), prov),
                ("plan_passes.csv".to_string(), passes),
            ],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::campaign::Campaign;
    use giantsan_analysis::{PassId, SiteFate};

    fn cells() -> Vec<PlanCell> {
        let opts = StudyOpts::default();
        (0..PlanEntry.cells(&opts).unwrap().len())
            .map(|i| plan_cell(&opts, i))
            .collect()
    }

    fn cell<'a>(cells: &'a [PlanCell], workload: &str, tool: Tool) -> &'a PlanCell {
        cells
            .iter()
            .find(|c| c.workload == workload && c.tool == tool)
            .unwrap()
    }

    fn output() -> StudyOutput {
        let opts = StudyOpts::default();
        let records = Campaign::new(&PlanEntry, opts.clone())
            .unwrap()
            .run_all(&BatchRunner::default());
        PlanEntry.render(&opts, &records).unwrap()
    }

    #[test]
    fn study_covers_the_full_matrix() {
        let cells = cells();
        assert_eq!(cells.len(), WORKLOADS.len() * Tool::ALL.len());
        // Every decided site carries provenance.
        for cell in &cells {
            for (i, fate) in cell.analysis.fates.iter().enumerate() {
                if cell.analysis.provenance[i].is_none() {
                    assert_eq!(
                        *fate,
                        SiteFate::Direct,
                        "{} / {}: site {i} has a non-default fate but no provenance",
                        cell.workload,
                        cell.tool.name()
                    );
                }
            }
        }
    }

    #[test]
    fn giantsan_pipeline_is_fully_enabled_and_attributed() {
        let cells = cells();
        let cell = cell(&cells, "figure8", Tool::GiantSan);
        assert!(cell.analysis.pass_stats.iter().all(|p| p.enabled));
        let p0 = cell.analysis.provenance[0].as_ref().unwrap();
        assert_eq!(p0.pass, PassId::Promote);
    }

    #[test]
    fn asan_disables_every_optional_pass() {
        let cells = cells();
        let cell = cell(&cells, "519.lbm_r", Tool::Asan);
        for p in &cell.analysis.pass_stats {
            if !p.pass.is_structural() {
                assert!(!p.enabled, "{:?} enabled for ASan", p.pass);
                assert_eq!(p.transformed, 0);
            }
        }
    }

    #[test]
    fn json_export_is_deterministic_and_complete() {
        let cells = cells();
        let j = output().json.unwrap();
        assert!(j.starts_with("{\n  \"study\": \"plan\""));
        assert_eq!(j.matches("\"workload\"").count(), cells.len());
        // One site object per fate, one pass object per pipeline stage.
        let total_sites: usize = cells.iter().map(|c| c.analysis.fates.len()).sum();
        assert_eq!(j.matches("\"fate\"").count(), total_sites);
        assert_eq!(j.matches("\"enabled\"").count(), cells.len() * 9);
        // Wall time is excluded, so the document is run-to-run identical.
        assert!(!j.contains("wall"));
        assert_eq!(j, output().json.unwrap());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn render_shows_tables_traces_and_csvs() {
        let cells = cells();
        let out = output();
        let r = &out.report;
        assert!(r.contains("site fates per (workload, tool)"));
        assert!(r.contains("== figure8 under GiantSan =="));
        assert!(r.contains("const-prop"));
        assert!(r.contains("[promote"), "{r}");

        let csv = |name: &str| {
            out.artifacts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.clone())
                .unwrap()
        };
        let prov = csv("plan_provenance.csv");
        let total_sites: usize = cells.iter().map(|c| c.analysis.fates.len()).sum();
        assert_eq!(prov.lines().count(), total_sites + 1);
        assert!(prov.starts_with("workload,tool,site,fate,pass,reason"));
        assert!(
            prov.contains("figure8,GiantSan,0,Promoted,promote"),
            "{prov}"
        );
        let passes = csv("plan_passes.csv");
        assert_eq!(passes.lines().count(), cells.len() * 9 + 1);
        assert!(passes.contains("figure8,GiantSan,cache,1,"), "{passes}");
    }
}
