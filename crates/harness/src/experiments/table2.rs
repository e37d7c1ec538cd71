//! Table 2: runtime overhead on the SPEC-like suite, with ablation columns.

use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::spec_suite;

use crate::cost::{geomean, CostModel};
use crate::json::Json;
use crate::session::RunOutcome;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::{pct, TextTable};
use crate::tool::Tool;

/// Tool columns in the paper's order (plus the two ablations).
pub const COLUMNS: [Tool; 6] = [
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
    Tool::CacheOnly,
    Tool::EliminationOnly,
];

/// One benchmark row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark id (`"519.lbm_r"`).
    pub id: String,
    /// Native modelled time units.
    pub native_units: f64,
    /// Native wall-clock microseconds.
    pub native_wall_us: f64,
    /// Modelled ratio percentage per column tool.
    pub ratios: Vec<f64>,
    /// Wall-clock ratio percentage per column tool.
    pub wall_ratios: Vec<f64>,
}

/// The full reproduced table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-benchmark rows.
    pub rows: Vec<Table2Row>,
    /// Geometric means of the modelled ratios, per column.
    pub geomeans: Vec<f64>,
    /// Geometric means of the wall-clock ratios, per column.
    pub wall_geomeans: Vec<f64>,
}

fn wall_ratio(native: &RunOutcome, run: &RunOutcome) -> f64 {
    let n = native.wall.as_secs_f64().max(1e-9);
    100.0 * run.wall.as_secs_f64() / n
}

impl Table2 {
    /// Rebuilds the table from [`Table2Entry`]'s records (one per workload,
    /// in suite order); the geomeans fold the rows in that order, so the
    /// table is identical for every thread count and shard split (the
    /// wall-clock *columns* still vary run to run; the modelled columns and
    /// the CSV do not).
    pub fn from_records(_opts: &StudyOpts, records: &[Record]) -> Table2 {
        let rows: Vec<Table2Row> = records
            .iter()
            .map(|r| Table2Row {
                id: study::req_str(&r.payload, "id").to_string(),
                native_units: study::req_f64(&r.payload, "native_units"),
                native_wall_us: study::req_f64(&r.payload, "native_wall_us"),
                ratios: study::req_f64s(&r.payload, "ratios"),
                wall_ratios: study::req_f64s(&r.payload, "wall_ratios"),
            })
            .collect();
        let geomeans = (0..COLUMNS.len())
            .map(|i| geomean(&rows.iter().map(|r| r.ratios[i]).collect::<Vec<_>>()))
            .collect();
        let wall_geomeans = (0..COLUMNS.len())
            .map(|i| geomean(&rows.iter().map(|r| r.wall_ratios[i]).collect::<Vec<_>>()))
            .collect();
        Table2 {
            rows,
            geomeans,
            wall_geomeans,
        }
    }

    /// Renders the table in the paper's layout (modelled ratios).
    pub fn render(&self) -> String {
        let mut headers = vec!["Programs".to_string(), "Native(u)".to_string()];
        headers.extend(COLUMNS.iter().map(|t| format!("{} R", t.name())));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.id.clone(), format!("{:.0}", r.native_units)];
            cells.extend(r.ratios.iter().map(|v| pct(*v)));
            t.row(cells);
        }
        t.separator();
        let mut cells = vec!["Geometric Means.".to_string(), String::new()];
        cells.extend(self.geomeans.iter().map(|v| pct(*v)));
        t.row(cells);
        t.render()
    }

    /// Renders the wall-clock variant of the table.
    pub fn render_wall(&self) -> String {
        let mut headers = vec!["Programs".to_string(), "Native(us)".to_string()];
        headers.extend(COLUMNS.iter().map(|t| format!("{} wall", t.name())));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.id.clone(), format!("{:.0}", r.native_wall_us)];
            cells.extend(r.wall_ratios.iter().map(|v| pct(*v)));
            t.row(cells);
        }
        t.separator();
        let mut cells = vec!["Geometric Means.".to_string(), String::new()];
        cells.extend(self.wall_geomeans.iter().map(|v| pct(*v)));
        t.row(cells);
        t.render()
    }
}

/// `repro table2` as a [`Study`]: one cell per SPEC-like workload, each
/// running the native baseline plus every column tool at `--scale` (1 =
/// quick, larger = steadier wall-clock numbers).
#[derive(Debug, Clone, Copy)]
pub struct Table2Entry;

impl Study for Table2Entry {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(spec_suite(opts.scale)
            .iter()
            .map(|w| w.id.clone())
            .collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let model = CostModel::default();
        let suite = spec_suite(opts.scale);
        let w = &suite[index];
        let run = |tool: Tool| {
            tool.builder()
                .config(RuntimeConfig::default())
                .spec()
                .run(&w.program, &w.inputs)
        };
        let native = run(Tool::Native);
        let mut ratios = Vec::new();
        let mut wall_ratios = Vec::new();
        for tool in COLUMNS {
            let out = run(tool);
            debug_assert!(
                out.result.reports.is_empty(),
                "{}: {} raised reports",
                w.id,
                tool.name()
            );
            ratios.push(model.ratio_percent(tool, &native, &out));
            wall_ratios.push(wall_ratio(&native, &out));
        }
        Json::obj()
            .field("id", w.id.as_str())
            .field("native_units", model.native_units(&native))
            .field("native_wall_us", native.wall.as_secs_f64() * 1e6)
            .field("ratios", study::f64s(&ratios))
            .field("wall_ratios", study::f64s(&wall_ratios))
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let t = Table2::from_records(opts, records);
        let mut report = format!(
            "== Table 2: runtime overhead on the SPEC-like suite ==\n\
             (paper geomeans: GiantSan 146.04%, ASan 212.58%, ASan-- 174.89%, LFP 161.76%,\n \
             CacheOnly 175.63%, EliminationOnly 170.24%)\n\n{}\n",
            t.render()
        );
        if opts.wall {
            report.push_str(&format!(
                "\n-- wall-clock variant --\n{}\n",
                t.render_wall()
            ));
        }
        Ok(StudyOutput {
            report,
            artifacts: vec![("table2.csv".to_string(), crate::csv::table2_csv(&t))],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::campaign::Campaign;

    #[test]
    fn shape_matches_the_paper() {
        let opts = StudyOpts::default();
        let records = Campaign::new(&Table2Entry, opts.clone())
            .unwrap()
            .run_all(&BatchRunner::default());
        let t = Table2::from_records(&opts, &records);
        assert_eq!(t.rows.len(), 24);
        let gm: std::collections::HashMap<&str, f64> = COLUMNS
            .iter()
            .zip(t.geomeans.iter())
            .map(|(tool, g)| (tool.name(), *g))
            .collect();
        // The paper's headline ordering: GiantSan < LFP, ASan-- < ASan, all
        // above native.
        assert!(gm["GiantSan"] < gm["ASan--"], "{gm:?}");
        assert!(gm["ASan--"] < gm["ASan"], "{gm:?}");
        assert!(gm["GiantSan"] < gm["LFP"], "{gm:?}");
        assert!(gm["GiantSan"] > 100.0);
        // Ablations fall between full GiantSan and ASan.
        assert!(gm["CacheOnly"] > gm["GiantSan"]);
        assert!(gm["EliminationOnly"] > gm["GiantSan"]);
        assert!(gm["CacheOnly"] < gm["ASan"]);
        assert!(gm["EliminationOnly"] < gm["ASan"]);

        let s = t.render();
        assert!(s.contains("500.perlbench_r"));
        assert!(s.contains("657.xz_s"));
        assert!(s.contains("Geometric Means."));
    }
}
