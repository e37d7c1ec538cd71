//! The end-to-end telemetry study behind `repro trace`.
//!
//! One (workload × tool) pair is run as a small cell matrix with the full
//! telemetry pipeline attached: the planner runs under
//! [`analyze_recorded`] (per-pass events) and every cell runs under a
//! [`TraceRecorder`] (check / quasi-bound / allocator / containment events
//! plus the sampling histograms). The study exports the data plane only,
//! so every file it renders is deterministic:
//!
//! * **JSON Lines** — the event stream, sorted by `(cell, seq)`; its FNV-1a
//!   digest is invariant under thread count.
//! * **Prometheus text exposition** — final counters, log2 histograms, and
//!   the per-site check-path mix.
//! * **Causal spans** — the request → … → cell chain with pass and
//!   slow-path check leaves.
//!
//! The wall-clock schedule (worker tracks, cell slices) is the presentation
//! plane: `repro trace --telemetry PATH` writes it from the batch engine's
//! flight recorder, as it does for every other study.
//!
//! [`TraceEntry`] runs the cells; [`TraceStudy::from_records`] reassembles
//! them into the merged stream, histograms, counters and span chain.
//! [`TraceStudy::hotspots`] ranks sites by slow-path share, which on the
//! paper's Figure 8 example singles out the data-dependent `y[j]` store
//! (history-cache refreshes) and the hoisted pre-header / loop-final region
//! checks — exactly the sites the paper's optimisation story is about.

use giantsan_analysis::analyze_recorded;
use giantsan_ir::Program;
use giantsan_runtime::Counters;
use giantsan_telemetry::export::{events_jsonl, prometheus, text_digest};
use giantsan_telemetry::{
    site_label, Histograms, Log2Hist, PathMix, SpanKind, SpanSet, TraceRecorder,
};
use giantsan_workloads::{figure8_program, spec_workload};

use crate::campaign::Campaign;
use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::{pct, TextTable};
use crate::tool::Tool;

/// Number of batch cells a trace study runs (cell ids `1..=DEFAULT_CELLS`;
/// cell 0 carries the planner's per-pass events).
pub const DEFAULT_CELLS: u32 = 4;

/// Data-plane summary of one executed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRun {
    /// Cell id (1-based; 0 is the planning cell).
    pub cell: u32,
    /// [`giantsan_ir::ExecResult::digest`] of the run.
    pub result_digest: u64,
    /// Executed statement count.
    pub steps: u64,
    /// Error reports raised.
    pub reports: usize,
    /// Events this cell emitted (before any cap).
    pub events: usize,
    /// The cell's sanitizer counters.
    pub counters: Counters,
}

/// Everything one `repro trace` invocation collected.
#[derive(Debug, Clone)]
pub struct TraceStudy {
    /// Workload id (`figure8` or a SPEC row id).
    pub workload: String,
    /// The traced tool.
    pub tool: Tool,
    /// Shadow-kernel backend the cells executed under (e.g. `simd-avx2`).
    ///
    /// Presentation metadata only: the data-plane events and their digest
    /// are kernel-invariant by the backend contract, so this appears in the
    /// Prometheus exposition and the report header but never in the JSONL.
    pub kernel: &'static str,
    /// Worker-pool size the cells were scheduled across.
    pub threads: usize,
    /// Merged data-plane event stream as JSON Lines, sorted by
    /// `(cell, seq)`.
    pub events_jsonl: String,
    /// Number of events in the stream.
    pub events: usize,
    /// Merged sampling histograms (all cells).
    pub hists: Histograms,
    /// Events past the per-cell recorder caps (sampled, not buffered).
    pub dropped: u64,
    /// Summed sanitizer counters across cells.
    pub counters: Counters,
    /// Per-cell run summaries, in cell order.
    pub runs: Vec<TraceRun>,
    /// The deterministic request → … → cell span chain, with Pass and
    /// slow-path Check leaves (see [`trace_spans`]).
    pub spans: SpanSet,
}

/// Builds the program under study. `figure8` is the paper's worked example;
/// anything else is looked up as a SPEC-model row id.
fn workload_program(id: &str, scale: u64) -> Option<(Program, Vec<i64>)> {
    if id == "figure8" {
        Some(figure8_program((64 * scale) as i64))
    } else {
        spec_workload(id, scale).map(|w| (w.program, w.inputs))
    }
}

/// Per-cell inputs: figure8 scales its trip count with the cell id (so the
/// cells exercise different convergence lengths); SPEC workloads replay
/// their fixed input tape in every cell.
fn cell_inputs(id: &str, scale: u64, cell: u32, base: &[i64]) -> Vec<i64> {
    if id == "figure8" {
        vec![(64 * scale * cell as u64) as i64]
    } else {
        base.to_vec()
    }
}

impl TraceStudy {
    /// Reassembles [`TraceEntry`]'s records (the planning cell, then the
    /// executed cells, in index order). Each record's JSONL slice is already
    /// `(cell, seq)`-sorted, so concatenating them in order yields the
    /// merged stream, whatever the thread count or shard split. The span
    /// seed is the campaign spec hash — the fingerprint sharding and
    /// resuming verify, which already excludes `--threads`.
    pub fn from_records(opts: &StudyOpts, records: &[Record]) -> Result<TraceStudy, String> {
        let mut events_jsonl = String::new();
        let mut hists = Histograms::default();
        let mut dropped = 0u64;
        let mut events = 0usize;
        let mut counters = Counters::default();
        let mut runs = Vec::new();
        for r in records {
            events_jsonl.push_str(study::req_str(&r.payload, "jsonl"));
            hists.merge(&hists_from(study::req(&r.payload, "hists")));
            dropped += study::req_u64(&r.payload, "dropped");
            events += study::req_u64(&r.payload, "events") as usize;
            if study::req_str(&r.payload, "kind") == "run" {
                let run_counters = Counters::from_field_values(
                    study::req_u64s(&r.payload, "counters")
                        .try_into()
                        .expect("counters payload carries every field"),
                );
                counters += &run_counters;
                runs.push(TraceRun {
                    cell: study::req_u64(&r.payload, "cell") as u32,
                    result_digest: study::req_hex(&r.payload, "result_digest"),
                    steps: study::req_u64(&r.payload, "steps"),
                    reports: study::req_u64(&r.payload, "reports") as usize,
                    events: study::req_u64(&r.payload, "events") as usize,
                    counters: run_counters,
                });
            }
        }
        let seed = Campaign::new(&TraceEntry, opts.clone())
            .map_err(|e| e.to_string())?
            .spec_hash();
        Ok(TraceStudy {
            workload: opts.workload.clone(),
            tool: opts.tool,
            kernel: giantsan_shadow::kernel::active().name(),
            threads: opts.threads,
            events_jsonl,
            events,
            hists,
            dropped,
            counters,
            runs,
            spans: trace_spans(seed, &opts.workload, opts.tool, records),
        })
    }

    /// FNV-1a digest of the JSONL bytes — the thread-invariant fingerprint
    /// CI diffs serial vs parallel.
    pub fn digest(&self) -> u64 {
        text_digest(&self.events_jsonl)
    }

    /// The one-line digest artefact (`trace_digest.txt`).
    pub fn digest_artifact(&self) -> String {
        format!("{:#018x}\n", self.digest())
    }

    /// The Prometheus text exposition: summed sanitizer counters, the four
    /// log2 histograms, the per-site path mix, and the dropped-event count.
    pub fn prometheus(&self) -> String {
        let counters: Vec<(&str, u64)> = self.counters.fields().collect();
        prometheus(self.kernel, &counters, &self.hists, self.dropped)
    }

    /// The top `n` sites by slow-path share (ties broken by visit volume,
    /// then site id). Sentinel sites render via [`site_label`].
    pub fn hotspots(&self, n: usize) -> Vec<(u32, PathMix)> {
        let mut v: Vec<(u32, PathMix)> = self.hists.sites.iter().map(|(s, m)| (*s, *m)).collect();
        v.sort_by(|a, b| {
            b.1.slow_share()
                .total_cmp(&a.1.slow_share())
                .then(b.1.total().cmp(&a.1.total()))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// Renders the study: run summaries plus the hot-spot table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} under {} [kernel={}]: {} cells on {} worker(s), {} events ({} dropped), \
             digest {:#018x}\n\n",
            self.workload,
            self.tool.name(),
            self.kernel,
            self.runs.len(),
            self.threads,
            self.events,
            self.dropped,
            self.digest()
        ));

        let mut t = TextTable::new(
            ["cell", "steps", "events", "reports", "result digest"]
                .map(String::from)
                .to_vec(),
        );
        for r in &self.runs {
            t.row(vec![
                r.cell.to_string(),
                r.steps.to_string(),
                r.events.to_string(),
                r.reports.to_string(),
                format!("{:#018x}", r.result_digest),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\n-- hot spots by slow-path share --\n");
        let mut t = TextTable::new(
            [
                "site", "total", "fast", "hit", "update", "slow", "under", "arith", "skip", "slow%",
            ]
            .map(String::from)
            .to_vec(),
        );
        for (site, mix) in self.hotspots(10) {
            t.row(vec![
                site_label(site),
                mix.total().to_string(),
                mix.fast.to_string(),
                mix.cache_hits.to_string(),
                mix.cache_updates.to_string(),
                mix.slow.to_string(),
                mix.underflow.to_string(),
                mix.arith.to_string(),
                mix.skipped.to_string(),
                pct(mix.slow_share() * 100.0),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

/// The request → admission → scheduler → job → shard spine every trace
/// invocation hangs its cell spans off. A CLI invocation has no admission
/// queue or worker pool, but sharing the serve taxonomy means one resolver
/// (`spans.jsonl` + [`giantsan_telemetry::parse_span_line`]) works on both
/// a service job's dump and a `repro trace` artifact. Returns the set and
/// the shard span id cells attach to.
fn span_spine(seed: u64, workload: &str, tool: Tool, cells: usize) -> (SpanSet, u64) {
    let mut set = SpanSet::new();
    let root = set.root(
        seed,
        format!("repro trace: {workload} under {}", tool.name()),
    );
    let adm = set.child(root, SpanKind::Admission, 0, "local invocation (no queue)");
    let sched = set.child(adm, SpanKind::Scheduler, 0, "in-process batch runner");
    let job = set.child(sched, SpanKind::Job, 0, "trace");
    let shard = set.child(
        job,
        SpanKind::Shard,
        0,
        format!("shard 0 (cells 0..{cells})"),
    );
    (set, shard)
}

/// Rebuilds the span chain from campaign shard payloads: the spine from
/// `span_spine`, one cell span per record, Pass leaves parsed back out of
/// each record's rendered JSONL slice, and Check leaves recomputed from the
/// record's sampling histograms (`slow + cache_update + underflow` is
/// exactly the set [`CheckPathKind::is_slow_path`] charges, so the labels
/// match [`SpanSet::hotspots`] byte for byte).
///
/// [`CheckPathKind::is_slow_path`]: giantsan_telemetry::CheckPathKind::is_slow_path
pub fn trace_spans(seed: u64, workload: &str, tool: Tool, records: &[Record]) -> SpanSet {
    let (mut set, shard) = span_spine(seed, workload, tool, records.len());
    for (index, r) in records.iter().enumerate() {
        let cell_span = set.child(shard, SpanKind::Cell, index as u64, r.label.clone());
        let mut pass_ordinal = 0u64;
        for line in study::req_str(&r.payload, "jsonl").lines() {
            if !line.contains("\"ev\":\"pass\"") {
                continue;
            }
            let Some(name) = line
                .split_once(",\"pass\":\"")
                .and_then(|(_, rest)| rest.split('"').next())
            else {
                continue;
            };
            let state = if line.contains("\"enabled\":false") {
                " (disabled)"
            } else {
                ""
            };
            set.child(
                cell_span,
                SpanKind::Pass,
                pass_ordinal,
                format!("{name}{state}"),
            );
            pass_ordinal += 1;
        }
        let hists = hists_from(study::req(&r.payload, "hists"));
        let mut sites: Vec<(u32, u64)> = hists
            .sites
            .iter()
            .map(|(site, m)| (*site, m.slow + m.cache_updates + m.underflow))
            .filter(|&(_, slow)| slow > 0)
            .collect();
        sites.sort_by_key(|&(site, _)| site);
        for (site, slow) in sites {
            set.child(
                cell_span,
                SpanKind::Check,
                site as u64,
                format!("{} ({slow} slow-path)", site_label(site)),
            );
        }
    }
    set
}

// ---------------------------------------------------------------------------
// Histogram payload codec: campaign shards carry each cell's sampling
// histograms through JSON. Encoding is sparse (non-empty buckets only) and
// decoding is exact, so merged histograms equal the monolithic run's.
// ---------------------------------------------------------------------------

/// Encodes one log2 histogram as `{"b": [[bucket, count], ...], "count": n,
/// "sum": s}` with empty buckets omitted.
fn log2_json(h: &Log2Hist) -> Json {
    let b: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| Json::from(vec![Json::from(i as u64), Json::from(c)]))
        .collect();
    Json::obj()
        .field("b", b)
        .field("count", h.count)
        .field("sum", h.sum)
}

fn log2_from(j: &Json) -> Log2Hist {
    let mut h = Log2Hist::default();
    for pair in study::req_array(j, "b") {
        let pair = pair.as_array().expect("histogram bucket pair");
        let i = pair[0].as_u64().expect("bucket index") as usize;
        h.buckets[i] = pair[1].as_u64().expect("bucket count");
    }
    h.count = study::req_u64(j, "count");
    h.sum = study::req_u64(j, "sum");
    h
}

/// [`PathMix`] fields in payload array order.
fn mix_values(m: &PathMix) -> [u64; 7] {
    [
        m.fast,
        m.slow,
        m.cache_hits,
        m.cache_updates,
        m.underflow,
        m.arith,
        m.skipped,
    ]
}

fn mix_from(values: &[u64]) -> PathMix {
    PathMix {
        fast: values[0],
        slow: values[1],
        cache_hits: values[2],
        cache_updates: values[3],
        underflow: values[4],
        arith: values[5],
        skipped: values[6],
    }
}

/// Encodes a full [`Histograms`] set (the four log2 histograms plus the
/// per-site path mixes).
fn hists_json(h: &Histograms) -> Json {
    let sites: Vec<Json> = h
        .sites
        .iter()
        .map(|(site, mix)| {
            Json::obj()
                .field("site", *site)
                .field("mix", study::u64s(&mix_values(mix)))
        })
        .collect();
    Json::obj()
        .field("region_sizes", log2_json(&h.region_sizes))
        .field("fold_depths", log2_json(&h.fold_depths))
        .field("convergence", log2_json(&h.convergence))
        .field("alloc_sizes", log2_json(&h.alloc_sizes))
        .field("sites", sites)
}

/// Inverse of [`hists_json`].
fn hists_from(j: &Json) -> Histograms {
    let mut h = Histograms {
        region_sizes: log2_from(study::req(j, "region_sizes")),
        fold_depths: log2_from(study::req(j, "fold_depths")),
        convergence: log2_from(study::req(j, "convergence")),
        alloc_sizes: log2_from(study::req(j, "alloc_sizes")),
        sites: Default::default(),
    };
    for site in study::req_array(j, "sites") {
        let mix = study::req_u64s(site, "mix");
        h.sites
            .insert(study::req_u64(site, "site") as u32, mix_from(&mix));
    }
    h
}

/// `repro trace` as a [`Study`]: cell 0 is the planner (its per-pass
/// events), cells 1..=[`DEFAULT_CELLS`] are the executed batch cells. Each
/// payload carries the cell's rendered JSONL slice, so a merged campaign
/// concatenates them in index order into the exact monolithic event stream
/// (events are already `(cell, seq)`-sorted within a cell).
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry;

impl Study for TraceEntry {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn cells(&self, opts: &StudyOpts) -> Result<Vec<String>, String> {
        workload_program(&opts.workload, opts.scale).ok_or_else(|| {
            format!(
                "unknown workload `{}` (figure8 or a SPEC row id like 519.lbm_r)",
                opts.workload
            )
        })?;
        let mut labels = vec!["plan".to_string()];
        labels.extend((1..=DEFAULT_CELLS).map(|c| format!("cell-{c}")));
        Ok(labels)
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        let (program, base_inputs) =
            workload_program(&opts.workload, opts.scale).expect("validated by cells()");
        if index == 0 {
            // The planning cell: per-pass events (none under Native).
            let mut rec = TraceRecorder::for_cell(0);
            let spec = opts.tool.builder().spec();
            if opts.tool != Tool::Native {
                analyze_recorded(&program, &spec.profile(), &mut rec);
            }
            let (ev, h, d) = rec.finish();
            return Json::obj()
                .field("kind", "plan")
                .field("jsonl", events_jsonl(&ev))
                .field("events", ev.len() as u64)
                .field("dropped", d)
                .field("hists", hists_json(&h));
        }
        let cell = index as u32;
        let spec = opts.tool.builder().spec();
        let plan = spec.plan(&program);
        let inputs = cell_inputs(&opts.workload, opts.scale, cell, &base_inputs);
        let mut rec = TraceRecorder::for_cell(cell);
        let out = spec.run_planned_recorded(&program, &plan, &inputs, &mut rec);
        let (ev, h, d) = rec.finish();
        Json::obj()
            .field("kind", "run")
            .field("cell", cell)
            .field("jsonl", events_jsonl(&ev))
            .field("steps", out.result.steps)
            .field("reports", out.result.reports.len() as u64)
            .field("result_digest", Json::hex(out.result.digest()))
            .field("events", ev.len() as u64)
            .field("counters", study::u64s(&out.counters.field_values()))
            .field("dropped", d)
            .field("hists", hists_json(&h))
    }

    fn render(&self, opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let s = TraceStudy::from_records(opts, records)?;
        let report = format!(
            "== End-to-end telemetry trace: {} under {} ==\n\n{}\n",
            opts.workload,
            opts.tool.name(),
            s.render()
        );
        Ok(StudyOutput {
            report,
            main_artifacts: vec![
                ("trace_events.jsonl".to_string(), s.events_jsonl.clone()),
                ("trace_metrics.prom".to_string(), s.prometheus()),
                ("trace_digest.txt".to_string(), s.digest_artifact()),
                ("trace_spans.jsonl".to_string(), s.spans.to_jsonl()),
                (
                    "trace_span_digest.txt".to_string(),
                    format!("{:#018x}\n", s.spans.digest()),
                ),
            ],
            artifacts: vec![(
                "trace_counters.csv".to_string(),
                crate::csv::trace_counters_csv(&s),
            )],
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use giantsan_telemetry::PRE_CHECK_SITE;

    fn opts(workload: &str, tool: Tool) -> StudyOpts {
        StudyOpts {
            workload: workload.to_string(),
            tool,
            ..StudyOpts::default()
        }
    }

    fn records(opts: &StudyOpts, runner: &BatchRunner) -> Vec<Record> {
        Campaign::new(&TraceEntry, opts.clone())
            .unwrap()
            .run_all(runner)
    }

    fn traced(workload: &str, tool: Tool) -> TraceStudy {
        let opts = opts(workload, tool);
        TraceStudy::from_records(&opts, &records(&opts, &BatchRunner::default())).unwrap()
    }

    /// Whether any event line of `cell` (any cell if `None`) has kind `ev`.
    fn has_event(s: &TraceStudy, cell: Option<u32>, ev: &str) -> bool {
        let cell = cell.map(|c| format!("{{\"cell\":{c},"));
        s.events_jsonl.lines().any(|l| {
            l.contains(&format!("\"ev\":\"{ev}\""))
                && cell.as_ref().is_none_or(|c| l.starts_with(c.as_str()))
        })
    }

    #[test]
    fn figure8_trace_covers_every_layer() {
        let s = traced("figure8", Tool::GiantSan);
        assert_eq!(s.runs.len(), DEFAULT_CELLS as usize);
        assert_eq!(s.events, s.events_jsonl.lines().count());
        // Planner events (cell 0) are present alongside run events.
        assert!(has_event(&s, Some(0), "pass"));
        assert!(has_event(&s, None, "run"));
        assert!(has_event(&s, None, "alloc"));
        // All three figure8 sites were observed.
        for site in [0u32, 1, 2] {
            assert!(s.hists.site(site).is_some(), "site {site} missing");
        }
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn figure8_hotspots_single_out_the_slow_path_sites() {
        let s = traced("figure8", Tool::GiantSan);
        // The data-dependent y[j] store (site 1) refreshes its history
        // cache once per cell, then hits it for the rest of the loop.
        let site1 = s.hists.site(1).expect("site 1 traced");
        assert_eq!(site1.cache_updates, DEFAULT_CELLS as u64, "{site1:?}");
        assert!(site1.cache_hits > site1.cache_updates, "{site1:?}");
        // The hoisted pre-header region check runs once per cell and is the
        // only metadata work left for x[i]; site 0 itself is eliminated.
        let pre = s.hists.site(PRE_CHECK_SITE).expect("pre-header traced");
        assert_eq!(pre.total(), DEFAULT_CELLS as u64, "{pre:?}");
        assert_eq!(pre.fast + pre.slow, pre.total(), "{pre:?}");
        let site0 = s.hists.site(0).expect("site 0 traced");
        assert_eq!(site0.total(), site0.skipped, "{site0:?}");
        // Ranking: the once-per-cell region checks (memset guardian,
        // pre-header) carry the highest slow-path share, the cached y[j]
        // store follows, and the eliminated x[i] load ranks below them all.
        let hot: Vec<u32> = s.hotspots(10).into_iter().map(|(site, _)| site).collect();
        let pos = |s: u32| hot.iter().position(|&x| x == s);
        assert!(pos(2) < pos(1), "{hot:?}");
        assert!(pos(PRE_CHECK_SITE) < pos(1), "{hot:?}");
        assert!(pos(1) < pos(0), "{hot:?}");
        let rendered = s.render();
        assert!(rendered.contains("pre-header"), "{rendered}");
        assert!(rendered.contains("hot spots"));
    }

    #[test]
    fn exporters_render_all_three_formats() {
        // The Chrome schedule is `--telemetry`'s, pinned by
        // tests/telemetry_flag.rs.
        let opts = opts("figure8", Tool::GiantSan);
        let s = TraceStudy::from_records(&opts, &records(&opts, &BatchRunner::new(2))).unwrap();
        assert!(s.events_jsonl.lines().count() > 10);
        assert!(s.events_jsonl.starts_with("{\"cell\":0,\"seq\":0,"));
        let prom = s.prometheus();
        assert!(prom.contains(&format!(
            "giantsan_kernel_info{{kernel=\"{}\"}} 1",
            s.kernel
        )));
        assert!(prom.contains("giantsan_shadow_loads_total"));
        assert!(prom.contains("giantsan_site_checks_total"));
        assert!(s.digest_artifact().starts_with("0x"));
    }

    #[test]
    fn span_chain_matches_the_live_event_stream() {
        let opts = opts("figure8", Tool::GiantSan);
        let s = TraceStudy::from_records(&opts, &records(&opts, &BatchRunner::new(4))).unwrap();
        let seed = Campaign::new(&TraceEntry, opts.clone())
            .unwrap()
            .spec_hash();

        // The payload-reconstructed chain equals the one
        // `SpanSet::hotspots` derives from each cell's live events.
        let (program, base_inputs) = workload_program("figure8", 1).unwrap();
        let spec = Tool::GiantSan.builder().spec();
        let cells = DEFAULT_CELLS as usize + 1;
        let (mut live, shard) = span_spine(seed, "figure8", Tool::GiantSan, cells);
        for cell in 0..=DEFAULT_CELLS {
            let mut rec = TraceRecorder::for_cell(cell);
            let label = if cell == 0 {
                analyze_recorded(&program, &spec.profile(), &mut rec);
                "plan".to_string()
            } else {
                let inputs = cell_inputs("figure8", 1, cell, &base_inputs);
                spec.run_planned_recorded(&program, &spec.plan(&program), &inputs, &mut rec);
                format!("cell-{cell}")
            };
            let cell_span = live.child(shard, SpanKind::Cell, cell as u64, label);
            live.hotspots(cell_span, &rec.finish().0);
        }
        assert_eq!(live.to_jsonl(), s.spans.to_jsonl());

        // The chain is causally complete: every span resolves to the
        // request root, and pass + slow-path leaves made it in.
        let spans = &s.spans;
        let root = spans.spans()[0].id;
        assert_eq!(spans.find(root).unwrap().kind, SpanKind::Request);
        for span in spans.spans() {
            assert_eq!(*spans.ancestry(span.id).last().unwrap(), root, "{span:?}");
        }
        assert!(spans.spans().iter().any(|s| s.kind == SpanKind::Pass));
        assert!(spans.spans().iter().any(|s| s.kind == SpanKind::Check));
    }

    #[test]
    fn spec_workloads_and_native_trace_too() {
        let s = traced("519.lbm_r", Tool::Asan);
        assert!(s.events > 0);
        let native = traced("figure8", Tool::Native);
        // No planner events for Native (no pipeline runs), but run events
        // still flow; every check is planner-skipped.
        assert!(!has_event(&native, None, "pass"));
        assert!(has_event(&native, None, "run"));
        assert!(native.hists.sites.values().all(|m| m.total() == m.skipped));
        assert!(Campaign::new(&TraceEntry, opts("nope", Tool::GiantSan)).is_err());
    }
}
