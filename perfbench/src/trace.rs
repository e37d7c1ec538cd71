//! In-memory span recording for the traced run, written out as JSON Lines
//! when the run ends.
//!
//! Spans come from the benchmark's own code, around the calls it makes into
//! each crate: `workload → pass → run → {session, plan, exec}`, with one
//! aggregated child per sanitizer method under `exec` (its call count and
//! summed duration), and `request → job` for served jobs.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{CallStats, Method};
use crate::serve::JobOutcome;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<u32>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    /// Calls folded into this span (1 unless aggregated).
    count: u64,
    open: Option<Instant>,
}

/// The recorded spans of one run; id = index.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        let epoch = Instant::now();
        Spans {
            epoch,
            spans: vec![Span {
                parent: None,
                name: "workload".to_string(),
                start_ns: 0,
                dur_ns: 0,
                count: 1,
                open: Some(epoch),
            }],
        }
    }
}

impl Spans {
    /// The workload span every pass hangs off.
    pub fn root(&self) -> u32 {
        0
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, parent: u32, name: String, start: Instant, dur_ns: u64, count: u64) -> u32 {
        let start_ns = self.offset(start);
        self.spans.push(Span {
            parent: Some(parent),
            name,
            start_ns,
            dur_ns,
            count,
            open: None,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that [`Spans::close`] ends.
    pub fn open(&mut self, name: impl Into<String>, parent: u32) -> u32 {
        let now = Instant::now();
        let id = self.push(parent, name.into(), now, 0, 1);
        self.spans[id as usize].open = Some(now);
        id
    }

    pub fn close(&mut self, id: u32) {
        let span = &mut self.spans[id as usize];
        if let Some(t) = span.open.take() {
            span.dur_ns = t.elapsed().as_nanos() as u64;
        }
    }

    /// Records a finished child span that began at `started`; returns its
    /// id and duration in seconds.
    pub fn child(&mut self, name: &str, parent: u32, started: Instant) -> (u32, f64) {
        let dur = started.elapsed();
        let id = self.push(parent, name.to_string(), started, dur.as_nanos() as u64, 1);
        (id, dur.as_secs_f64())
    }

    /// One aggregated span per sanitizer method called under `parent`.
    pub fn calls(&mut self, parent: u32, stats: &CallStats) {
        let start = self.spans[parent as usize].start_ns;
        for m in Method::ALL {
            let (calls, nanos) = (stats.calls[m as usize], stats.nanos[m as usize]);
            if calls > 0 {
                self.spans.push(Span {
                    parent: Some(parent),
                    name: m.name().to_string(),
                    start_ns: start,
                    dur_ns: nanos,
                    count: calls,
                    open: None,
                });
            }
        }
    }

    /// A served job: the request span (the POST round trip) and, under it,
    /// the job span (sent → terminal state), keyed by job id.
    pub fn job(&mut self, id: &str, out: &JobOutcome) {
        let req = self.push(
            0,
            format!("request {id}"),
            out.sent,
            out.submit.as_nanos() as u64,
            1,
        );
        self.push(
            req,
            format!("job {id}"),
            out.sent,
            out.job.as_nanos() as u64,
            1,
        );
    }

    /// Closes the root and writes every span as one JSON line; returns the
    /// span count.
    pub fn write(&mut self, path: &Path) -> std::io::Result<usize> {
        self.close(0);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":{:?},"start_ns":{},"dur_ns":{},"count":{}}}"#,
                s.name, s.start_ns, s.dur_ns, s.count
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut spans = Spans::default();
        let pass = spans.open("pass", spans.root());
        let run = spans.open("run", pass);
        let (exec, secs) = spans.child("exec", run, Instant::now());
        assert!(secs >= 0.0);
        let mut st = CallStats::default();
        st.calls[Method::CheckAccess as usize] = 3;
        st.nanos[Method::CheckAccess as usize] = 30;
        spans.calls(exec, &st);
        spans.close(run);
        spans.close(pass);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(spans.write(&path).expect("writable"), 5);
        let text = std::fs::read_to_string(&path).expect("readable");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text
            .lines()
            .next()
            .expect("root")
            .contains(r#""parent":null"#));
        assert!(text.contains(r#""name":"check_access","start_ns""#));
        assert!(text.contains(r#""dur_ns":30,"count":3"#));
    }
}
