//! Allocator study: the block/line heap against the free list.
//!
//! `repro alloc` drives both heap backends through the sanitizer's public
//! malloc/free surface at a sustained population of ≥ 10⁶ live objects per
//! fill cell and reports allocation+poisoning behaviour:
//!
//! - **fill** — grow to the live target (mixed small sizes), then drain;
//!   pins counters and high-water marks per backend.
//! - **churn** — steady-state alloc/free at a quarter of the live target,
//!   exercising quarantine recycling and the block heap's hole-finding.
//! - **poison** — a single-class fill under the block/line backend with
//!   per-object poisoning vs block-granular pattern stamping.
//! - **mt-arenas** — four thread caches pinned to four arenas, verifying
//!   arena partitioning end to end.
//!
//! Wall-clock fields enter payloads only under `--wall`; everything else is
//! deterministic, so alloc campaigns shard and resume like any other study.
//! `--format json` prints every cell record.

use std::time::Instant;

use giantsan_core::GiantSan;
use giantsan_runtime::{
    Allocation, HeapBackend, Region, RuntimeConfig, Sanitizer, ThreadCachedAllocator,
};
use giantsan_telemetry::fnv1a;

use crate::json::Json;
use crate::study::{self, Record, Study, StudyOpts, StudyOutput};
use crate::table::TextTable;

/// Live objects each fill cell sustains at `--scale 1`.
pub const LIVE_PER_SCALE: u64 = 1_000_000;

/// Object-size mix of the fill and churn cells (bytes). All land in line
/// classes of the block backend; 160 spills to a two-line slot.
pub const FILL_SIZES: [u64; 6] = [16, 24, 32, 48, 64, 160];

/// Object size of the poison pair: one line class, so one block amortises a
/// single pattern stamp over many slots.
pub const POISON_SIZE: u64 = 48;

/// Threads (= arenas) of the `mt-arenas` cell. Fixed, not `--threads`:
/// payloads must not depend on scheduling knobs.
pub const ARENA_THREADS: u32 = 4;

const CELLS: [&str; 6] = [
    "fill-freelist",
    "fill-blockline",
    "churn-freelist",
    "churn-blockline",
    "poison-pair",
    "mt-arenas",
];

/// The live-object target for a scale factor.
pub fn live_target(scale: u64) -> u64 {
    LIVE_PER_SCALE * scale.max(1)
}

/// Study configuration: heap sized to hold the live target under either
/// backend (block slots round small objects up to 128-byte lines).
fn config(scale: u64, backend: HeapBackend, arenas: u32) -> RuntimeConfig {
    RuntimeConfig::default()
        .to_builder()
        .heap_size(scale.max(1) * (256 << 20))
        .heap_backend(backend)
        .heap_arenas(arenas)
        .build()
}

fn sanitizer(cfg: RuntimeConfig, granular: bool) -> GiantSan {
    GiantSan::builder()
        .config(cfg)
        .block_granular_poison(granular)
        .build()
}

/// FNV-1a over the named counter fields.
fn counters_digest(san: &GiantSan) -> u64 {
    let mut bytes = Vec::new();
    for (name, value) in san.counters().fields() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Shared payload tail: counters, heap marks, and (block backend only) the
/// block heap's own statistics.
fn heap_fields(mut payload: Json, san: &GiantSan) -> Json {
    let c = san.counters();
    payload = payload
        .field("allocs", c.allocs)
        .field("frees", c.frees)
        .field("shadow_stores", c.shadow_stores)
        .field("bulk_poison_runs", c.bulk_poison_runs)
        .field("high_water", san.world().heap().high_water())
        .field("quarantined_bytes", san.world().quarantined_bytes())
        .field("counters_digest", Json::hex(counters_digest(san)));
    if let Some(heap) = san.world().heap().as_block() {
        let s = heap.stats();
        payload = payload
            .field("blocks_mapped", s.blocks_mapped)
            .field("blocks_freed", s.blocks_freed)
            .field("holes_recycled", s.holes_recycled)
            .field("large_spans", s.large_spans);
    }
    payload
}

/// Fill cell: grow to the live target, record the peak, then drain.
fn run_fill(opts: &StudyOpts, backend: HeapBackend) -> Json {
    let live = live_target(opts.scale);
    let mut san = sanitizer(config(opts.scale, backend, 1), false);
    let mut held: Vec<Allocation> = Vec::with_capacity(live as usize);
    let start = Instant::now();
    for i in 0..live {
        let size = FILL_SIZES[(i % FILL_SIZES.len() as u64) as usize];
        held.push(san.alloc(size, Region::Heap).expect("heap sized for fill"));
    }
    let fill = start.elapsed();
    let peak = san.world().heap().bytes_in_use();
    for a in held {
        san.free(a.base).expect("double free impossible in fill");
    }
    let mut payload = Json::obj()
        .field("cell", "fill")
        .field("live", live)
        .field("peak_bytes", peak);
    payload = heap_fields(payload, &san);
    if opts.wall {
        let ns = fill.as_secs_f64() * 1e9;
        payload = payload
            .field("fill_ns_per_alloc", ns / live as f64)
            .field("alloc_mops", live as f64 / (ns / 1e3).max(1e-9));
    }
    payload
}

/// Churn cell: warm up to a sixteenth of the live target, then replace
/// random members for as many iterations (xorshift, seeded by `--seed`).
/// The population is deliberately smaller than the fill cells': the free
/// list's first-fit scan is linear in its hole count, so steady-state churn
/// is where the two backends diverge by orders of magnitude, not where we
/// want to spend minutes of CI budget.
fn run_churn(opts: &StudyOpts, backend: HeapBackend) -> Json {
    let live = (live_target(opts.scale) / 16).max(1024);
    let ops = live;
    let mut san = sanitizer(config(opts.scale, backend, 1), false);
    let mut held: Vec<Allocation> = Vec::with_capacity(live as usize);
    for i in 0..live {
        let size = FILL_SIZES[(i % FILL_SIZES.len() as u64) as usize];
        held.push(san.alloc(size, Region::Heap).expect("heap sized for churn"));
    }
    let mut rng = opts.seed | 1;
    let start = Instant::now();
    for i in 0..ops {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let victim = (rng % live) as usize;
        let size = FILL_SIZES[(i % FILL_SIZES.len() as u64) as usize];
        let fresh = san.alloc(size, Region::Heap).expect("churn is size-stable");
        san.free(std::mem::replace(&mut held[victim], fresh).base)
            .expect("held objects are live");
    }
    let churn = start.elapsed();
    for a in held {
        san.free(a.base).expect("held objects are live");
    }
    let mut payload = Json::obj()
        .field("cell", "churn")
        .field("live", live)
        .field("ops", ops);
    payload = heap_fields(payload, &san);
    if opts.wall {
        payload = payload.field("churn_ns_per_op", churn.as_secs_f64() * 1e9 / ops as f64);
    }
    payload
}

/// One timed single-class fresh fill under the block backend; returns
/// `(elapsed ns per alloc, sanitizer after the drain)`.
fn poison_fill(scale: u64, live: u64, granular: bool) -> (f64, GiantSan) {
    let mut san = sanitizer(config(scale, HeapBackend::BlockLine, 1), granular);
    let mut held: Vec<Allocation> = Vec::with_capacity(live as usize);
    let start = Instant::now();
    for _ in 0..live {
        held.push(
            san.alloc(POISON_SIZE, Region::Heap)
                .expect("heap sized for fill"),
        );
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / live as f64;
    for a in held {
        san.free(a.base).expect("double free impossible in fill");
    }
    (ns, san)
}

/// Poison cell: the per-object vs block-granular pair in ONE cell, modes
/// alternating back to back and best-of-3, so host noise hits both sides of
/// the throughput comparison equally.
fn run_poison_pair(opts: &StudyOpts) -> Json {
    let live = (live_target(opts.scale) / 2).max(1024);
    let reps = if opts.wall { 3 } else { 1 };
    let mut per_object_ns = f64::INFINITY;
    let mut granular_ns = f64::INFINITY;
    let mut pair = None;
    for _ in 0..reps {
        let (po_ns, po) = poison_fill(opts.scale, live, false);
        let (gr_ns, gr) = poison_fill(opts.scale, live, true);
        per_object_ns = per_object_ns.min(po_ns);
        granular_ns = granular_ns.min(gr_ns);
        pair = Some((po, gr));
    }
    let (po, gr) = pair.expect("reps >= 1");
    let mut payload = Json::obj()
        .field("cell", "poison-pair")
        .field("live", live)
        .field("per_object_shadow_stores", po.counters().shadow_stores)
        .field("per_object_bulk_runs", po.counters().bulk_poison_runs)
        .field("granular_shadow_stores", gr.counters().shadow_stores)
        .field("granular_bulk_runs", gr.counters().bulk_poison_runs);
    if opts.wall {
        payload = payload
            .field("per_object_ns_per_alloc", per_object_ns)
            .field("granular_ns_per_alloc", granular_ns);
    }
    payload
}

/// mt-arenas cell: one thread cache per arena, all filling concurrently;
/// verifies every placement landed in its thread's arena and no two live
/// user ranges overlap.
fn run_mt_arenas(opts: &StudyOpts) -> Json {
    use parking_lot::Mutex;
    use std::sync::Arc;

    let per_thread = (live_target(opts.scale) / 8).max(1024);
    let cfg = config(opts.scale, HeapBackend::BlockLine, ARENA_THREADS);
    let shared = Arc::new(Mutex::new(sanitizer(cfg, false)));
    let mut ranges: Vec<(u64, u64, u32)> = Vec::new();
    let mut arena_ok = true;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ARENA_THREADS)
            .map(|arena| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut tc = ThreadCachedAllocator::with_arena(shared, arena);
                    let mut held = Vec::with_capacity(per_thread as usize);
                    let mut ok = true;
                    for i in 0..per_thread {
                        let size = FILL_SIZES[(i % FILL_SIZES.len() as u64) as usize];
                        let a = tc.alloc(size, Region::Heap).expect("arena sized for fill");
                        ok &= a.placement.map(|p| p.arena) == Some(arena);
                        held.push(a);
                    }
                    let ranges: Vec<(u64, u64, u32)> = held
                        .iter()
                        .map(|a| (a.base.raw(), a.base.raw() + a.size, arena))
                        .collect();
                    for a in held {
                        tc.free(a);
                    }
                    (ranges, ok)
                })
            })
            .collect();
        for h in handles {
            let (r, ok) = h.join().expect("arena thread panicked");
            ranges.extend(r);
            arena_ok &= ok;
        }
    });
    ranges.sort_unstable();
    let overlap_free = ranges.windows(2).all(|w| w[0].1 <= w[1].0);
    let san = shared.lock();
    let c = san.counters();
    Json::obj()
        .field("cell", "mt-arenas")
        .field("threads", u64::from(ARENA_THREADS))
        .field("per_thread", per_thread)
        .field("allocs", c.allocs)
        .field("frees", c.frees)
        .field("arena_affinity", arena_ok)
        .field("overlap_free", overlap_free)
}

/// `repro alloc` as a [`Study`].
#[derive(Debug, Clone, Copy)]
pub struct AllocEntry;

impl Study for AllocEntry {
    fn name(&self) -> &'static str {
        "alloc"
    }

    fn cells(&self, _opts: &StudyOpts) -> Result<Vec<String>, String> {
        Ok(CELLS.iter().map(|c| c.to_string()).collect())
    }

    fn run_cell(&self, opts: &StudyOpts, index: usize) -> Json {
        match CELLS[index] {
            "fill-freelist" => run_fill(opts, HeapBackend::FreeList),
            "fill-blockline" => run_fill(opts, HeapBackend::BlockLine),
            "churn-freelist" => run_churn(opts, HeapBackend::FreeList),
            "churn-blockline" => run_churn(opts, HeapBackend::BlockLine),
            "poison-pair" => run_poison_pair(opts),
            "mt-arenas" => run_mt_arenas(opts),
            other => unreachable!("unknown alloc cell {other}"),
        }
    }

    fn render(&self, _opts: &StudyOpts, records: &[Record]) -> Result<StudyOutput, String> {
        let by_label = |label: &str| -> &Json {
            &records
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("alloc study missing cell `{label}`"))
                .payload
        };
        let opt_f64 = |p: &Json, key: &str| p.get(key).and_then(Json::as_f64);

        let mut t = TextTable::new(vec![
            "cell".into(),
            "live".into(),
            "allocs".into(),
            "peak MiB".into(),
            "blocks".into(),
            "holes".into(),
            "bulk runs".into(),
            "ns/op".into(),
        ]);
        for label in &CELLS[..4] {
            let p = by_label(label);
            let live = study::req_u64(p, "live");
            let peak = p.get("peak_bytes").and_then(Json::as_u64).unwrap_or(0);
            let blocks = p.get("blocks_mapped").and_then(Json::as_u64);
            let holes = p.get("holes_recycled").and_then(Json::as_u64);
            let ns = opt_f64(p, "fill_ns_per_alloc").or(opt_f64(p, "churn_ns_per_op"));
            t.row(vec![
                label.to_string(),
                live.to_string(),
                study::req_u64(p, "allocs").to_string(),
                format!("{:.1}", peak as f64 / (1 << 20) as f64),
                blocks.map_or("-".into(), |b| b.to_string()),
                holes.map_or("-".into(), |h| h.to_string()),
                study::req_u64(p, "bulk_poison_runs").to_string(),
                ns.map_or("-".into(), |n| format!("{n:.0}")),
            ]);
        }

        let pair = by_label("poison-pair");
        let mut report = format!(
            "== Alloc study: block/line heap vs free list ==\n\n{}\n\
             block-granular poisoning: {} bulk runs replaced per-object writes on \
             {} allocations\n",
            t.render(),
            study::req_u64(pair, "granular_bulk_runs"),
            study::req_u64(pair, "live"),
        );
        if let (Some(po), Some(gr)) = (
            opt_f64(pair, "per_object_ns_per_alloc"),
            opt_f64(pair, "granular_ns_per_alloc"),
        ) {
            if gr > 0.0 {
                report.push_str(&format!(
                    "poison path: per-object {po:.0} ns/alloc, block-granular {gr:.0} \
                     ns/alloc ({:.2}x)\n",
                    po / gr
                ));
            }
        }

        let mt = by_label("mt-arenas");
        report.push_str(&format!(
            "mt-arenas: {} threads x {} allocs, arena affinity {}, overlap-free {}\n",
            study::req_u64(mt, "threads"),
            study::req_u64(mt, "per_thread"),
            study::req(mt, "arena_affinity").as_bool().unwrap_or(false),
            study::req(mt, "overlap_free").as_bool().unwrap_or(false),
        ));

        Ok(StudyOutput {
            report,
            ..StudyOutput::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> StudyOpts {
        StudyOpts::default()
    }

    #[test]
    fn cell_labels_are_stable() {
        let s = AllocEntry;
        let cells = s.cells(&tiny_opts()).unwrap();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], "fill-freelist");
        assert_eq!(cells[4], "poison-pair");
        assert_eq!(cells[5], "mt-arenas");
    }

    #[test]
    fn churn_cells_recycle_and_balance() {
        // Exercise the two cheap-ish churn cells at a reduced live target by
        // driving the helpers directly (full cells are the CLI's job).
        for backend in [HeapBackend::FreeList, HeapBackend::BlockLine] {
            let mut san = sanitizer(config(1, backend, 1), false);
            let mut held = Vec::new();
            for i in 0..4096u64 {
                let size = FILL_SIZES[(i % 6) as usize];
                held.push(san.alloc(size, Region::Heap).unwrap());
            }
            for a in held.drain(..) {
                san.free(a.base).unwrap();
            }
            let c = san.counters();
            assert_eq!(c.allocs, 4096);
            assert_eq!(c.frees, 4096);
        }
    }

    #[test]
    fn poison_pair_is_count_identical_and_granular_bulk_writes() {
        let mut per_object = sanitizer(config(1, HeapBackend::BlockLine, 1), false);
        let mut granular = sanitizer(config(1, HeapBackend::BlockLine, 1), true);
        for _ in 0..2048 {
            let a = per_object.alloc(POISON_SIZE, Region::Heap).unwrap();
            let b = granular.alloc(POISON_SIZE, Region::Heap).unwrap();
            assert_eq!(a.base, b.base, "identical address streams");
        }
        assert_eq!(per_object.counters().bulk_poison_runs, 0);
        assert!(granular.counters().bulk_poison_runs > 0);
    }

    #[test]
    fn mt_arenas_cell_partitions() {
        let opts = StudyOpts {
            scale: 1,
            ..StudyOpts::default()
        };
        // Shrink through the private helper shape: run the real cell but at
        // the default scale it allocates live/8 per thread, which is fine in
        // release CI but slow under `cargo test`; sample the invariants with
        // a direct mini-run instead.
        let cfg = config(1, HeapBackend::BlockLine, ARENA_THREADS);
        let shared = std::sync::Arc::new(parking_lot::Mutex::new(sanitizer(cfg, false)));
        let mut all = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ARENA_THREADS)
                .map(|arena| {
                    let shared = std::sync::Arc::clone(&shared);
                    scope.spawn(move || {
                        let mut tc = ThreadCachedAllocator::with_arena(shared, arena);
                        let held: Vec<_> = (0..512)
                            .map(|i| tc.alloc(FILL_SIZES[i % 6], Region::Heap).unwrap())
                            .collect();
                        assert!(held
                            .iter()
                            .all(|a| a.placement.map(|p| p.arena) == Some(arena)));
                        let r: Vec<(u64, u64)> = held
                            .iter()
                            .map(|a| (a.base.raw(), a.base.raw() + a.size))
                            .collect();
                        for a in held {
                            tc.free(a);
                        }
                        r
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        all.sort_unstable();
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].0), "overlap");
        let _ = opts;
    }
}
