//! The allocation layer side by side: the legacy free-list heap versus the
//! Immix-style block/line heap, with per-object versus block-granular
//! poisoning.
//!
//! ```sh
//! cargo run --release --example alloc_bench
//! ```
//!
//! A churn workload — fill, free half at random, refill — runs under three
//! configurations. The interesting outputs are the sanitizer counters:
//! `shadow_stores` (poisoning work done byte-run by byte-run) versus
//! `bulk_poison_runs` (whole-block writes handed to the kernel layer), and
//! the block heap's own statistics (blocks mapped to size classes, slot
//! holes recycled by hole-finding, whole-block spans). The full-scale
//! version of this comparison is the `repro alloc` study (`--format json`
//! prints its cell records).

use std::time::Instant;

use giantsan::core::GiantSan;
use giantsan::runtime::{HeapBackend, Region, RuntimeConfig, Sanitizer};

/// Live objects at steady state. Small so the example runs in well under a
/// second; `repro alloc` pushes the same shape to a million live objects.
const LIVE: usize = 100_000;

/// Object sizes cycled through the fill: three line classes and one
/// medium class of the block/line heap.
const SIZES: [u64; 4] = [16, 48, 160, 1000];

fn churn(san: &mut GiantSan) -> u64 {
    let mut live = Vec::with_capacity(LIVE);
    for i in 0..LIVE {
        let a = san.alloc(SIZES[i % SIZES.len()], Region::Heap).unwrap();
        live.push(a.base);
    }
    // Free every other object, then refill the holes: this is where the
    // free-list scans linearly and the block/line heap pops a hole.
    let mut i = 0;
    live.retain(|&base| {
        i += 1;
        if i % 2 == 0 {
            san.free(base).unwrap();
            false
        } else {
            true
        }
    });
    for i in 0..LIVE / 2 {
        let a = san.alloc(SIZES[i % SIZES.len()], Region::Heap).unwrap();
        live.push(a.base);
    }
    let peak = live.len() as u64;
    for base in live {
        san.free(base).unwrap();
    }
    peak
}

fn run(label: &str, backend: HeapBackend, granular: bool) {
    let cfg = RuntimeConfig::builder()
        .heap_size(256 << 20)
        .heap_backend(backend)
        .build();
    let mut san = GiantSan::builder()
        .config(cfg)
        .block_granular_poison(granular)
        .build();
    let start = Instant::now();
    let peak = churn(&mut san);
    let wall = start.elapsed();
    let c = *san.counters();
    println!("{label}");
    println!("  {peak} live at peak, {:.1} ms", wall.as_secs_f64() * 1e3);
    println!(
        "  shadow_stores {:>9}   bulk_poison_runs {:>6}",
        c.shadow_stores, c.bulk_poison_runs
    );
    if let Some(h) = san.world().heap().as_block() {
        let s = h.stats();
        println!(
            "  blocks mapped {:>6}  freed {:>6}  holes recycled {:>8}  spans {}",
            s.blocks_mapped, s.blocks_freed, s.holes_recycled, s.large_spans
        );
    }
    println!();
}

fn main() {
    run(
        "free-list heap, per-object poisoning (the pre-PR-8 configuration)",
        HeapBackend::FreeList,
        false,
    );
    run(
        "block/line heap, per-object poisoning",
        HeapBackend::BlockLine,
        false,
    );
    run(
        "block/line heap, block-granular poisoning",
        HeapBackend::BlockLine,
        true,
    );
}
