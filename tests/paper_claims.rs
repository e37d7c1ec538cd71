//! Paper-claims traceability: each test asserts one specific quantitative
//! sentence from the paper against this implementation, quoting it. If a
//! claim ever stops holding, the failure names the section it came from.

use giantsan::analysis::{analyze, SiteFate, ToolProfile};
use giantsan::baselines::Asan;
use giantsan::core::{encoding, GiantSan};
use giantsan::harness::{RunOutcome, Tool};
use giantsan::ir::{run, ExecConfig, Expr, Program, ProgramBuilder};
use giantsan::runtime::{AccessKind, CacheSlot, Region, RuntimeConfig, Sanitizer};

/// Runs `program` under `tool` in a fresh session with the small config.
fn run_small(tool: Tool, program: &Program, inputs: &[i64]) -> RunOutcome {
    tool.builder()
        .config(RuntimeConfig::small())
        .spec()
        .run(program, inputs)
}

/// §1: "checking whether a 1KB region contains a non-addressable byte
/// requires loading 128 segment states in ASan."
#[test]
fn s1_asan_1kb_needs_128_loads() {
    let mut asan = Asan::new(RuntimeConfig::default());
    let a = asan.alloc(1024, Region::Heap).unwrap();
    asan.counters_mut().reset();
    asan.check_region(a.base, a.base + 1024, AccessKind::Read)
        .unwrap();
    assert_eq!(asan.counters().shadow_loads, 128);
}

/// §3 (abstract, §2.2): GiantSan "can safeguard a sequential region of
/// arbitrary size in O(1) time" — at most 3 shadow loads at any size.
#[test]
fn s3_giantsan_region_checks_are_constant() {
    let mut gs = GiantSan::new(RuntimeConfig::default());
    for size in [8u64, 64, 1024, 65536, 1 << 20] {
        let a = gs.alloc(size, Region::Heap).unwrap();
        gs.counters_mut().reset();
        gs.check_region(a.base, a.base + size, AccessKind::Read)
            .unwrap();
        assert!(
            gs.counters().shadow_loads <= 3,
            "{size}: {} loads",
            gs.counters().shadow_loads
        );
    }
}

/// §4.1: "an x value in the shadow memory indicates at least 8 × 2^x and
/// less than 8 × 2^(x+1) consecutive bytes are addressable."
#[test]
fn s4_1_fold_degree_brackets_the_run_length() {
    let mut gs = GiantSan::new(RuntimeConfig::small());
    for size_words in 1..200u64 {
        let a = gs.alloc(size_words * 8, Region::Heap).unwrap();
        for j in 0..size_words {
            let code = gs.shadow().get(gs.shadow().segment_of(a.base + j * 8));
            let x = encoding::folding_degree(code).expect("live segment folded");
            let following = (size_words - j) * 8;
            assert!(
                following >= 8 << x,
                "claims more than the run: j={j}, x={x}, run={following}"
            );
            assert!(
                following < 8 << (x + 1),
                "under-claims the run: j={j}, x={x}, run={following}"
            );
        }
        gs.free(a.base).unwrap();
    }
}

/// §4.1 / Figure 5: "there is one (0)-folded segment, two (1)-folded
/// segments, and four (2)-folded segments" — 2^i consecutive (i)-folds.
#[test]
fn s4_1_figure5_pattern_counts() {
    let mut gs = GiantSan::new(RuntimeConfig::small());
    let a = gs.alloc(64 * 8, Region::Heap).unwrap();
    let seg0 = gs.shadow().segment_of(a.base);
    // 64 segments: one (6)-fold, then 2^i consecutive (i)-folds for i < 6.
    for degree in 0..=6u32 {
        let count = (0..64)
            .filter(|&j| gs.shadow().get(seg0 + j) == encoding::folded(degree))
            .count();
        let expected = if degree == 6 { 1 } else { 1 << degree };
        assert_eq!(count, expected, "degree {degree}");
    }
}

/// §4.2: "u covers > 50% of the addressable bytes following L" — the fast
/// check's coverage argument.
#[test]
fn s4_2_fast_check_covers_majority() {
    let mut gs = GiantSan::new(RuntimeConfig::small());
    for size_words in 1..=256u64 {
        let a = gs.alloc(size_words * 8, Region::Heap).unwrap();
        for j in 0..size_words {
            let code = gs.shadow().get(gs.shadow().segment_of(a.base + j * 8));
            let u = encoding::addressable_bytes(code);
            let following = (size_words - j) * 8;
            assert!(2 * u > following, "j={j}: {u} ≤ half of {following}");
        }
        gs.free(a.base).unwrap();
    }
}

/// §4.3: "the number of ub's updating is at most ⌈log2(n/8)⌉."
#[test]
fn s4_3_quasi_bound_update_bound() {
    for words in [1u64, 2, 3, 8, 100, 512, 4000] {
        let n = words * 8;
        let mut gs = GiantSan::new(RuntimeConfig::default());
        let a = gs.alloc(n, Region::Heap).unwrap();
        let mut slot = CacheSlot::new();
        for off in (0..n).step_by(8) {
            gs.cached_check(&mut slot, a.base, off as i64, 8, AccessKind::Read)
                .unwrap();
        }
        let bound = (words as f64).log2().ceil() as u32 + 1;
        assert!(
            slot.updates <= bound.max(1),
            "n={n}: {} updates > ⌈log2({words})⌉",
            slot.updates
        );
    }
}

/// Table 1, row "Constant Propagation": `p[0] + p[10] + p[20]` takes 1
/// operation-level check vs 3 instruction-level checks.
#[test]
fn table1_constant_propagation_row() {
    // A runtime-sized buffer, so the merge (not static elision) is what
    // fires: one operation-level check vs three instruction-level ones.
    let mut b = ProgramBuilder::new("t1-constprop");
    let n = b.input(0);
    let p = b.alloc_heap(n);
    b.load_discard(p, 0i64, 8);
    b.load_discard(p, 80i64, 8);
    b.load_discard(p, 160i64, 8);
    b.free(p);
    let prog = b.build();
    let gs = run_small(Tool::GiantSan, &prog, &[256]);
    assert_eq!(
        gs.counters.fast_checks + gs.counters.slow_checks,
        1,
        "operation-level: one merged check"
    );
    let asan = run_small(Tool::Asan, &prog, &[256]);
    assert_eq!(asan.counters.fast_checks, 3, "instruction-level: three");

    // With a *constant* size the checks vanish entirely: the accesses are
    // provable at compile time (the strongest form of check elimination).
    let mut b = ProgramBuilder::new("t1-static");
    let p = b.alloc_heap(256);
    b.load_discard(p, 0i64, 8);
    b.load_discard(p, 80i64, 8);
    b.load_discard(p, 160i64, 8);
    b.free(p);
    let prog = b.build();
    let gs = run_small(Tool::GiantSan, &prog, &[]);
    assert_eq!(gs.counters.total_checks(), 0, "statically safe: no checks");
}

/// Table 1, row "Predefined Semantics": `memset(p, 0, N)` takes 1
/// operation-level check vs Θ(N) instruction-level work.
#[test]
fn table1_memset_row() {
    let n: i64 = 4096;
    let mut b = ProgramBuilder::new("t1-memset");
    let p = b.alloc_heap(n);
    b.memset(p, 0i64, n, 0i64);
    b.free(p);
    let prog = b.build();
    let gs = run_small(Tool::GiantSan, &prog, &[]);
    assert!(
        gs.counters.shadow_loads <= 3,
        "{}",
        gs.counters.shadow_loads
    );
    let asan = run_small(Tool::Asan, &prog, &[]);
    assert_eq!(asan.counters.shadow_loads as i64, n / 8, "Θ(N) guardian");
}

/// Table 1, row "Loop Bound Analysis": a bounded loop takes 1 check vs N.
#[test]
fn table1_bounded_loop_row() {
    let n: i64 = 512;
    let mut b = ProgramBuilder::new("t1-loop");
    let p = b.alloc_heap(n * 8);
    b.for_loop(0i64, n, |b, i| {
        b.store(p, Expr::var(i) * 8, 8, Expr::var(i));
    });
    b.free(p);
    let prog = b.build();
    let gs = run_small(Tool::GiantSan, &prog, &[]);
    assert_eq!(gs.counters.fast_checks + gs.counters.slow_checks, 1);
    let asan = run_small(Tool::Asan, &prog, &[]);
    assert_eq!(asan.counters.fast_checks as i64, n);
}

/// §4.4.2 / Figure 8: "only 2 checks and N cached checks are required, much
/// fewer than the 2 + 3N checks in existing location-based methods."
#[test]
fn figure8_check_counts() {
    let n: i64 = 256;
    let mut b = ProgramBuilder::new("fig8");
    let count = b.input(0);
    let x = b.alloc_heap(Expr::input(0) * 4);
    let y = b.alloc_heap(Expr::input(0) * 4);
    b.for_loop(0i64, count.clone(), |b, i| {
        b.store(x, Expr::var(i) * 4, 4, Expr::var(i));
    });
    b.for_loop(0i64, count.clone(), |b, i| {
        let j = b.load(x, Expr::var(i) * 4, 4);
        b.store(y, Expr::var(j) * 4, 4, Expr::var(i));
    });
    b.memset(x, 0i64, count * 4, 0i64);
    b.free(x);
    b.free(y);
    let prog = b.build();

    let analysis = analyze(&prog, &ToolProfile::giantsan());
    // x[i] (fill), x[i] (read) promoted; y[j] cached; memset guardian.
    let counts = analysis.fate_counts();
    assert_eq!(counts.get(&SiteFate::Promoted), Some(&2));
    assert_eq!(counts.get(&SiteFate::Cached), Some(&1));

    let mut gs = GiantSan::new(RuntimeConfig::small());
    let r = run(&prog, &[n], &mut gs, &analysis.plan, &ExecConfig::default());
    assert!(r.reports.is_empty());
    let c = gs.counters();
    // "2 checks + N cached": the promoted CIs, the memset guardian, the
    // loop-exit CI, and a ⌈log2⌉ handful of quasi-bound refresh CIs — each
    // O(1) — instead of ~3N instruction checks.
    assert!(
        c.fast_checks + c.slow_checks <= 8,
        "region checks: {}",
        c.fast_checks + c.slow_checks
    );
    assert!(c.cache_hits + c.cache_updates >= n as u64);
    // "2 + 3N checks in existing location-based methods."
    let asan = run_small(Tool::Asan, &prog, &[n]);
    assert!(asan.counters.total_checks() as i64 >= 3 * n);
}

/// §5.4: "only 0.39% of the buffer traversals are in reverse order" is the
/// paper's consolation; the mechanism itself — no quasi-lower-bound, every
/// reverse access pays a dedicated underflow check — must hold.
#[test]
fn s5_4_reverse_traversals_pay_per_access() {
    let n: u64 = 2048;
    let mut gs = GiantSan::new(RuntimeConfig::default());
    let a = gs.alloc(n, Region::Heap).unwrap();
    let end = a.base + n;
    let mut slot = CacheSlot::new();
    for k in 1..=(n / 8) {
        gs.cached_check(&mut slot, end, -(8 * k as i64), 8, AccessKind::Read)
            .unwrap();
    }
    assert_eq!(gs.counters().cache_hits, 0);
    assert_eq!(gs.counters().underflow_checks, n / 8);
}
