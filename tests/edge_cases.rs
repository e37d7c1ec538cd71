//! Cross-crate edge cases: behaviours at the seams that the per-module unit
//! tests do not reach — encoding boundaries under churned heaps, interpreter
//! corner semantics, planner decisions on adversarial shapes, and tool
//! parity on awkward access geometry.

use giantsan::analysis::{analyze, SiteFate, ToolProfile};
use giantsan::baselines::{Asan, Lfp};
use giantsan::core::{check_region, check_region_bytewise, GiantSan};
use giantsan::harness::{RunOutcome, Tool};
use giantsan::ir::{run, CheckPlan, ExecConfig, Expr, Program, ProgramBuilder, Termination};
use giantsan::runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};

/// Runs `program` under `tool` in a fresh session with the small config.
fn run_small(tool: Tool, program: &Program, inputs: &[i64]) -> RunOutcome {
    tool.builder()
        .config(RuntimeConfig::small())
        .spec()
        .run(program, inputs)
}

#[test]
fn encoding_survives_heavy_alloc_free_churn() {
    // After thousands of alloc/free/realloc cycles, the O(1) checker must
    // still agree with the byte-wise oracle for every live object.
    let mut san = GiantSan::new(RuntimeConfig::small());
    let mut live = Vec::new();
    let mut tick = 0u64;
    for round in 0..2000u64 {
        let size = 1 + (round * 37) % 700;
        if let Ok(a) = san.alloc(size, Region::Heap) {
            live.push(a);
        }
        if live.len() > 12 {
            let victim = live.remove((round % 7) as usize);
            san.free(victim.base).unwrap();
        }
        tick += 1;
    }
    assert!(tick == 2000);
    for a in &live {
        let shadow = san.shadow();
        for (lo, hi) in [(0i64, a.size as i64), (8, a.size as i64 - 1)] {
            if hi <= lo {
                continue;
            }
            let l = a.base.offset(lo);
            let r = a.base.offset(hi);
            assert_eq!(
                check_region(shadow, l, r).is_ok(),
                check_region_bytewise(shadow, l, r).is_ok(),
                "object {:?} region [{lo},{hi})",
                a.id
            );
        }
        // Exactly one byte past the end still fails.
        assert!(check_region(shadow, a.base, a.base.offset(a.size as i64 + 1)).is_err());
    }
}

#[test]
fn interpreter_input_dyn_and_ptr_chains() {
    let mut b = ProgramBuilder::new("edge");
    let p = b.alloc_heap(128);
    // Pointer chains: q = p + 16; r = q + 16; write through r at -8.
    let q = b.ptr_add(p, 16i64);
    let r = b.ptr_add(q, 16i64);
    b.store(r, -8i64, 8, 0xbeefi64);
    // Dynamic input indexing with an out-of-range index reads 0.
    let v = b.let_(Expr::input_at(Expr::Const(99)));
    b.store(p, 0i64, 8, Expr::var(v) + 7);
    let prog = b.build();
    let mut san = giantsan::runtime::NullSanitizer::new(RuntimeConfig::small());
    let res = run(
        &prog,
        &[1, 2, 3],
        &mut san,
        &CheckPlan::none(&prog),
        &ExecConfig::default(),
    );
    assert_eq!(res.termination, Termination::Finished);
    let base = san.world().objects().iter_live().next().unwrap().base;
    assert_eq!(san.world().space().read_u64(base + 24).unwrap(), 0xbeef);
    assert_eq!(san.world().space().read_u64(base).unwrap(), 7);
}

#[test]
fn reverse_loop_with_nonzero_lower_bound() {
    let mut b = ProgramBuilder::new("revlo");
    let p = b.alloc_heap(256);
    b.for_loop_rev(8i64, 24i64, |b, i| {
        b.store(p, Expr::var(i) * 8, 8, Expr::var(i));
    });
    let prog = b.build();
    let mut san = giantsan::runtime::NullSanitizer::new(RuntimeConfig::small());
    let res = run(
        &prog,
        &[],
        &mut san,
        &CheckPlan::none(&prog),
        &ExecConfig::default(),
    );
    assert_eq!(res.native_work, 16);
    let base = san.world().objects().iter_live().next().unwrap().base;
    assert_eq!(san.world().space().read_u64(base + 8 * 8).unwrap(), 8);
    assert_eq!(san.world().space().read_u64(base + 23 * 8).unwrap(), 23);
    // Bytes outside [8, 24) untouched (zero).
    assert_eq!(san.world().space().read_u64(base).unwrap(), 0);
    assert_eq!(san.world().space().read_u64(base + 24 * 8).unwrap(), 0);
}

#[test]
fn planner_handles_triangular_nested_loops() {
    // Inner bound depends on the outer induction variable: the inner loop
    // is still promotable (its bound is invariant *inside* the inner loop).
    let mut b = ProgramBuilder::new("tri");
    let n = b.input(0);
    let p = b.alloc_heap(Expr::input(0) * Expr::input(0) * 8);
    b.for_loop(0i64, n.clone(), |b, i| {
        b.for_loop(0i64, Expr::var(i) + 1, |b, j| {
            b.store(
                p,
                (Expr::var(i) * Expr::input(0) + Expr::var(j)) * 8,
                8,
                Expr::var(j),
            );
        });
    });
    let prog = b.build();
    let a = analyze(&prog, &ToolProfile::giantsan());
    assert_eq!(a.fates[0], SiteFate::Promoted, "triangular loop promotable");
    // And execution is clean under the plan.
    let mut san = GiantSan::new(RuntimeConfig::small());
    let res = run(&prog, &[12], &mut san, &a.plan, &ExecConfig::default());
    assert!(res.reports.is_empty(), "{:?}", res.reports.first());
    assert_eq!(res.termination, Termination::Finished);
}

#[test]
fn invariant_offsets_hoist_through_the_whole_nest() {
    // offset = i (outer) inside the inner loop: invariant w.r.t. the inner
    // loop, and the inner loop has constant positive trip — so the check
    // widens over the outer range and runs ONCE for the whole nest
    // (CI(p, p + 8N) at the outer pre-header).
    let mut b = ProgramBuilder::new("hoist");
    let n = b.input(0);
    let p = b.alloc_heap(64);
    b.for_loop(0i64, n.clone(), |b, i| {
        b.for_loop(0i64, 4i64, |b, _| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
    });
    let prog = b.build();
    let a = analyze(&prog, &ToolProfile::giantsan());
    assert_eq!(a.fates[0], SiteFate::Promoted);
    // In-bounds run: clean, and only one region check executed.
    let mut san = GiantSan::new(RuntimeConfig::small());
    let res = run(&prog, &[8], &mut san, &a.plan, &ExecConfig::default());
    assert!(res.reports.is_empty());
    assert_eq!(
        san.counters().fast_checks + san.counters().slow_checks,
        1,
        "one hull check covers the whole nest"
    );
    // Out-of-bounds outer range: one report for the whole operation.
    let mut san = GiantSan::new(RuntimeConfig::small());
    let res = run(&prog, &[10], &mut san, &a.plan, &ExecConfig::default());
    assert_eq!(res.reports.len(), 1, "operation-level: one report");
}

#[test]
fn asan_and_giantsan_agree_on_straddling_widths() {
    // Accesses straddling segment boundaries with every width and offset.
    for size in [16u64, 24, 40] {
        let mut gs = GiantSan::new(RuntimeConfig::small());
        let g = gs.alloc(size, Region::Heap).unwrap();
        let mut asan = Asan::new(RuntimeConfig::small());
        let a = asan.alloc(size, Region::Heap).unwrap();
        for off in 0..(size + 10) as i64 {
            for width in [1u32, 2, 4, 8] {
                let gv = gs
                    .check_access(g.base.offset(off), width, AccessKind::Read)
                    .is_ok();
                let av = asan
                    .check_access(a.base.offset(off), width, AccessKind::Read)
                    .is_ok();
                assert_eq!(gv, av, "size={size} off={off} width={width}");
                let truth = (off as u64).saturating_add(width as u64) <= size;
                assert_eq!(gv, truth, "vs ground truth");
            }
        }
    }
}

#[test]
fn lfp_size_class_boundaries_are_exact() {
    use giantsan::baselines::lfp::{class_for, size_classes};
    // Every class boundary: size == class protects exactly, size == class+1
    // jumps to the next class.
    for &c in size_classes().iter().take(12) {
        assert_eq!(class_for(c), c);
        assert!(class_for(c + 1) > c);
        let mut lfp = Lfp::new(RuntimeConfig::small());
        let a = lfp.alloc(c, Region::Heap).unwrap();
        assert!(lfp
            .check_anchored(a.base, a.base + c - 1, a.base + c, AccessKind::Read)
            .is_ok());
        assert!(lfp
            .check_anchored(a.base, a.base + c, a.base + c + 1, AccessKind::Read)
            .is_err());
    }
}

#[test]
fn zero_sized_and_one_byte_allocations() {
    for tool in [Tool::GiantSan, Tool::Asan, Tool::Lfp] {
        let mut b = ProgramBuilder::new("tiny");
        let p = b.alloc_heap(0i64);
        let q = b.alloc_heap(1i64);
        b.store(q, 0i64, 1, 1i64);
        b.free(p);
        b.free(q);
        let prog = b.build();
        let out = run_small(tool, &prog, &[]);
        assert!(
            out.result.reports.is_empty(),
            "{}: {:?}",
            tool.name(),
            out.result.reports.first()
        );
    }
}

#[test]
fn memcpy_between_distinct_objects_checks_both_sides() {
    // Source too small: the read side must be flagged even though the
    // destination is fine, and vice versa.
    for (src_size, dst_size, len, should_fail) in [
        (32i64, 64i64, 32i64, false),
        (16, 64, 32, true),
        (64, 16, 32, true),
    ] {
        let mut b = ProgramBuilder::new("mc");
        let src = b.alloc_heap(src_size);
        let dst = b.alloc_heap(dst_size);
        b.memcpy(dst, 0i64, src, 0i64, len);
        b.free(src);
        b.free(dst);
        let prog = b.build();
        let out = run_small(Tool::GiantSan, &prog, &[]);
        assert_eq!(
            !out.result.reports.is_empty(),
            should_fail,
            "src={src_size} dst={dst_size} len={len}"
        );
    }
}

#[test]
fn frames_nested_five_deep_unwind_cleanly() {
    let mut b = ProgramBuilder::new("deep");
    fn nest(b: &mut ProgramBuilder, depth: u32) {
        b.frame(|b| {
            let s = b.alloc_stack(32);
            b.store(s, 0i64, 8, depth as i64);
            if depth > 0 {
                nest(b, depth - 1);
            }
            b.load_discard(s, 0i64, 8);
        });
    }
    nest(&mut b, 4);
    let prog = b.build();
    for tool in [Tool::GiantSan, Tool::Asan] {
        let out = run_small(tool, &prog, &[]);
        assert!(out.result.reports.is_empty(), "{}", tool.name());
        assert_eq!(out.result.termination, Termination::Finished);
    }
}

#[test]
fn realloc_preserves_data_and_quarantines_the_old_block() {
    let mut san = GiantSan::new(RuntimeConfig::small());
    let a = san.alloc(64, Region::Heap).unwrap();
    for i in 0..8u64 {
        san.world_mut()
            .space_mut()
            .write_u64(a.base + i * 8, 100 + i)
            .unwrap();
    }
    // Grow: data preserved, new tail accessible, old block poisoned.
    let b = san.realloc(a.base, 256).unwrap();
    assert_ne!(a.base, b.base, "quarantine prevents in-place reuse");
    for i in 0..8u64 {
        assert_eq!(
            san.world().space().read_u64(b.base + i * 8).unwrap(),
            100 + i
        );
    }
    assert!(san
        .check_region(b.base, b.base + 256, AccessKind::Write)
        .is_ok());
    // The stale pointer is a use-after-free.
    let err = san.check_access(a.base, 8, AccessKind::Read).unwrap_err();
    assert_eq!(err.kind, giantsan::runtime::ErrorKind::UseAfterFree);
    // Shrink: the cut-off tail is no longer accessible.
    let c = san.realloc(b.base, 16).unwrap();
    assert!(san.check_access(c.base + 8, 8, AccessKind::Read).is_ok());
    assert!(san.check_access(c.base + 16, 8, AccessKind::Read).is_err());
    // Shadow stays consistent through the moves.
    assert!(giantsan::core::validate_shadow(&san).is_empty());
}

#[test]
fn realloc_error_paths_are_classified() {
    let mut san = GiantSan::new(RuntimeConfig::small());
    let a = san.alloc(64, Region::Heap).unwrap();
    assert_eq!(
        san.realloc(a.base + 8, 128).unwrap_err().kind,
        giantsan::runtime::ErrorKind::InvalidFree
    );
    san.free(a.base).unwrap();
    assert_eq!(
        san.realloc(a.base, 128).unwrap_err().kind,
        giantsan::runtime::ErrorKind::DoubleFree
    );
}

#[test]
fn realloc_through_the_interpreter() {
    // A growable vector: push until capacity, realloc to double, keep
    // pushing — every tool must run it clean; a stale read afterwards is
    // caught by the quarantining tools.
    let mut b = ProgramBuilder::new("vec-grow");
    let v = b.alloc_heap(64);
    b.for_loop(0i64, 8i64, |b, i| {
        b.store(v, Expr::var(i) * 8, 8, Expr::var(i) + 1);
    });
    let stale = b.ptr_add(v, 0i64); // alias that will dangle after realloc
    b.realloc(v, 128i64);
    b.for_loop(8i64, 16i64, |b, i| {
        b.store(v, Expr::var(i) * 8, 8, Expr::var(i) + 1);
    });
    let sum = b.load(v, 0i64, 8);
    b.store(v, 0i64, 8, Expr::var(sum));
    b.load_discard(stale, 0i64, 8); // use-after-free via the alias
    b.free(v);
    let prog = b.build();
    for (tool, expect_uaf) in [
        (Tool::GiantSan, true),
        (Tool::Asan, true),
        (Tool::Lfp, true), // freed slot not yet reused
        (Tool::Native, false),
    ] {
        let out = run_small(tool, &prog, &[]);
        assert_eq!(
            out.result.reports.len(),
            expect_uaf as usize,
            "{}: {:?}",
            tool.name(),
            out.result.reports.first()
        );
    }
}

#[test]
fn global_objects_live_across_frames() {
    let mut b = ProgramBuilder::new("globals");
    let g = b.alloc_global(128);
    b.frame(|b| {
        b.store(g, 0i64, 8, 1i64);
    });
    b.frame(|b| {
        let v = b.load(g, 0i64, 8);
        b.store(g, 8i64, 8, Expr::var(v) + 1);
    });
    // Overflowing the global is still caught.
    b.store(g, 128i64, 8, 3i64);
    let prog = b.build();
    let out = run_small(Tool::GiantSan, &prog, &[]);
    assert_eq!(out.result.reports.len(), 1);
    assert_eq!(
        out.result.reports[0].kind,
        giantsan::runtime::ErrorKind::GlobalBufferOverflow
    );
}
