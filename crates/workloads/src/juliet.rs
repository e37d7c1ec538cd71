//! Juliet-Test-Suite-like detection cases (Table 3 of the paper).
//!
//! The real Juliet 1.3 suite cannot ship here; this module generates case
//! families with the same *error geometry* per CWE — buffer sizes, overflow
//! distances, stack vs heap placement, temporal ordering — because geometry
//! alone determines each tool's verdict:
//!
//! * small overflows within LFP's size-class rounding slack are invisible to
//!   LFP but land in redzones / unallocated shadow for the location tools;
//! * stack overflows are invisible to LFP (incomplete stack protection)
//!   unless they are large enough to fault;
//! * a handful of cases have the faulty access guarded by a false condition
//!   ("potential overflow caused by uninitialized values", §5.3) — nobody
//!   reports those;
//! * every case also has a *safe* input vector; all tools must stay silent
//!   on it (Juliet's non-buggy twins).
//!
//! Counts per CWE match the paper's Table 3 totals exactly.

use giantsan_ir::{Expr, Program, ProgramBuilder};

/// One Juliet-like case: a template program plus buggy and safe inputs.
#[derive(Debug, Clone)]
pub struct JulietCase {
    /// CWE number (121, 122, 124, 126, 127, 416, 476, 761).
    pub cwe: u32,
    /// Case index within its CWE family.
    pub index: u32,
    /// Index into [`JulietSuite::templates`].
    pub template: usize,
    /// Inputs that trigger the bug (or, for non-triggering cases, leave the
    /// guarded bad access dormant).
    pub buggy_inputs: Vec<i64>,
    /// Inputs for the safe twin: same program, in-bounds behaviour.
    pub safe_inputs: Vec<i64>,
    /// Whether the bug actually fires at runtime (a few Juliet cases have
    /// latent bugs that the inputs never trigger).
    pub triggering: bool,
}

/// The generated suite: shared template programs plus all cases.
#[derive(Debug, Clone)]
pub struct JulietSuite {
    /// Template programs, indexed by [`JulietCase::template`].
    pub templates: Vec<Program>,
    /// All cases, grouped by CWE in ascending order.
    pub cases: Vec<JulietCase>,
}

/// Template indexes (public so the harness can label results).
pub mod templates {
    /// Heap buffer, single 1-byte store at `in1` into an `in0`-byte object.
    pub const HEAP_WRITE: usize = 0;
    /// Heap buffer, single 1-byte load.
    pub const HEAP_READ: usize = 1;
    /// Stack buffer, single 1-byte store.
    pub const STACK_WRITE: usize = 2;
    /// Stack buffer, single 1-byte load.
    pub const STACK_READ: usize = 3;
    /// `memcpy` of `in2` bytes from an `in1`-byte heap source into an
    /// `in0`-byte stack buffer.
    pub const STACK_MEMCPY: usize = 4;
    /// Heap buffer written in a loop of `in1` 1-byte stores.
    pub const HEAP_WRITE_LOOP: usize = 5;
    /// Use-after-free: free then 8-byte load at `in1`.
    pub const UAF_READ: usize = 6;
    /// Null dereference: load through a never-assigned pointer.
    pub const NULL_READ: usize = 7;
    /// `free(p + in1)`.
    pub const INVALID_FREE: usize = 8;
    /// Heap store at `in1` guarded by `if (in2)`.
    pub const COND_HEAP_WRITE: usize = 9;
    /// Stack store at `in1` guarded by `if (in2)`.
    pub const COND_STACK_WRITE: usize = 10;
    /// Heap load at `in1` guarded by `if (in2)`.
    pub const COND_HEAP_READ: usize = 11;
    /// Heap `memcpy` of `in2` bytes into an `in0`-byte destination.
    pub const HEAP_MEMCPY: usize = 12;
    /// `strcpy` of an `in1`-character heap string into an `in0`-byte stack
    /// buffer (the classic CWE-121 shape, checked by the runtime guardian).
    pub const STACK_STRCPY: usize = 13;
}

fn build_templates() -> Vec<Program> {
    let mut out = Vec::new();

    // 0: HEAP_WRITE
    let mut b = ProgramBuilder::new("juliet-heap-write");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.store(p, Expr::input(1), 1, 42i64);
    b.free(p);
    out.push(b.build());

    // 1: HEAP_READ
    let mut b = ProgramBuilder::new("juliet-heap-read");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.store(p, 0i64, 1, 7i64);
    b.load_discard(p, Expr::input(1), 1);
    b.free(p);
    out.push(b.build());

    // 2: STACK_WRITE
    let mut b = ProgramBuilder::new("juliet-stack-write");
    let size = b.input(0);
    b.frame(|b| {
        let s = b.alloc_stack(size.clone());
        b.store(s, Expr::input(1), 1, 42i64);
    });
    out.push(b.build());

    // 3: STACK_READ
    let mut b = ProgramBuilder::new("juliet-stack-read");
    let size = b.input(0);
    b.frame(|b| {
        let s = b.alloc_stack(size.clone());
        b.store(s, 0i64, 1, 7i64);
        b.load_discard(s, Expr::input(1), 1);
    });
    out.push(b.build());

    // 4: STACK_MEMCPY
    let mut b = ProgramBuilder::new("juliet-stack-memcpy");
    let size = b.input(0);
    let srclen = b.input(1);
    let cpy = b.input(2);
    b.frame(|b| {
        let s = b.alloc_stack(size.clone());
        let src = b.alloc_heap(srclen.clone());
        b.memcpy(s, 0i64, src, 0i64, cpy.clone());
        b.free(src);
    });
    out.push(b.build());

    // 5: HEAP_WRITE_LOOP
    let mut b = ProgramBuilder::new("juliet-heap-write-loop");
    let size = b.input(0);
    let n = b.input(1);
    let p = b.alloc_heap(size);
    b.for_loop(0i64, n, |b, i| {
        b.store(p, Expr::var(i), 1, Expr::var(i));
    });
    b.free(p);
    out.push(b.build());

    // 6: UAF_READ — `in2` selects free-then-read (buggy) or read-then-free.
    let mut b = ProgramBuilder::new("juliet-uaf-read");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.store(p, 0i64, 8, 7i64);
    b.if_else(
        Expr::input(2),
        |b| {
            b.free(p);
            b.load_discard(p, Expr::input(1), 8);
        },
        |b| {
            b.load_discard(p, Expr::input(1), 8);
            b.free(p);
        },
    );
    out.push(b.build());

    // 7: NULL_READ — `in1` selects dereferencing the null pointer (buggy)
    // or a valid buffer.
    let mut b = ProgramBuilder::new("juliet-null-read");
    let _ = b.input(0);
    let valid = b.alloc_heap(64);
    let p = b.null_ptr();
    b.if_else(
        Expr::input(1),
        |b| b.load_discard(p, Expr::input(0), 8),
        |b| b.load_discard(valid, 0i64, 8),
    );
    b.free(valid);
    out.push(b.build());

    // 8: INVALID_FREE
    let mut b = ProgramBuilder::new("juliet-invalid-free");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.free_at(p, Expr::input(1));
    out.push(b.build());

    // 9: COND_HEAP_WRITE
    let mut b = ProgramBuilder::new("juliet-cond-heap-write");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.if_else(
        Expr::input(2),
        |b| b.store(p, Expr::input(1), 1, 42i64),
        |b| b.store(p, 0i64, 1, 42i64),
    );
    b.free(p);
    out.push(b.build());

    // 10: COND_STACK_WRITE
    let mut b = ProgramBuilder::new("juliet-cond-stack-write");
    let size = b.input(0);
    b.frame(|b| {
        let s = b.alloc_stack(size.clone());
        b.if_else(
            Expr::input(2),
            |b| b.store(s, Expr::input(1), 1, 42i64),
            |b| b.store(s, 0i64, 1, 42i64),
        );
    });
    out.push(b.build());

    // 11: COND_HEAP_READ
    let mut b = ProgramBuilder::new("juliet-cond-heap-read");
    let size = b.input(0);
    let p = b.alloc_heap(size);
    b.store(p, 0i64, 1, 7i64);
    b.if_else(
        Expr::input(2),
        |b| b.load_discard(p, Expr::input(1), 1),
        |b| b.load_discard(p, 0i64, 1),
    );
    b.free(p);
    out.push(b.build());

    // 12: HEAP_MEMCPY
    let mut b = ProgramBuilder::new("juliet-heap-memcpy");
    let size = b.input(0);
    let srclen = b.input(1);
    let cpy = b.input(2);
    let dst = b.alloc_heap(size);
    let src = b.alloc_heap(srclen);
    b.memcpy(dst, 0i64, src, 0i64, cpy);
    b.free(src);
    b.free(dst);
    out.push(b.build());

    // 13: STACK_STRCPY
    let mut b = ProgramBuilder::new("juliet-stack-strcpy");
    let size = b.input(0);
    let strlen = b.input(1);
    let src = b.alloc_heap(strlen.clone() + 1);
    b.memset(src, 0i64, strlen.clone(), 65i64);
    b.store(src, strlen, 1, 0i64);
    b.frame(|b| {
        let s = b.alloc_stack(size.clone());
        b.strcpy(s, 0i64, src, 0i64);
    });
    b.free(src);
    out.push(b.build());

    out
}

/// Juliet-like buffer sizes. All have at least 4 bytes of LFP size-class
/// rounding slack (`class_for(s) − s ≥ 4`), so small overflows are invisible
/// to rounded-up-bound tools.
const SLACK_SIZES: &[i64] = &[10, 17, 26, 40, 70, 100, 130, 200, 300, 700, 1000, 1500];

/// Sizes that are exactly LFP size classes (no slack at all).
const CLASS_SIZES: &[i64] = &[16, 32, 64, 128];

/// Small overflow distances (stay within redzones / rounding slack).
const SMALL_DELTAS: &[i64] = &[1, 2, 3, 4];

/// Large overread distances (escape any size-class slot).
const LARGE_DELTAS: &[i64] = &[512, 700, 1200, 2048];

fn pick(list: &[i64], i: u32) -> i64 {
    list[(i as usize) % list.len()]
}

/// Builds the full suite with the paper's Table 3 case counts
/// (121: 1439, 122: 1504, 124: 767, 126: 449, 127: 916, 416: 393, 476: 288,
/// 761: 192).
///
/// # Example
///
/// The per-CWE counts sum to 5948. (The paper's Table 3 prints 5075 in its
/// "Total" row, which does not equal the sum of its own per-CWE rows; this
/// reproduction matches the per-CWE rows, the numbers the study actually
/// compares.)
///
/// ```
/// let suite = giantsan_workloads::juliet_suite();
/// assert_eq!(suite.cases.len(), 5948);
/// assert_eq!(suite.cases.iter().filter(|c| c.cwe == 122).count(), 1504);
/// ```
pub fn juliet_suite() -> JulietSuite {
    juliet_suite_scaled(1)
}

/// Builds a reduced suite keeping every `div`-th case of each family
/// (`div = 1` is the full suite); proportions between sub-families are
/// preserved because membership is interleaved.
pub fn juliet_suite_scaled(div: u32) -> JulietSuite {
    let div = div.max(1);
    let mut cases = Vec::new();
    let mut gen = |cwe: u32, count: u32, f: &dyn Fn(u32) -> JulietCase| {
        for i in (0..count).step_by(div as usize) {
            cases.push(f(i));
        }
        let _ = cwe;
    };

    // CWE-121: stack buffer overflow. 1386 plain (LFP-blind), 49 faulting
    // (detected by everyone including LFP), 4 non-triggering.
    gen(121, 1439, &|i| {
        if i >= 1435 {
            // Non-triggering: guarded store, condition false at runtime.
            let s = pick(SLACK_SIZES, i);
            JulietCase {
                cwe: 121,
                index: i,
                template: templates::COND_STACK_WRITE,
                buggy_inputs: vec![s, s + pick(SMALL_DELTAS, i), 0],
                safe_inputs: vec![s, s - 1, 1],
                triggering: false,
            }
        } else if i >= 1386 {
            // Huge memcpy through the stack guard: faults for every tool.
            let s = pick(SLACK_SIZES, i).min(256);
            JulietCase {
                cwe: 121,
                index: i,
                template: templates::STACK_MEMCPY,
                buggy_inputs: vec![s, 256 << 10, 192 << 10],
                safe_inputs: vec![s, 256 << 10, s],
                triggering: true,
            }
        } else {
            let s = pick(SLACK_SIZES, i);
            let delta = pick(SMALL_DELTAS, i) + (i as i64 % 48);
            match i % 3 {
                0 => JulietCase {
                    cwe: 121,
                    index: i,
                    template: templates::STACK_READ,
                    buggy_inputs: vec![s, s + delta],
                    safe_inputs: vec![s, s - 1],
                    triggering: true,
                },
                1 => JulietCase {
                    cwe: 121,
                    index: i,
                    template: templates::STACK_WRITE,
                    buggy_inputs: vec![s, s + delta],
                    safe_inputs: vec![s, s - 1],
                    triggering: true,
                },
                // The strcpy shape: an (s + delta)-character string into an
                // s-byte stack buffer.
                _ => JulietCase {
                    cwe: 121,
                    index: i,
                    template: templates::STACK_STRCPY,
                    buggy_inputs: vec![s, s + delta],
                    safe_inputs: vec![s, s - 1],
                    triggering: true,
                },
            }
        }
    });

    // CWE-122: heap buffer overflow. 1500 within LFP rounding slack, 4 at
    // exact class sizes (LFP's only detections).
    gen(122, 1504, &|i| {
        if i >= 1500 {
            let s = pick(CLASS_SIZES, i);
            JulietCase {
                cwe: 122,
                index: i,
                template: templates::HEAP_WRITE,
                buggy_inputs: vec![s, s + 2],
                safe_inputs: vec![s, s - 1],
                triggering: true,
            }
        } else {
            let s = pick(SLACK_SIZES, i);
            let delta = pick(SMALL_DELTAS, i);
            match i % 3 {
                0 => JulietCase {
                    cwe: 122,
                    index: i,
                    template: templates::HEAP_WRITE_LOOP,
                    buggy_inputs: vec![s, s + delta],
                    safe_inputs: vec![s, s],
                    triggering: true,
                },
                1 => JulietCase {
                    cwe: 122,
                    index: i,
                    template: templates::HEAP_MEMCPY,
                    buggy_inputs: vec![s, s + 8, s + delta],
                    safe_inputs: vec![s, s + 8, s],
                    triggering: true,
                },
                _ => JulietCase {
                    cwe: 122,
                    index: i,
                    template: templates::HEAP_WRITE,
                    buggy_inputs: vec![s, s + delta - 1],
                    safe_inputs: vec![s, s - 1],
                    triggering: true,
                },
            }
        }
    });

    // CWE-124: buffer underwrite — negative heap offsets; every tool
    // detects them (LFP via the source-pointer bound).
    gen(124, 767, &|i| {
        let s = pick(SLACK_SIZES, i);
        let delta = pick(SMALL_DELTAS, i) + (i as i64 % 12);
        JulietCase {
            cwe: 124,
            index: i,
            template: templates::HEAP_WRITE,
            buggy_inputs: vec![s, -delta],
            safe_inputs: vec![s, 0],
            triggering: true,
        }
    });

    // CWE-126: buffer overread. 352 past the size-class slot (LFP sees
    // them), 89 within slack (LFP-blind), 8 non-triggering.
    gen(126, 449, &|i| {
        if i >= 441 {
            let s = pick(SLACK_SIZES, i);
            JulietCase {
                cwe: 126,
                index: i,
                template: templates::COND_HEAP_READ,
                buggy_inputs: vec![s, s + pick(SMALL_DELTAS, i), 0],
                safe_inputs: vec![s, s - 1, 1],
                triggering: false,
            }
        } else if i >= 352 {
            let s = pick(SLACK_SIZES, i);
            JulietCase {
                cwe: 126,
                index: i,
                template: templates::HEAP_READ,
                buggy_inputs: vec![s, s + pick(SMALL_DELTAS, i)],
                safe_inputs: vec![s, s - 1],
                triggering: true,
            }
        } else {
            let s = pick(SLACK_SIZES, i);
            JulietCase {
                cwe: 126,
                index: i,
                template: templates::HEAP_READ,
                buggy_inputs: vec![s, s + pick(LARGE_DELTAS, i)],
                safe_inputs: vec![s, s - 1],
                triggering: true,
            }
        }
    });

    // CWE-127: buffer underread — negative heap offsets, everyone detects.
    gen(127, 916, &|i| {
        let s = pick(SLACK_SIZES, i);
        let delta = pick(SMALL_DELTAS, i) + (i as i64 % 24);
        JulietCase {
            cwe: 127,
            index: i,
            template: templates::HEAP_READ,
            buggy_inputs: vec![s, -delta],
            safe_inputs: vec![s, 0],
            triggering: true,
        }
    });

    // CWE-416: use after free, no intervening reallocation.
    gen(416, 393, &|i| {
        let s = pick(SLACK_SIZES, i);
        JulietCase {
            cwe: 416,
            index: i,
            template: templates::UAF_READ,
            buggy_inputs: vec![s, (i as i64 % 2) * 8, 1],
            safe_inputs: vec![s, 0, 0],
            triggering: true,
        }
    });

    // CWE-476: null dereference — faults for every tool.
    gen(476, 288, &|i| JulietCase {
        cwe: 476,
        index: i,
        template: templates::NULL_READ,
        buggy_inputs: vec![(i as i64 % 64) * 8, 1],
        safe_inputs: vec![(i as i64 % 64) * 8, 0],
        triggering: true,
    });

    // CWE-761: free pointer not at start of buffer.
    gen(761, 192, &|i| {
        let s = pick(SLACK_SIZES, i).max(16);
        JulietCase {
            cwe: 761,
            index: i,
            template: templates::INVALID_FREE,
            buggy_inputs: vec![s, 8 * (1 + i as i64 % ((s / 8).max(1)))],
            safe_inputs: vec![s, 0],
            triggering: true,
        }
    });

    JulietSuite {
        templates: build_templates(),
        cases,
    }
}

/// The paper's Table 3 "Total" column per CWE.
pub fn paper_totals() -> &'static [(u32, u32)] {
    &[
        (121, 1439),
        (122, 1504),
        (124, 767),
        (126, 449),
        (127, 916),
        (416, 393),
        (476, 288),
        (761, 192),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use giantsan_analysis::{analyze, ToolProfile};
    use giantsan_baselines::{Asan, Lfp};
    use giantsan_core::GiantSan;
    use giantsan_ir::{run, CheckPlan, ExecConfig};
    use giantsan_runtime::{RuntimeConfig, Sanitizer};

    fn detects(
        suite: &JulietSuite,
        case: &JulietCase,
        san: &mut dyn Sanitizer,
        plan: &CheckPlan,
        buggy: bool,
    ) -> bool {
        let inputs = if buggy {
            &case.buggy_inputs
        } else {
            &case.safe_inputs
        };
        let r = run(
            &suite.templates[case.template],
            inputs,
            san,
            plan,
            &ExecConfig::default(),
        );
        r.detected()
    }

    #[test]
    fn counts_match_paper_totals() {
        let suite = juliet_suite();
        for &(cwe, total) in paper_totals() {
            let n = suite.cases.iter().filter(|c| c.cwe == cwe).count();
            assert_eq!(n as u32, total, "CWE-{cwe}");
        }
        assert_eq!(suite.cases.len(), 5948);
    }

    #[test]
    fn scaled_suite_preserves_families() {
        let suite = juliet_suite_scaled(25);
        for &(cwe, _) in paper_totals() {
            assert!(
                suite.cases.iter().any(|c| c.cwe == cwe),
                "CWE-{cwe} missing from scaled suite"
            );
        }
        assert!(suite.cases.len() < 300);
    }

    #[test]
    fn giantsan_detects_triggering_and_passes_safe() {
        let suite = juliet_suite_scaled(40);
        for case in &suite.cases {
            let plan = analyze(&suite.templates[case.template], &ToolProfile::giantsan()).plan;
            let mut san = GiantSan::new(RuntimeConfig::small());
            let detected = detects(&suite, case, &mut san, &plan, true);
            assert_eq!(
                detected, case.triggering,
                "GiantSan on CWE-{} #{} (template {})",
                case.cwe, case.index, case.template
            );
            let mut san = GiantSan::new(RuntimeConfig::small());
            let fp = detects(&suite, case, &mut san, &plan, false);
            assert!(!fp, "false positive on CWE-{} #{}", case.cwe, case.index);
        }
    }

    #[test]
    fn asan_matches_giantsan_verdicts() {
        let suite = juliet_suite_scaled(40);
        for case in &suite.cases {
            let plan = analyze(&suite.templates[case.template], &ToolProfile::asan()).plan;
            let mut san = Asan::new(RuntimeConfig::small());
            let detected = detects(&suite, case, &mut san, &plan, true);
            assert_eq!(
                detected, case.triggering,
                "ASan on CWE-{} #{}",
                case.cwe, case.index
            );
            let mut san = Asan::new(RuntimeConfig::small());
            assert!(!detects(&suite, case, &mut san, &plan, false));
        }
    }

    #[test]
    fn lfp_misses_rounding_and_stack_cases() {
        let suite = juliet_suite_scaled(40);
        let mut missed_121 = 0;
        let mut total_121 = 0;
        let mut missed_122 = 0;
        let mut total_122 = 0;
        for case in &suite.cases {
            let plan = analyze(&suite.templates[case.template], &ToolProfile::lfp()).plan;
            let mut san = Lfp::new(RuntimeConfig::small());
            let detected = detects(&suite, case, &mut san, &plan, true);
            match case.cwe {
                121 if case.triggering => {
                    total_121 += 1;
                    if !detected {
                        missed_121 += 1;
                    }
                }
                122 => {
                    total_122 += 1;
                    if !detected {
                        missed_122 += 1;
                    }
                }
                // Underflows, UAF, null, invalid free: LFP detects these.
                124 | 127 | 416 | 476 | 761 => {
                    assert!(detected, "LFP must detect CWE-{} #{}", case.cwe, case.index)
                }
                _ => {}
            }
            // Safe twins must stay silent for LFP too.
            let mut san = Lfp::new(RuntimeConfig::small());
            assert!(
                !detects(&suite, case, &mut san, &plan, false),
                "LFP FP on CWE-{} #{}",
                case.cwe,
                case.index
            );
        }
        assert!(
            missed_121 > total_121 / 2,
            "LFP should miss most stack overflows"
        );
        assert!(
            missed_122 > total_122 / 2,
            "LFP should miss most heap overflows"
        );
    }
}
