//! Operation-level protection: reproduce the paper's Figure 8 end to end.
//!
//! ```sh
//! cargo run --example operation_level_checks
//! ```
//!
//! Builds Figure 8a's kernel in the mini-IR, shows the check plan each
//! tool's "compiler pass" produces (Figure 8b vs 8c), then executes and
//! compares how much metadata each configuration loaded.

use giantsan::analysis::{analyze, ToolProfile};
use giantsan::harness::Tool;
use giantsan::ir::{Expr, Program, ProgramBuilder};
use giantsan::runtime::RuntimeConfig;

/// Figure 8a:
/// ```c
/// for (i = 0; i < N; i++) { j = x[i]; y[j] = i; }
/// memset(x, 0, N * sizeof(int));
/// ```
fn figure8(n: i64) -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new("figure8");
    let count = b.input(0);
    let x = b.alloc_heap(Expr::input(0) * 4);
    let y = b.alloc_heap(Expr::input(0) * 4);
    // Fill x with in-range indexes so y[j] stays in bounds.
    b.for_loop(0i64, count.clone(), |b, i| {
        b.store(x, Expr::var(i) * 4, 4, Expr::var(i));
    });
    b.for_loop(0i64, count.clone(), |b, i| {
        let j = b.load(x, Expr::var(i) * 4, 4); // promotable: affine
        b.store(y, Expr::var(j) * 4, 4, Expr::var(i)); // cacheable: data-dep
    });
    b.memset(x, 0i64, count * 4, 0i64);
    b.free(x);
    b.free(y);
    (b.build(), vec![n])
}

fn main() {
    let n = 4096;
    let (prog, inputs) = figure8(n);

    for profile in [
        ToolProfile::asan(),
        ToolProfile::asan_minus_minus(),
        ToolProfile::giantsan(),
    ] {
        let a = analyze(&prog, &profile);
        println!("— plan for {} —", profile.name);
        for line in a.render().lines() {
            println!("  {line}");
        }
    }

    println!("\n— execution over N = {n} —");
    let cfg = RuntimeConfig::default();
    for tool in [Tool::Asan, Tool::AsanMinusMinus, Tool::GiantSan] {
        let out = tool
            .builder()
            .config(cfg.clone())
            .spec()
            .run(&prog, &inputs);
        let c = &out.counters;
        println!(
            "{:<10} shadow loads {:>8}   checks: fast {:>6} slow {:>4} cached {:>6}",
            tool.name(),
            c.shadow_loads,
            c.fast_checks,
            c.slow_checks,
            c.cache_hits + c.cache_updates,
        );
    }
    println!(
        "\nGiantSan turns 2 + 3N instruction checks into 2 promoted CIs,\n\
         N cached checks, and an O(1) memset guardian (Figure 8c)."
    );
}
