//! Quality-side ablation: sweeps the m-dominator candidate cap, the
//! balancing iteration limit, the global sizing factor `k` and the
//! partition support bound, printing decomposed node counts on four
//! suite circuits so each knob's effect on result quality is visible.

use bdsmaj::{bds_maj, BdsMajOptions};
use circuits::suite::benchmark;
use logic::equiv_sim;

fn run(name: &str, opts: &BdsMajOptions) -> (usize, usize, bool) {
    let net = benchmark(name).expect("known benchmark");
    let out = bds_maj(&net, opts);
    let counts = out.network().gate_counts();
    let ok = equiv_sim(&net, out.network(), 4, 0xAB1A).is_ok();
    (counts.decomposition_total(), counts.maj, ok)
}

fn main() {
    let names = ["alu2", "Wallace 16 bit", "Div 18 bit", "4-Op ADD 16 bit"];

    println!("== m-dominator candidate cap (default 8) ==");
    for cap in [1usize, 2, 8, 32] {
        print!("cap {cap:>3}:");
        for name in names {
            let mut opts = BdsMajOptions::default();
            opts.maj.max_candidates = cap;
            let (total, maj, ok) = run(name, &opts);
            print!(
                "  {name}={total} (maj {maj}){}",
                if ok { "" } else { " FAIL" }
            );
        }
        println!();
    }

    println!("\n== balancing iteration limit (paper: 5) ==");
    for iters in [0usize, 1, 5, 20] {
        print!("iters {iters:>2}:");
        for name in names {
            let mut opts = BdsMajOptions::default();
            opts.maj.max_iterations = iters;
            let (total, maj, ok) = run(name, &opts);
            print!(
                "  {name}={total} (maj {maj}){}",
                if ok { "" } else { " FAIL" }
            );
        }
        println!();
    }

    println!("\n== global sizing factor k (paper: 1.6) ==");
    for k in [1.1f64, 1.6, 2.5, 4.0] {
        print!("k {k:>3.1}:");
        for name in names {
            let mut opts = BdsMajOptions::default();
            opts.maj.global_k = k;
            let (total, maj, ok) = run(name, &opts);
            print!(
                "  {name}={total} (maj {maj}){}",
                if ok { "" } else { " FAIL" }
            );
        }
        println!();
    }

    println!("\n== partition support bound (default 12) ==");
    for bound in [6usize, 10, 12, 16] {
        print!("supp {bound:>2}:");
        for name in names {
            let mut opts = BdsMajOptions::default();
            opts.engine.partition.max_support = bound;
            let (total, maj, ok) = run(name, &opts);
            print!(
                "  {name}={total} (maj {maj}){}",
                if ok { "" } else { " FAIL" }
            );
        }
        println!();
    }
}
