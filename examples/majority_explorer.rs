//! Majority decomposition explorer: walks through the four phases of
//! Algorithm 1 (α, β, γ, ω) on the paper's running example and prints the
//! Fig. 1 BDD as Graphviz DOT with the m-dominator highlighted.
//!
//! Run with: `cargo run --release --example majority_explorer`

use bds_maj::bdsmaj::{balance_pass, construct_majority};
use bds_maj::prelude::*;

fn main() {
    let mut m = Manager::new();
    m.set_var_name(0, "A");
    m.set_var_name(1, "B");
    m.set_var_name(2, "C");
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let f = m.maj(a, b, c);
    println!("F = ab + bc + ac   (|F| = {} BDD nodes)\n", m.size(f));

    // Phase (α): search for non-trivial m-dominators.
    let config = MajConfig::default();
    let dominators = find_m_dominators(&mut m, f, &config);
    println!("(α) m-dominator search: {} candidate(s)", dominators.len());
    for &d in &dominators {
        println!(
            "    node on variable {} — candidate Fa",
            m.var_name(m.node(d).var.0)
        );
    }

    // Phase (β): construct the initial decomposition from the candidate.
    let fa = m.function_of(dominators[0]);
    let cand = construct_majority(&mut m, f, fa);
    println!(
        "\n(β) construction: |Fa| = {}, |Fb| = {}, |Fc| = {}   (seeds H = F⇓Fa, W = F⇓Fa')",
        cand.sizes[0], cand.sizes[1], cand.sizes[2]
    );

    // Phase (γ): cyclic balancing until fixpoint (bounded by the paper's
    // iteration limit of 5).
    let mut balanced = cand;
    let mut iter = 0;
    while iter < config.max_iterations && balance_pass(&mut m, &mut balanced) {
        iter += 1;
        println!(
            "(γ) balancing pass {iter}: sizes now {:?} (total {})",
            balanced.sizes,
            balanced.total()
        );
    }

    // Phase (ω): the full algorithm picks the best candidate overall.
    let best = maj_decompose(&mut m, f, &config).expect("decomposable");
    println!(
        "\n(ω) selected decomposition: total {} nodes — F = Maj(Fa, Fb, Fc) with three literals",
        best.total()
    );
    let maj = m.maj(best.triple[0], best.triple[1], best.triple[2]);
    assert_eq!(maj, f, "selected decomposition is valid");

    // Fig. 1: the BDD with the m-dominator highlighted.
    println!("\n----- Fig. 1 (Graphviz DOT; render with `dot -Tpng`) -----");
    println!("{}", m.to_dot(f, &dominators));
}
