//! Runs the complete experiment suite (every table and figure of the
//! paper's evaluation) and prints one consolidated report.
//!
//! ```text
//! cargo run --release -p qma-bench --bin reproduce             # quick, all cores
//! cargo run --release -p qma-bench --bin reproduce -- --serial # one thread
//! QMA_FULL=1 cargo run --release -p qma-bench --bin reproduce  # paper scale
//! ```
//!
//! Each section sits under a banner that names its id, in paper
//! order: `table04`, `fig07` … `fig15`, `fig18`, `fig19`, `energy`
//! (§6.2.1), `fig21`, `fig22` and `fig26`, then the `ablations` of
//! QMA's design choices. Sections of one scenario share its runs.
//!
//! Independent experiment units (δ-rates, per-cell replications) fan
//! out over the worker pool; `--serial` pins the pool to one thread
//! and produces **bit-identical** output, because every job's
//! randomness is a pure function of the master seed and results are
//! always collected in job order. Any other argument is refused
//! before anything runs.

use qma_bench::runner::pin_pool_to_one_thread;
use qma_bench::{header, quick, seed};
use qma_core::lauer::MatrixGame;
use qma_scenarios::common::replicate;
use qma_scenarios::testbed::Testbed;
use qma_scenarios::{
    ablation, convergence, dsme_scale, fluctuating, hidden_node, markov, slots, tables, testbed,
    MacKind,
};

/// `true` for `--serial`; any other argument is an error.
fn parse_args() -> Result<bool, String> {
    let mut serial = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--serial" => serial = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(serial)
}

/// Opens the report section of figure `id`.
fn section(id: &str, topic: &str) {
    println!("\n================ {id} — {topic} ================");
}

fn main() {
    match parse_args() {
        Ok(true) => pin_pool_to_one_thread(),
        Ok(false) => {}
        Err(e) => {
            eprintln!("{e} (usage: reproduce [--serial])");
            std::process::exit(2);
        }
    }
    header("reproduce", "all tables and figures of the QMA evaluation");
    println!("# parallelism: {} thread(s)", rayon::current_num_threads());
    let q = quick();
    let s = seed();

    section("table04", "Tables 1–4, cooperative Q-learning");
    for (name, game) in [
        ("Table 1", MatrixGame::table1()),
        ("Table 2", MatrixGame::table2()),
        ("Table 3", MatrixGame::table3()),
    ] {
        let local = tables::play_game(&game, 0.0, 500, 1);
        println!("## {name} — learned local Q-tables");
        for (i, t) in local.iter().enumerate() {
            println!(
                "agent {i}: Q(a') = {}, Q(a'') = {}, policy = a{}",
                t.q_a1,
                t.q_a2,
                if t.policy == 0 { "'" } else { "''" }
            );
        }
    }
    println!("## Table 4 — local rewards and conceptual global reward");
    print!("{}", tables::format_table4(&tables::table4()));

    let cells = hidden_node::sweep(q, s);
    for (id, label, metric) in [
        ("fig07", "PDR (Fig. 7)", "pdr"),
        ("fig08", "avg queue level (Fig. 8)", "queue"),
        ("fig09", "avg end-to-end delay [s] (Fig. 9)", "delay"),
    ] {
        section(id, "hidden node");
        println!("-- {label}");
        print!("{}", hidden_node::format_table(&cells, metric));
    }

    let deltas = convergence::PAPER_DELTAS;
    let duration = if q { 200 } else { 450 };
    // Scenarios derive their own per-node streams from the master
    // seed, so the fan-out passes it through unchanged.
    let runs = replicate(deltas.len() as u64, |i| {
        convergence::run(deltas[i as usize], duration, s)
    });
    section("fig10", "convergence, cumulative Q-values per frame");
    for (delta, r) in deltas.iter().zip(&runs) {
        println!(
            "## delta = {delta} pkt/s (settles at {:?} s)",
            r.settle_time
        );
        print!("{}", convergence::format_series(&r.q_sum, 40));
    }
    section("fig11", "convergence, exploration probability rho");
    for (delta, r) in deltas.iter().zip(&runs) {
        println!("## delta = {delta} pkt/s");
        print!("{}", convergence::format_series(&r.rho, 40));
    }
    for (delta, r) in deltas.iter().zip(&runs) {
        let last_q = r.q_sum.values().last().copied().unwrap_or(f64::NAN);
        let max_rho = r.rho.values().iter().cloned().fold(0.0, f64::max);
        println!(
            "delta {:>5}: final cumulative Q = {:8.1}, settle at {:?} s, max rho = {:.4}",
            delta, last_q, r.settle_time, max_rho
        );
    }

    section("fig12", "fluctuating traffic, cumulative Q-values");
    let r = fluctuating::run(if q { 600 } else { 1_400 }, s);
    println!("## node A");
    print!("{}", convergence::format_series(&r.q_sum_a, 60));
    println!("## node C");
    print!("{}", convergence::format_series(&r.q_sum_c, 60));
    println!("## overall PDR: {:.3}", r.pdr);
    println!("PDR over the run: {:.3}", r.pdr);
    for (label, ser) in [("A", &r.q_sum_a), ("C", &r.q_sum_c)] {
        let last = ser.values().last().copied().unwrap_or(f64::NAN);
        println!("node {label}: final cumulative Q = {last:.1}");
    }

    let slot_figs = [("fig13", 1.0), ("fig14", 10.0), ("fig15", 100.0)];
    let horizon = if q { 420 } else { 600 };
    let utilizations = replicate(slot_figs.len() as u64, |i| {
        slots::run(slot_figs[i as usize].1, horizon, s)
    });
    for ((id, delta), u) in slot_figs.into_iter().zip(&utilizations) {
        section(id, &format!("subslot utilization at delta = {delta} pkt/s"));
        println!("(legend: . = QBackoff/unused, C = QCCA, T = QSend)");
        let checkpoint = slots::paper_checkpoint(delta);
        println!("after first exploration (t = {checkpoint} s):");
        println!("  A: {}", slots::format_strip(&u.early_a));
        println!("  C: {}", slots::format_strip(&u.early_c));
        println!("final policy:");
        println!("  A: {}", slots::format_strip(&u.final_a));
        println!("  C: {}", slots::format_strip(&u.final_c));
        println!(
            "tx subslots: A = {}, C = {}, overlaps = {}",
            slots::tx_slots(&u.final_a),
            slots::tx_slots(&u.final_c),
            slots::policies_collide(&u.final_a, &u.final_c),
        );
    }
    for ((_, delta), u) in slot_figs.into_iter().zip(&utilizations) {
        println!("delta {delta}: final policies (.=QBackoff C=QCCA T=QSend)");
        println!("  A: {}", slots::format_strip(&u.final_a));
        println!("  C: {}", slots::format_strip(&u.final_c));
        println!(
            "  tx subslots A/C = {}/{}, overlaps = {}",
            slots::tx_slots(&u.final_a),
            slots::tx_slots(&u.final_c),
            slots::policies_collide(&u.final_a, &u.final_c)
        );
    }

    // Each sweep fans its replications out over the pool itself, so
    // the four sweeps run one after another.
    let mut sweeps = Vec::new();
    for tb in [Testbed::Tree, Testbed::Star] {
        let results =
            [MacKind::Qma, MacKind::UnslottedCsma].map(|mac| testbed::sweep(tb, mac, q, s));
        sweeps.push((tb, results));
    }
    for (id, (tb, results)) in ["fig18", "fig19"].into_iter().zip(&sweeps) {
        section(id, "testbed, per-node PDR");
        println!("-- {tb:?}");
        print!("{}", testbed::format_table(results));
        for r in results {
            println!("total {}: {}", r.mac, r.total_pdr);
        }
        let [qma, csma] = results;
        println!("total: QMA {} vs CSMA {}", qma.total_pdr, csma.total_pdr);
        println!(
            "energy: QMA {:.1} mJ / {} attempts vs CSMA {:.1} mJ / {} attempts",
            qma.energy.mean_mj,
            qma.energy.tx_attempts,
            csma.energy.mean_mj,
            csma.energy.tx_attempts
        );
    }
    section("energy", "testbed, radio energy and attempts (§6.2.1)");
    println!("| testbed | scheme | mean energy [mJ] | tx attempts | CCAs |");
    println!("|---|---|---|---|---|");
    for (tb, results) in &sweeps {
        for r in results {
            println!(
                "| {:?} | {} | {:.1} | {} | {} |",
                tb, r.mac, r.energy.mean_mj, r.energy.tx_attempts, r.energy.ccas
            );
        }
    }

    let cells = dsme_scale::sweep(q, s);
    let dsme_table = |metric| dsme_scale::format_table(&cells, metric);
    section("fig21", "DSME scalability");
    println!("-- secondary-traffic PDR (Fig. 21)");
    print!("{}", dsme_table("secondary_pdr"));
    println!("\nGTS (de)allocations per second:");
    print!("{}", dsme_table("gts_rate"));
    println!("\nprimary-traffic PDR over GTS:");
    print!("{}", dsme_table("primary_pdr"));
    section("fig22", "DSME scalability");
    println!("-- successful GTS-requests (Fig. 22)");
    print!("{}", dsme_table("gts_request_success"));
    println!("-- GTS (de)allocations per second");
    print!("{}", dsme_table("gts_rate"));

    section("fig26", "expected messages per GTS handshake");
    let rows = markov::rows(if q { 100_000 } else { 1_000_000 }, s);
    print!("{}", markov::format_table(&rows));
    println!();
    println!("note: for p >= 0.7 all methods match the paper; below that the");
    println!("paper's Fig. 26 annotations are inconsistent with its own Eq. 10");
    println!("matrix.");

    section("ablations", "QMA's design choices, each switched off");
    let packets = if q { 250 } else { 1000 };
    for delta in [10.0, 50.0] {
        println!("## delta = {delta} pkt/s");
        let results = ablation::run_all(delta, packets, s);
        print!("{}", ablation::format_table(&results));
    }
}
