//! Ablation: MESI vs MSI coherence (paper §1 lists MESI, MSI, MOSI and
//! MOESI as the protocol family; the HP machines run MESI-style
//! protocols).
//!
//! The Exclusive state lets a sole reader upgrade to Modified silently;
//! MSI charges a directory round trip for every S→M transition. The
//! workload's pooled read-then-write paths (file positions, LRU ticks)
//! make the difference visible, while *false-sharing* behaviour — the
//! paper's subject — is protocol-independent: the sort-by-hotness
//! catastrophe on struct A is reproduced under both.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_protocol [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{derive_paper_layouts, figure_setup, measure_complete, Cell, CommonArgs};
use slopt_sim::Protocol;
use slopt_workload::{baseline_layouts, layouts_with, LayoutKind, Machine, SdetConfig};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_protocol",
        "MESI vs MSI coherence, struct A (128-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let machine = Machine::superdome(128);
    let layouts = derive_paper_layouts(&ctx, &setup, "ablation_protocol");
    let a = setup.kernel.records.a;
    let protocols = [Protocol::Mesi, Protocol::Msi];

    // The grid: per protocol, a baseline cell and a hotness-A cell.
    let mut cells = Vec::new();
    for protocol in protocols {
        let sdet = SdetConfig {
            protocol,
            ..setup.sdet.clone()
        };
        cells.push(Cell {
            label: format!("{protocol:?}/baseline"),
            table: baseline_layouts(&setup.kernel, sdet.line_size),
            sdet: sdet.clone(),
            machine: machine.clone(),
        });
        cells.push(Cell {
            label: format!("{protocol:?}/hotness-A"),
            table: layouts_with(
                &setup.kernel,
                sdet.line_size,
                a,
                layouts.layout(a, LayoutKind::SortByHotness).clone(),
            ),
            sdet,
            machine: machine.clone(),
        });
    }

    let measured = measure_complete(&ctx, "ablation_protocol", &setup.kernel, &cells, setup.runs)
        .unwrap_or_else(|e| e.exit(&ctx));

    println!("=== ablation: MESI vs MSI (128-way) ===");
    println!(
        "{:>10} {:>22} {:>24}",
        "protocol", "baseline tput", "hotness-A vs baseline"
    );
    for (i, protocol) in protocols.iter().enumerate() {
        let baseline = &measured[2 * i];
        let hot = &measured[2 * i + 1];
        println!(
            "{:>10} {:>22.1} {:>23.2}%",
            format!("{protocol:?}"),
            baseline.mean,
            hot.pct_vs(baseline)
        );
    }

    ctx.finish();
}
