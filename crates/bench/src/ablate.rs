//! The paper's side studies as one table.
//!
//! The paper backs its design with experiments beside the figures: the
//! Minimum Heuristic (§4.1), the intra-procedural approximation (§3.1),
//! the sampling parameters (§4.2), the constrained edit's noise floor
//! (§5.2), the CycleLoss weight. Each is one [`Ablation`] row of
//! [`ablations`]; the `ablate` binary runs any of them under one
//! [`ExecCtx`], so every row honours the shared flags (trace, stats,
//! checkpoint, fault plan) and shares the context's run memo.
//!
//! Every throughput a row prints is a grid item of [`measure_complete`]:
//! a row's grid name is its row name (its progress and degrade tag), and
//! a holed grid prints its partial table and returns
//! [`GridError::Degraded`].

use std::collections::HashSet;

use slopt_core::{
    clustering_score, suggest_constrained, suggest_layout, FlgParams, SubgraphParams, ToolParams,
};
use slopt_ir::affinity::{AffinityGraph, AffinityMode};
use slopt_ir::inline::InlineParams;
use slopt_ir::layout::StructLayout;
use slopt_ir::types::RecordId;
use slopt_obs::Obs;
use slopt_sample::{
    concurrency_map, ConcurrencyConfig, ConcurrencyMap, ExactCounter, Sampler, SamplerConfig,
};
use slopt_sim::{CacheConfig, LatencyModel, NullObserver, Observer, Protocol, Topology};
use slopt_workload::analyze::affinity_for;
use slopt_workload::{
    analyze_obs, baseline_layouts, compute_paper_layouts_jobs_obs, ground_truth_loss, layouts_with,
    loss_for, run_once, run_once_logged, suggest_for, AnalysisConfig, Kernel, LayoutKind, Machine,
    SdetConfig, STAT_CLASSES,
};

use crate::harness::{derive_paper_layouts, FigureSetup};
use crate::runner::{measure_complete, run_items, Cell, ExecCtx, GridError};

/// One side study: the name `ablate NAME` selects it by (also its grid
/// name), the line `ablate --help` lists, and
/// the body that measures and prints its table.
#[derive(Clone, Copy, Debug)]
pub struct Ablation {
    /// Row name.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Measures the study and prints its table.
    pub run: fn(&ExecCtx, &FigureSetup) -> Result<(), GridError>,
}

/// Every side study, in the order `ablate` runs them.
pub fn ablations() -> [Ablation; 11] {
    [
        Ablation {
            name: "cc_validation",
            about: "Code Concurrency sampling-fidelity and machine-size checks",
            run: cc_validation,
        },
        Ablation {
            name: "k2",
            about: "CycleLoss constant sweep on struct A (128-way)",
            run: k2,
        },
        Ablation {
            name: "min_heuristic",
            about: "Minimum Heuristic vs group-frequency affinity (128-way)",
            run: min_heuristic,
        },
        Ablation {
            name: "blocksize",
            about: "64 B vs 128 B coherence blocks, struct A (128-way)",
            run: blocksize,
        },
        Ablation {
            name: "sampling",
            about: "sampling period/interval sweep for Code Concurrency fidelity",
            run: sampling,
        },
        Ablation {
            name: "validate_cycleloss",
            about: "CycleLoss estimate vs simulated per-field-pair false sharing",
            run: validate_cycleloss,
        },
        Ablation {
            name: "refine",
            about: "greedy vs refined clustering (128-way)",
            run: refine,
        },
        Ablation {
            name: "sweep_remote_latency",
            about: "sort-by-hotness cost vs coherence-transfer latency (64-way)",
            run: sweep_remote_latency,
        },
        Ablation {
            name: "inline",
            about: "intra-procedural analysis vs inlining (struct B)",
            run: inline,
        },
        Ablation {
            name: "protocol",
            about: "MESI vs MSI coherence, struct A (128-way)",
            run: protocol,
        },
        Ablation {
            name: "floor",
            about: "constrained-mode noise floor on vs off (struct A, 128-way)",
            run: floor,
        },
    ]
}

/// The rows named in `wanted`, in table order, or every row when
/// `wanted` is empty. An unknown name is an error listing the known ones.
pub fn select_ablations(wanted: &[String]) -> Result<Vec<Ablation>, String> {
    let all = ablations();
    if let Some(bad) = wanted.iter().find(|w| all.iter().all(|a| a.name != *w)) {
        let known: Vec<&str> = all.iter().map(|a| a.name).collect();
        return Err(format!("no ablation `{bad}` (known: {})", known.join(", ")));
    }
    Ok(all
        .into_iter()
        .filter(|a| wanted.is_empty() || wanted.iter().any(|w| w == a.name))
        .collect())
}

/// The all-baseline table of the setup's kernel on `machine`.
fn baseline_cell(setup: &FigureSetup, machine: &Machine) -> Cell {
    Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(&setup.kernel, setup.sdet.line_size),
        sdet: setup.sdet.clone(),
        machine: machine.clone(),
    }
}

/// The setup's kernel with `rec` laid out as `layout` and every other
/// record at baseline, on `machine`.
fn layout_cell(
    setup: &FigureSetup,
    machine: &Machine,
    label: String,
    rec: RecordId,
    layout: StructLayout,
) -> Cell {
    Cell {
        label,
        table: layouts_with(&setup.kernel, setup.sdet.line_size, rec, layout),
        sdet: setup.sdet.clone(),
        machine: machine.clone(),
    }
}

/// Whether struct A's `layout` keeps every contended stat counter off
/// the line of the hot `flags` field.
fn counters_isolated(kernel: &Kernel, layout: &StructLayout) -> bool {
    let a = kernel.records.a;
    let flags = kernel.field(a, "flags");
    (0..STAT_CLASSES).all(|k| !layout.share_line(kernel.field(a, &format!("stat{k}")), flags))
}

/// Fraction of `a`'s top-`k` concurrent line pairs that are also among
/// `b`'s top-`k`.
fn top_overlap(a: &ConcurrencyMap, b: &ConcurrencyMap, k: usize) -> f64 {
    let top = |m: &ConcurrencyMap| -> HashSet<_> {
        m.top_pairs(k).into_iter().map(|(x, y, _)| (x, y)).collect()
    };
    let (ta, tb) = (top(a), top(b));
    if ta.is_empty() {
        return 0.0;
    }
    ta.intersection(&tb).count() as f64 / ta.len() as f64
}

/// Code Concurrency validation (§4.2–4.3). Sampling fidelity: CC from
/// periodic samples should find the same highly concurrent line pairs as
/// exact per-block counts of the same run. Machine-size stability: the
/// paper found that high-concurrency pairs "remain more or less the
/// same" between 4-way and 16-way collection.
fn cc_validation(_ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let (kernel, sdet, seed) = (&setup.kernel, &setup.sdet, setup.analysis.seed);
    let layouts = baseline_layouts(kernel, sdet.line_size);
    let cc_cfg = ConcurrencyConfig {
        interval: setup.analysis.interval,
    };
    // Same seed, so every observer sees the same execution per machine.
    let observe = |machine: &Machine, observer: &mut dyn Observer| {
        run_once(kernel, &layouts, machine, sdet, seed, observer);
    };
    let sampled_on = |machine: &Machine| {
        let mut sampler = Sampler::new(machine.cpus(), setup.analysis.sampler);
        observe(machine, &mut sampler);
        concurrency_map(sampler.samples(), &cc_cfg)
    };

    let machine = Machine::superdome(16);
    let sampled = sampled_on(&machine);
    let mut exact = ExactCounter::new();
    observe(&machine, &mut exact);
    let exact_cc = concurrency_map(exact.samples(), &cc_cfg);

    println!("=== Code Concurrency validation ===");
    println!(
        "16-way: {} sampled pairs, {} exact pairs",
        sampled.len(),
        exact_cc.len()
    );
    for k in [10, 20, 50] {
        println!(
            "  top-{k} overlap sampled vs exact: {:.0}%",
            100.0 * top_overlap(&sampled, &exact_cc, k)
        );
    }
    let sampled4 = sampled_on(&Machine::superdome(4));
    for k in [10, 20] {
        println!(
            "  top-{k} overlap 4-way vs 16-way: {:.0}% (paper: 'more or less the same')",
            100.0 * top_overlap(&sampled4, &sampled, k)
        );
    }
    println!("top sampled pairs (16-way):");
    for (l1, l2, cc) in sampled.top_pairs(8) {
        println!("  {l1} -- {l2}: {cc}");
    }
    Ok(())
}

/// The CycleLoss constant `k2` (§2, `w = k1·CG − k2·CL`), swept on
/// struct A: whether the automatic layout still isolates the contended
/// counters, and its throughput on the 128-way machine. With `k2 = 0`
/// the FLG degenerates to single-threaded affinity, the counters are
/// packed with the hot fields and throughput collapses; beyond a modest
/// `k2` the layout is stable.
fn k2(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let kernel = &setup.kernel;
    let analysis = analyze_obs(kernel, &setup.sdet, &setup.analysis, &ctx.obs);
    let a = kernel.records.a;
    let machine = Machine::superdome(128);
    let k2s = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0];

    let mut cells = vec![baseline_cell(setup, &machine)];
    let mut isolated = Vec::new();
    for k2 in k2s {
        let params = ToolParams {
            flg: FlgParams { k1: 1.0, k2 },
            ..setup.tool
        };
        let layout = suggest_for(kernel, &analysis, a, params).layout;
        isolated.push(counters_isolated(kernel, &layout));
        cells.push(layout_cell(setup, &machine, format!("k2={k2}"), a, layout));
    }
    let measured = measure_complete(ctx, "k2", kernel, &cells, setup.runs)?;
    let baseline = &measured[0];

    println!("=== ablation: k2 sweep on struct A (128-way) ===");
    println!(
        "{:>10} {:>22} {:>14}",
        "k2", "counters isolated?", "% vs baseline"
    );
    for ((k2, isolated), t) in k2s.iter().zip(isolated).zip(&measured[1..]) {
        println!(
            "{:>10} {:>22} {:>13.2}%",
            k2,
            if isolated { "yes" } else { "NO" },
            t.pct_vs(baseline)
        );
    }
    Ok(())
}

/// The Minimum Heuristic (§4.1) vs the plain CGO'06 group-frequency
/// affinity, per struct on the 128-way machine. The heuristic bounds a
/// pair's affinity by the smaller of the two fields' access counts; the
/// naive mode gives every pair in a group the group's frequency,
/// overweighting rarely accessed fields that sit in hot loops.
fn min_heuristic(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    const MODES: [AffinityMode; 2] = [AffinityMode::Minimum, AffinityMode::GroupFrequency];
    let kernel = &setup.kernel;
    let analysis = analyze_obs(kernel, &setup.sdet, &setup.analysis, &ctx.obs);
    let machine = Machine::superdome(128);

    let mut cells = vec![baseline_cell(setup, &machine)];
    for (letter, rec) in kernel.records.all() {
        let loss = loss_for(kernel, &analysis, rec);
        for mode in MODES {
            let affinity =
                AffinityGraph::analyze_with_mode(&kernel.program, &analysis.profile, rec, mode);
            let layout = suggest_layout(
                kernel.record_type(rec),
                &affinity,
                Some(&loss),
                setup.tool,
                &Obs::disabled(),
            )
            .expect("valid record")
            .layout;
            let label = format!("{letter}/{mode:?}");
            cells.push(layout_cell(setup, &machine, label, rec, layout));
        }
    }
    let measured = measure_complete(ctx, "min_heuristic", kernel, &cells, setup.runs)?;
    let baseline = &measured[0];

    println!("=== ablation: Minimum Heuristic vs group-frequency affinity (128-way) ===");
    println!(
        "{:<8} {:>14} {:>18}",
        "struct", "minimum", "group-frequency"
    );
    for ((letter, _), group) in kernel
        .records
        .all()
        .iter()
        .zip(measured[1..].chunks(MODES.len()))
    {
        println!(
            "{letter:<8} {:>13.2}% {:>17.2}%",
            group[0].pct_vs(baseline),
            group[1].pct_vs(baseline)
        );
    }
    Ok(())
}

/// Coherence-block size, 64 B vs the Itanium's 128 B: the protocol does
/// not distinguish bytes within a block, so the block sets the blast
/// radius of false sharing. Baseline, tool and sort-by-hotness layouts
/// of struct A at both sizes (same cache capacity) on the 128-way
/// machine.
fn blocksize(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    const KINDS: [LayoutKind; 2] = [LayoutKind::Tool, LayoutKind::SortByHotness];
    let kernel = &setup.kernel;
    let a = kernel.records.a;
    let machine = Machine::superdome(128);
    let block_sizes = [64u64, 128u64];

    // Per block size: a baseline cell, then one cell per layout kind.
    let mut cells = Vec::new();
    for line_size in block_sizes {
        let sdet = SdetConfig {
            line_size,
            cache: CacheConfig {
                line_size,
                // Keep capacity constant: halve the line, double the sets.
                sets: (512 * 128 / line_size) as usize,
                ways: 8,
            },
            ..setup.sdet.clone()
        };
        let mut tool = setup.tool;
        tool.layout.line_size = line_size;
        let layouts = compute_paper_layouts_jobs_obs(
            kernel,
            &sdet,
            &setup.analysis,
            tool,
            ctx.jobs,
            &ctx.obs,
        );
        cells.push(Cell {
            label: format!("{line_size}B/baseline"),
            table: baseline_layouts(kernel, line_size),
            sdet: sdet.clone(),
            machine: machine.clone(),
        });
        for kind in KINDS {
            cells.push(Cell {
                label: format!("{line_size}B/{kind}"),
                table: layouts_with(kernel, line_size, a, layouts.layout(a, kind).clone()),
                sdet: sdet.clone(),
                machine: machine.clone(),
            });
        }
    }
    let measured = measure_complete(ctx, "blocksize", kernel, &cells, setup.runs)?;

    println!("=== ablation: coherence block size, struct A (128-way) ===");
    println!("{:>8} {:>12} {:>18}", "block", "tool", "sort-by-hotness");
    for (line_size, group) in block_sizes.iter().zip(measured.chunks(1 + KINDS.len())) {
        let baseline = &group[0];
        println!(
            "{line_size:>7}B {:>11.2}% {:>17.2}%",
            group[1].pct_vs(baseline),
            group[2].pct_vs(baseline)
        );
    }
    Ok(())
}

/// Sampling period and interval for Code Concurrency (§4.2 chose
/// 100 000-cycle samples in 1 ms intervals to balance data volume
/// against sample loss). Per (period, interval): whether struct A's
/// automatic layout still isolates the contended counters, and the
/// top-20 pair overlap with exact counts. Each configuration is one
/// supervised grid item (no throughput is measured, so no checkpoint).
fn sampling(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let kernel = &setup.kernel;
    let layouts = baseline_layouts(kernel, setup.sdet.line_size);

    // Ground truth: exact per-block counts on the measurement machine.
    let mut exact = ExactCounter::new();
    {
        let _span = ctx.obs.span("exact_run");
        run_once(
            kernel,
            &layouts,
            &setup.analysis.machine,
            &setup.sdet,
            setup.analysis.seed,
            &mut exact,
        );
    }
    let exact_cc = concurrency_map(
        exact.samples(),
        &ConcurrencyConfig {
            interval: setup.analysis.interval,
        },
    );

    let mut grid = Vec::new();
    for period in [250u64, 500, 2_000, 8_000] {
        for interval in [3_000u64, 6_000, 24_000] {
            if interval < 4 * period {
                continue; // fewer than ~4 samples per interval is meaningless
            }
            grid.push((period, interval));
        }
    }
    eprintln!(
        "[sampling] analyzing {} sampling configurations on {} thread(s)...",
        grid.len(),
        ctx.jobs
    );
    // One configuration: instrumented run + analysis.
    let analyze_pair = |(period, interval): (u64, u64)| {
        let cfg = AnalysisConfig {
            sampler: SamplerConfig {
                period,
                ..setup.analysis.sampler
            },
            interval,
            ..setup.analysis.clone()
        };
        let analysis = analyze_obs(kernel, &setup.sdet, &cfg, &ctx.obs);
        let layout = suggest_for(kernel, &analysis, kernel.records.a, setup.tool).layout;
        (
            analysis.samples.len(),
            counters_isolated(kernel, &layout),
            top_overlap(&exact_cc, &analysis.concurrency, 20),
        )
    };
    // (samples, isolated?, overlap) per grid row; None marks a hole.
    let (rows, report) = run_items(
        ctx,
        &grid,
        |i, _| i,
        |&pair| analyze_pair(pair),
        |_, _, _| {},
    );
    if report.had_faults() {
        eprintln!("[sampling] {}", report.summary_line());
    }
    for f in &report.poisoned {
        eprintln!("[sampling] poisoned: {f}");
    }

    println!("=== ablation: sampling parameters (struct A isolation + CC fidelity) ===");
    println!(
        "{:>10} {:>10} {:>10} {:>20} {:>16}",
        "period", "interval", "samples", "counters isolated?", "top-20 overlap"
    );
    for (&(period, interval), row) in grid.iter().zip(&rows) {
        match row {
            Some((samples, isolated, overlap)) => println!(
                "{:>10} {:>10} {:>10} {:>20} {:>15.0}%",
                period,
                interval,
                samples,
                if *isolated { "yes" } else { "NO" },
                overlap * 100.0
            ),
            None => println!(
                "{period:>10} {interval:>10} {:>10} {:>20} {:>16}",
                "HOLE", "HOLE", "HOLE"
            ),
        }
    }
    if report.degraded() {
        return Err(GridError::Degraded {
            poisoned: report.poisoned.len(),
        });
    }
    Ok(())
}

/// The CycleLoss estimate (§3.2: Code Concurrency × Field Mapping File
/// predicts which field pairs would false-share if co-located) against
/// simulated reality, which the paper's hardware could not measure:
/// estimate struct A's CycleLoss from the baseline measurement run, run
/// the sort-by-hotness layout (which co-locates the risky fields) with
/// byte-level sharing-miss logging, attribute each false-sharing miss to
/// its field pair, and score the estimate's ranking.
fn validate_cycleloss(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let kernel = &setup.kernel;
    let a = kernel.records.a;
    let ty = kernel.record_type(a);

    // 1. The estimate, from the run the paper layouts are derived from —
    //    before the dangerous layout exists, the tool's situation.
    let paper = derive_paper_layouts(ctx, setup, "validate_cycleloss");
    let estimated = loss_for(kernel, &paper.analysis, a);

    // 2. Ground truth under the co-locating layout.
    let table = layouts_with(
        kernel,
        setup.sdet.line_size,
        a,
        paper.layout(a, LayoutKind::SortByHotness).clone(),
    );
    let machine = Machine::superdome(64);
    let (_, events, instances) = run_once_logged(
        kernel,
        &table,
        &machine,
        &setup.sdet,
        7,
        &mut NullObserver,
        true,
    );
    let truth = ground_truth_loss(
        &table,
        &instances,
        &events,
        a,
        machine.cpus(),
        setup.sdet.pool_instances,
    );

    println!("=== CycleLoss estimate vs measured false sharing (struct A) ===");
    println!(
        "measured collisions: {} across {} field pairs ({} unresolved)",
        truth.total(),
        truth.pairs().len(),
        truth.unresolved
    );
    println!("\ntop measured pairs vs their estimated CycleLoss:");
    println!(
        "{:<16} {:<16} {:>12} {:>14}",
        "field 1", "field 2", "measured", "estimated"
    );
    for (f1, f2, n) in truth.pairs().iter().take(10) {
        println!(
            "{:<16} {:<16} {:>12} {:>14.1}",
            ty.field(*f1).name(),
            ty.field(*f2).name(),
            n,
            estimated.get(*f1, *f2)
        );
    }

    // 3. Recall: measured colliding pairs the estimate rates non-zero.
    //    Precision: ground truth only holds pairs this layout co-located,
    //    so of the estimate's top ten co-located pairs, how many collided?
    //    An empty side scores 100 %.
    let ratio = |hits: usize, of: usize| {
        if of == 0 {
            1.0
        } else {
            hits as f64 / of as f64
        }
    };
    let measured_pairs = truth.pairs();
    let est_nonzero: HashSet<(u32, u32)> = estimated
        .pairs()
        .into_iter()
        .map(|(x, y, _)| (x.0, y.0))
        .collect();
    let covered = measured_pairs
        .iter()
        .filter(|(x, y, _)| est_nonzero.contains(&(x.0.min(y.0), x.0.max(y.0))))
        .count();
    let recall = ratio(covered, measured_pairs.len());
    let layout = table.layout(a);
    let est_top_colocated: Vec<(u32, u32)> = estimated
        .pairs()
        .into_iter()
        .filter(|(x, y, _)| layout.share_line(*x, *y))
        .take(10)
        .map(|(x, y, _)| (x.0, y.0))
        .collect();
    let truth_set: HashSet<(u32, u32)> = measured_pairs
        .iter()
        .map(|(x, y, _)| (x.0.min(y.0), x.0.max(y.0)))
        .collect();
    let collided = est_top_colocated
        .iter()
        .filter(|p| truth_set.contains(p))
        .count();
    let precision = ratio(collided, est_top_colocated.len());
    println!(
        "\nestimate covers {:.0}% of measured colliding pairs (recall);",
        recall * 100.0
    );
    println!(
        "of the estimate's top-10 co-located risk pairs, {:.0}% actually collided (precision)",
        precision * 100.0
    );
    Ok(())
}

/// Greedy clustering vs greedy plus local-search refinement (the §7
/// "better clustering algorithm" future work, `slopt_core::refine`):
/// the clustering objective and the throughput of both variants' layouts
/// per struct on the 128-way machine.
fn refine(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let kernel = &setup.kernel;
    let analysis = analyze_obs(kernel, &setup.sdet, &setup.analysis, &ctx.obs);
    let machine = Machine::superdome(128);
    let refined_params = ToolParams {
        refine: true,
        ..setup.tool
    };

    // A baseline cell, then (greedy, refined) cells per struct.
    let mut cells = vec![baseline_cell(setup, &machine)];
    let mut scores = Vec::new();
    for (letter, rec) in kernel.records.all() {
        let greedy = suggest_for(kernel, &analysis, rec, setup.tool);
        let refined = suggest_for(kernel, &analysis, rec, refined_params);
        scores.push((
            clustering_score(&greedy.flg, &greedy.clustering),
            clustering_score(&refined.flg, &refined.clustering),
        ));
        for (variant, suggestion) in [("greedy", greedy), ("refined", refined)] {
            let label = format!("{letter}/{variant}");
            cells.push(layout_cell(setup, &machine, label, rec, suggestion.layout));
        }
    }
    let measured = measure_complete(ctx, "refine", kernel, &cells, setup.runs)?;
    let baseline = &measured[0];

    println!("=== ablation: greedy vs refined clustering (128-way) ===");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12}",
        "struct", "greedy score", "refined score", "greedy %", "refined %"
    );
    for (((letter, _), (gs, rs)), pair) in kernel
        .records
        .all()
        .iter()
        .zip(scores)
        .zip(measured[1..].chunks(2))
    {
        println!(
            "{letter:<8} {gs:>14.0} {rs:>14.0} {:>11.2}% {:>11.2}%",
            pair[0].pct_vs(baseline),
            pair[1].pct_vs(baseline)
        );
    }
    Ok(())
}

/// How the cost of the sort-by-hotness layout grows with remote transfer
/// latency: the continuum between Figure 9 (4-way bus, false sharing
/// costs about an L2 miss) and Figure 8 (128-way Superdome, ~1000-cycle
/// transfers). The 64-CPU hierarchy is fixed and its cache-to-cache
/// latencies scaled; struct A is measured at baseline and sort-by-hotness
/// at each point.
fn sweep_remote_latency(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let layouts = derive_paper_layouts(ctx, setup, "sweep_remote_latency");
    let a = setup.kernel.records.a;
    let hot = layouts.layout(a, LayoutKind::SortByHotness);
    let machines = [0.25, 0.5, 1.0, 2.0].map(|factor| {
        let machine = Machine {
            topo: Topology::superdome(64),
            lat: scaled(LatencyModel::superdome(), factor),
        };
        (factor, machine)
    });

    // Per factor: a baseline cell and a hotness-A cell.
    let mut cells = Vec::new();
    for (factor, machine) in &machines {
        cells.push(Cell {
            label: format!("x{factor}/baseline"),
            ..baseline_cell(setup, machine)
        });
        let label = format!("x{factor}/hotness-A");
        cells.push(layout_cell(setup, machine, label, a, hot.clone()));
    }
    let measured = measure_complete(
        ctx,
        "sweep_remote_latency",
        &setup.kernel,
        &cells,
        setup.runs,
    )?;

    println!("=== struct A degradation vs coherence-transfer latency (64-way) ===");
    println!(
        "{:>8} {:>10} {:>22}",
        "factor", "remote", "sort-by-hotness vs base"
    );
    for ((factor, machine), pair) in machines.iter().zip(measured.chunks(2)) {
        println!(
            "{factor:>8} {:>10} {:>21.2}%",
            machine.lat.remote,
            pair[1].pct_vs(&pair[0])
        );
    }
    Ok(())
}

/// `lat` with every cache-to-cache latency scaled by `factor` (hits and
/// memory unchanged).
fn scaled(lat: LatencyModel, factor: f64) -> LatencyModel {
    let s = |x: u64| ((x as f64) * factor).round() as u64;
    LatencyModel {
        hit: lat.hit,
        same_chip: s(lat.same_chip),
        same_bus: s(lat.same_bus),
        same_cell: s(lat.same_cell),
        same_crossbar: s(lat.same_crossbar),
        remote: s(lat.remote),
        memory: lat.memory,
    }
}

/// The intra-procedural approximation vs inlining (§3.1: "an aggressive
/// inlining phase before this analysis would alleviate this problem").
/// The kernel's `b_open_close` changes the vnode refcount through a
/// helper, so without inlining the `v_flags ↔ v_refcnt` affinity is
/// invisible. Both programs are analysed; both layouts are measured on
/// the raw kernel, since the transformation applies to the source either
/// way.
fn inline(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let raw = &setup.kernel;
    let inlined = raw.inlined(InlineParams::default());
    let machine = Machine::superdome(128);

    let mut cells = vec![baseline_cell(setup, &machine)];
    let mut findings = Vec::new();
    for (label, kernel) in [("intra-procedural", raw), ("inlined", &inlined)] {
        let analysis = analyze_obs(kernel, &setup.sdet, &setup.analysis, &ctx.obs);
        let b = kernel.records.b;
        let flags = kernel.field(b, "v_flags");
        let refcnt = kernel.field(b, "v_refcnt");
        let affinity = affinity_for(kernel, &analysis, b).weight(flags, refcnt);
        let layout = suggest_for(kernel, &analysis, b, setup.tool).layout;
        findings.push((label, affinity, layout.share_line(flags, refcnt)));
        cells.push(layout_cell(setup, &machine, label.to_string(), b, layout));
    }
    let measured = measure_complete(ctx, "inline", raw, &cells, setup.runs)?;

    println!("=== ablation: intra-procedural analysis vs inlining (struct B) ===");
    for ((label, affinity, colocated), t) in findings.into_iter().zip(&measured[1..]) {
        println!(
            "{label:<18}: affinity(v_flags, v_refcnt) = {affinity:>6}, co-located = {colocated}, {:+.2}% vs baseline",
            t.pct_vs(&measured[0])
        );
    }
    println!(
        "(the helper-call structure hides the refcount affinity from the\n\
         intra-procedural pass; inlining recovers it, as §3.1 predicts)"
    );
    Ok(())
}

/// MESI vs MSI coherence (§1 lists MESI, MSI, MOSI and MOESI; the HP
/// machines run MESI-style protocols). The Exclusive state lets a sole
/// reader upgrade silently where MSI pays a directory round trip, which
/// the pooled read-then-write paths make visible; false sharing, the
/// paper's subject, is protocol-independent, so struct A's
/// sort-by-hotness catastrophe appears under both.
fn protocol(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let machine = Machine::superdome(128);
    let layouts = derive_paper_layouts(ctx, setup, "protocol");
    let a = setup.kernel.records.a;
    let hot = layouts.layout(a, LayoutKind::SortByHotness);
    let protocols = [Protocol::Mesi, Protocol::Msi];

    // Per protocol: a baseline cell and a hotness-A cell.
    let mut cells = Vec::new();
    for protocol in protocols {
        let sdet = SdetConfig {
            protocol,
            ..setup.sdet.clone()
        };
        cells.push(Cell {
            label: format!("{protocol:?}/baseline"),
            sdet: sdet.clone(),
            ..baseline_cell(setup, &machine)
        });
        let label = format!("{protocol:?}/hotness-A");
        let hot_cell = layout_cell(setup, &machine, label, a, hot.clone());
        cells.push(Cell { sdet, ..hot_cell });
    }
    let measured = measure_complete(ctx, "protocol", &setup.kernel, &cells, setup.runs)?;

    println!("=== ablation: MESI vs MSI (128-way) ===");
    println!(
        "{:>10} {:>22} {:>24}",
        "protocol", "baseline tput", "hotness-A vs baseline"
    );
    for (protocol, pair) in protocols.iter().zip(measured.chunks(2)) {
        println!(
            "{:>10} {:>22.1} {:>23.2}%",
            format!("{protocol:?}"),
            pair[0].mean,
            pair[1].pct_vs(&pair[0])
        );
    }
    Ok(())
}

/// Is the §5.2 noise floor necessary? The constrained mode edits the
/// hand-tuned baseline only along "important" negative FLG edges. With
/// the floor disabled (`negative_floor = 0`, the paper's literal "all
/// negative weight edges") single-sample noise edges count as important
/// and the edit reshuffles struct A's baseline; measured against the
/// default floor (0.01) on the 128-way machine. EXPERIMENTS.md §5.2
/// records the `--scale 2` result.
fn floor(ctx: &ExecCtx, setup: &FigureSetup) -> Result<(), GridError> {
    let kernel = &setup.kernel;
    let analysis = analyze_obs(kernel, &setup.sdet, &setup.analysis, &ctx.obs);
    let a = kernel.records.a;
    let ty = kernel.record_type(a);
    let affinity = affinity_for(kernel, &analysis, a);
    let loss = loss_for(kernel, &analysis, a);
    let original = StructLayout::declaration_order(ty, 128).expect("valid record");
    let machine = Machine::superdome(128);
    let floors = [0.0, 0.01];

    let mut cells = vec![baseline_cell(setup, &machine)];
    let mut unchanged = Vec::new();
    for floor in floors {
        let params = ToolParams {
            subgraph: SubgraphParams {
                negative_floor: floor,
                ..SubgraphParams::default()
            },
            ..setup.tool
        };
        let layout = suggest_constrained(ty, &original, &affinity, Some(&loss), params)
            .expect("valid record must lay out");
        unchanged.push(layout.order() == original.order());
        let label = format!("floor={floor}");
        cells.push(layout_cell(setup, &machine, label, a, layout));
    }
    let measured = measure_complete(ctx, "floor", kernel, &cells, setup.runs)?;

    for ((floor, unchanged), t) in floors.iter().zip(unchanged).zip(&measured[1..]) {
        println!(
            "negative_floor = {floor}: order unchanged = {unchanged}, {:+.2}% vs baseline",
            t.pct_vs(&measured[0])
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_unique_and_in_table_order() {
        let names: Vec<&str> = ablations().iter().map(|a| a.name).collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        let wanted = ["floor".to_string(), "k2".to_string(), "k2".to_string()];
        let picked: Vec<&str> = select_ablations(&wanted)
            .unwrap()
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(picked, ["k2", "floor"]);
        assert_eq!(select_ablations(&[]).unwrap().len(), names.len());
    }
}
