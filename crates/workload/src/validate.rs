//! Ground-truth validation of the CycleLoss estimate.
//!
//! The paper (§3) argues that actual false sharing cannot practically be
//! measured per field pair on hardware, which is why CycleLoss is
//! *estimated* from Code Concurrency. The simulator removes that
//! limitation: every sharing miss records the bytes the reader used and
//! the bytes other CPUs wrote, which — through the layout and the
//! instance table — resolve to concrete **field pairs**. This module
//! builds that ground truth, so the sampling-based estimate can be scored
//! against reality (the `ablate validate_cycleloss` study).

use crate::sdet::Instances;
use slopt_ir::layout::StructLayout;
use slopt_ir::types::{FieldIdx, RecordId};
use slopt_sim::{LayoutTable, SharingMissEvent};
use std::collections::HashMap;

/// Measured false-sharing collisions per field pair of one record.
#[derive(Clone, Debug)]
pub struct GroundTruthLoss {
    record: RecordId,
    map: HashMap<(u32, u32), u64>,
    /// Events on the record that could not be attributed (e.g. multi-line
    /// writes clipped by the event's line).
    pub unresolved: u64,
}

impl GroundTruthLoss {
    fn key(a: FieldIdx, b: FieldIdx) -> (u32, u32) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// The record described.
    pub fn record(&self) -> RecordId {
        self.record
    }

    /// Number of false-sharing collisions between two fields.
    pub fn get(&self, a: FieldIdx, b: FieldIdx) -> u64 {
        if a == b {
            return 0;
        }
        self.map.get(&Self::key(a, b)).copied().unwrap_or(0)
    }

    /// Non-zero pairs, heaviest first.
    pub fn pairs(&self) -> Vec<(FieldIdx, FieldIdx, u64)> {
        let mut v: Vec<_> = self
            .map
            .iter()
            .map(|(&(a, b), &n)| (FieldIdx(a), FieldIdx(b), n))
            .collect();
        v.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        v
    }

    /// Total attributed collisions.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// Whether nothing was attributed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Fields of `layout` whose bytes intersect `mask` on the line starting
/// at instance-relative offset `line_start`.
fn fields_in_mask(layout: &StructLayout, line_start: u64, mask: u128) -> Vec<FieldIdx> {
    let line_size = layout.line_size();
    let mut out = Vec::new();
    for &f in layout.order() {
        let off = layout.offset(f);
        let size = layout.field_size(f);
        let (fs, fe) = (off, off + size);
        let (ls, le) = (line_start, line_start + line_size);
        if fe <= ls || fs >= le {
            continue;
        }
        let lo = fs.max(ls) - ls;
        let hi = fe.min(le) - ls;
        let bits = if hi - lo >= 128 {
            !0u128
        } else {
            ((1u128 << (hi - lo)) - 1) << lo
        };
        if bits & mask != 0 {
            out.push(f);
        }
    }
    out
}

/// Attributes the logged false-sharing events on `rec`'s instances to
/// field pairs: `(reader field, written field)` for every combination the
/// masks cover.
pub fn ground_truth_loss(
    layouts: &LayoutTable,
    instances: &Instances,
    events: &[SharingMissEvent],
    rec: RecordId,
    cpus: usize,
    pool_instances: usize,
) -> GroundTruthLoss {
    let layout = layouts.layout(rec);
    let line_size = layout.line_size();

    // Sorted instance ranges of this record.
    let mut ranges: Vec<u64> = Vec::with_capacity(1 + cpus + pool_instances);
    ranges.push(instances.shared(rec));
    for c in 0..cpus {
        ranges.push(instances.per_cpu(rec, c));
    }
    for i in 0..pool_instances {
        ranges.push(instances.pool(rec, i));
    }
    ranges.sort_unstable();
    let size = layout.size();

    let mut out = GroundTruthLoss {
        record: rec,
        map: HashMap::new(),
        unresolved: 0,
    };
    for ev in events {
        if !ev.false_sharing {
            continue;
        }
        let addr = ev.line * line_size;
        // Find the instance containing this line, if it belongs to `rec`.
        let idx = match ranges.binary_search(&addr) {
            Ok(i) => i,
            Err(0) => continue,
            Err(i) => i - 1,
        };
        let base = ranges[idx];
        if addr < base || addr >= base + size {
            continue; // a different record's memory
        }
        let line_start = addr - base;
        let readers = fields_in_mask(layout, line_start, ev.reader_mask);
        let writers = fields_in_mask(layout, line_start, ev.written_mask);
        if readers.is_empty() || writers.is_empty() {
            out.unresolved += 1;
            continue;
        }
        for &r in &readers {
            for &w in &writers {
                if r != w {
                    *out.map.entry(GroundTruthLoss::key(r, w)).or_insert(0) += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::build_kernel;
    use crate::sdet::{baseline_layouts, layouts_with, run_once_logged, Machine, SdetConfig};
    use crate::structs::STAT_CLASSES;
    use crate::{compute_paper_layouts_jobs, AnalysisConfig, LayoutKind};
    use slopt_sim::CacheConfig;

    fn small_cfg() -> SdetConfig {
        SdetConfig {
            scripts_per_cpu: 6,
            invocations_per_script: 8,
            pool_instances: 32,
            cache: CacheConfig {
                line_size: 128,
                sets: 128,
                ways: 4,
            },
            ..SdetConfig::default()
        }
    }

    #[test]
    fn baseline_a_has_no_false_sharing_ground_truth() {
        let kernel = build_kernel();
        let cfg = small_cfg();
        let layouts = baseline_layouts(&kernel, cfg.line_size);
        let machine = Machine::superdome(16);
        let (_, events, instances) = run_once_logged(
            &kernel,
            &layouts,
            &machine,
            &cfg,
            3,
            &mut slopt_sim::NullObserver,
            true,
        );
        let gt = ground_truth_loss(
            &layouts,
            &instances,
            &events,
            kernel.records.a,
            16,
            cfg.pool_instances,
        );
        assert!(
            gt.is_empty(),
            "hand-tuned baseline must not false-share on struct A: {:?}",
            gt.pairs()
        );
    }

    #[test]
    fn hotness_layout_ground_truth_blames_the_counters() {
        let kernel = build_kernel();
        let cfg = small_cfg();
        let machine = Machine::superdome(16);
        let analysis_cfg = AnalysisConfig {
            machine: Machine::superdome(8),
            ..Default::default()
        };
        let paper = compute_paper_layouts_jobs(&kernel, &cfg, &analysis_cfg, Default::default(), 1);
        let a = kernel.records.a;
        let table = layouts_with(
            &kernel,
            cfg.line_size,
            a,
            paper.layout(a, LayoutKind::SortByHotness).clone(),
        );
        let (_, events, instances) = run_once_logged(
            &kernel,
            &table,
            &machine,
            &cfg,
            3,
            &mut slopt_sim::NullObserver,
            true,
        );
        let gt = ground_truth_loss(&table, &instances, &events, a, 16, cfg.pool_instances);
        assert!(
            !gt.is_empty(),
            "hotness layout must show real false sharing"
        );
        // Every heavy pair involves a stat counter.
        let stats: Vec<FieldIdx> = (0..STAT_CLASSES)
            .map(|k| kernel.field(a, &format!("stat{k}")))
            .collect();
        let (f1, f2, _) = gt.pairs()[0];
        assert!(
            stats.contains(&f1) || stats.contains(&f2),
            "heaviest collision must involve a counter: {:?}",
            gt.pairs()[0]
        );
    }

    #[test]
    fn fields_in_mask_decodes_offsets() {
        let rec = slopt_ir::types::RecordType::new(
            "S",
            vec![
                (
                    "a",
                    slopt_ir::types::FieldType::Prim(slopt_ir::types::PrimType::U64),
                ),
                (
                    "b",
                    slopt_ir::types::FieldType::Prim(slopt_ir::types::PrimType::U64),
                ),
                (
                    "big",
                    slopt_ir::types::FieldType::Array {
                        elem: slopt_ir::types::PrimType::U64,
                        len: 20,
                    },
                ),
            ],
        );
        let layout = StructLayout::declaration_order(&rec, 128).unwrap();
        // Line 0: a@0..8, b@8..16, big@16..176 (clipped at 128).
        let hit = fields_in_mask(&layout, 0, 0xFF);
        assert_eq!(hit, vec![FieldIdx(0)]);
        let hit = fields_in_mask(&layout, 0, 0xFFu128 << 8);
        assert_eq!(hit, vec![FieldIdx(1)]);
        // Line 1: only `big`.
        let hit = fields_in_mask(&layout, 128, 0xFF);
        assert_eq!(hit, vec![FieldIdx(2)]);
        // `big` covers only bytes 0..48 of line 1; a mask past that hits
        // nothing.
        let hit = fields_in_mask(&layout, 128, 0xFFu128 << 56);
        assert!(hit.is_empty());
    }
}
