//! Memory-system statistics, including false-sharing attribution.

use slopt_ir::types::RecordId;
use std::fmt;

/// How a single access was served.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum AccessClass {
    /// Served from the local cache.
    Hit,
    /// Write hit on a Shared line: data was local but other copies had to
    /// be invalidated.
    UpgradeHit,
    /// First-ever access to the line by this CPU.
    ColdMiss,
    /// The CPU held the line before but evicted it for capacity reasons.
    CapacityMiss,
    /// The line was invalidated by another CPU's write to bytes this access
    /// (or an intervening local access) actually uses — true sharing.
    TrueSharingMiss,
    /// The line was invalidated by another CPU's write to *disjoint* bytes —
    /// false sharing, the effect the paper's CycleLoss targets.
    FalseSharingMiss,
}

impl AccessClass {
    /// Every class, in declaration order (the order of
    /// [`AccessClass::index`] and of the `Display` report).
    pub(crate) const ALL: [AccessClass; 6] = [
        AccessClass::Hit,
        AccessClass::UpgradeHit,
        AccessClass::ColdMiss,
        AccessClass::CapacityMiss,
        AccessClass::TrueSharingMiss,
        AccessClass::FalseSharingMiss,
    ];

    /// Whether this class is any kind of miss.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessClass::Hit | AccessClass::UpgradeHit)
    }

    /// The class's position in [`AccessClass::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Counters for one class of accesses.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct ClassCounts {
    /// Number of accesses in the class.
    pub count: u64,
    /// Total cycles those accesses cost.
    pub cycles: u64,
}

impl ClassCounts {
    fn add(&mut self, count: u64, cycles: u64) {
        self.count += count;
        self.cycles += cycles;
    }
}

/// One counter per [`AccessClass`], indexed by [`AccessClass::index`].
type ByClass = [ClassCounts; 6];

fn add_all(into: &mut ByClass, from: &ByClass) {
    for (a, b) in into.iter_mut().zip(from) {
        a.add(b.count, b.cycles);
    }
}

/// Aggregate memory statistics.
///
/// Every simulated access lands in [`MemStats::record`], so the counters
/// are flat arrays: one slot per access class, and one such array per
/// record id in a vector grown on demand.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    counts: ByClass,
    /// Invalidation messages sent (one per remote copy killed).
    pub invalidations: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// MESI line-state changes (insertions, upgrades, demotions, and
    /// invalidations all count one transition each).
    pub state_transitions: u64,
    /// Line accesses that fell past the dense directory range and were
    /// served by the overflow hash map.
    pub dir_overflow_hits: u64,
    /// Per-record breakdown (only for accesses within tagged ranges),
    /// indexed by `RecordId`; records never seen read as zero.
    per_record: Vec<ByClass>,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of class `class` costing `cycles`, optionally
    /// attributed to a record instance.
    pub fn record(&mut self, class: AccessClass, cycles: u64, record: Option<RecordId>) {
        let k = class.index();
        self.counts[k].add(1, cycles);
        if let Some(r) = record {
            let i = r.0 as usize;
            if i >= self.per_record.len() {
                self.per_record.resize(i + 1, ByClass::default());
            }
            self.per_record[i][k].add(1, cycles);
        }
    }

    /// Counters for one access class.
    pub fn class(&self, class: AccessClass) -> ClassCounts {
        self.counts[class.index()]
    }

    /// Counters for one access class restricted to a record.
    pub fn class_for(&self, record: RecordId, class: AccessClass) -> ClassCounts {
        self.per_record
            .get(record.0 as usize)
            .map(|by_class| by_class[class.index()])
            .unwrap_or_default()
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().map(|c| c.count).sum()
    }

    /// Total misses (all classes except hits/upgrades).
    pub fn misses(&self) -> u64 {
        AccessClass::ALL
            .iter()
            .filter(|c| c.is_miss())
            .map(|&c| self.class(c).count)
            .sum()
    }

    /// Total cycles spent in the memory system.
    pub fn total_cycles(&self) -> u64 {
        self.counts.iter().map(|c| c.cycles).sum()
    }

    /// False-sharing miss count for a record.
    pub fn false_sharing_for(&self, record: RecordId) -> u64 {
        self.class_for(record, AccessClass::FalseSharingMiss).count
    }

    /// Merges another stats object into this one.
    pub fn merge(&mut self, other: &MemStats) {
        add_all(&mut self.counts, &other.counts);
        self.invalidations += other.invalidations;
        self.writebacks += other.writebacks;
        self.state_transitions += other.state_transitions;
        self.dir_overflow_hits += other.dir_overflow_hits;
        if self.per_record.len() < other.per_record.len() {
            self.per_record
                .resize(other.per_record.len(), ByClass::default());
        }
        for (mine, theirs) in self.per_record.iter_mut().zip(&other.per_record) {
            add_all(mine, theirs);
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory accesses: {}", self.accesses())?;
        for class in AccessClass::ALL {
            let c = self.class(class);
            if c.count > 0 {
                writeln!(f, "  {class:?}: {} ({} cycles)", c.count, c.cycles)?;
            }
        }
        writeln!(f, "  invalidations: {}", self.invalidations)?;
        writeln!(f, "  writebacks: {}", self.writebacks)?;
        writeln!(f, "  state transitions: {}", self.state_transitions)?;
        if self.dir_overflow_hits > 0 {
            writeln!(f, "  directory overflow hits: {}", self.dir_overflow_hits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn record_and_aggregate() {
        let mut s = MemStats::new();
        s.record(AccessClass::Hit, 12, None);
        s.record(AccessClass::Hit, 12, Some(RecordId(0)));
        s.record(AccessClass::FalseSharingMiss, 1000, Some(RecordId(0)));
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.class(AccessClass::Hit).count, 2);
        assert_eq!(s.total_cycles(), 1024);
        assert_eq!(s.false_sharing_for(RecordId(0)), 1);
        assert_eq!(s.false_sharing_for(RecordId(9)), 0);
        assert_eq!(s.class_for(RecordId(0), AccessClass::Hit).count, 1);
    }

    #[test]
    fn class_predicates() {
        assert!(!AccessClass::Hit.is_miss());
        assert!(!AccessClass::UpgradeHit.is_miss());
        assert!(AccessClass::ColdMiss.is_miss());
        assert!(AccessClass::FalseSharingMiss.is_miss());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = MemStats::new();
        let mut b = MemStats::new();
        a.record(AccessClass::Hit, 10, Some(RecordId(1)));
        b.record(AccessClass::Hit, 20, Some(RecordId(1)));
        b.invalidations = 3;
        b.writebacks = 1;
        b.state_transitions = 5;
        b.dir_overflow_hits = 2;
        a.merge(&b);
        assert_eq!(a.class(AccessClass::Hit).count, 2);
        assert_eq!(a.class_for(RecordId(1), AccessClass::Hit).cycles, 30);
        assert_eq!(a.invalidations, 3);
        assert_eq!(a.writebacks, 1);
        assert_eq!(a.state_transitions, 5);
        assert_eq!(a.dir_overflow_hits, 2);
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = MemStats::new();
        s.record(AccessClass::ColdMiss, 450, None);
        let txt = s.to_string();
        assert!(txt.contains("ColdMiss"));
        assert!(txt.contains("450"));
    }

    #[test]
    fn class_indices_follow_all() {
        for (i, c) in AccessClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn record_past_the_end_grows_per_record() {
        let mut s = MemStats::new();
        s.record(AccessClass::Hit, 5, Some(RecordId(1)));
        s.record(AccessClass::ColdMiss, 300, Some(RecordId(40)));
        assert_eq!(s.class_for(RecordId(40), AccessClass::ColdMiss).cycles, 300);
        assert_eq!(s.class_for(RecordId(1), AccessClass::Hit).count, 1);
        // Ids skipped over by the growth stay zero.
        assert_eq!(
            s.class_for(RecordId(7), AccessClass::Hit),
            ClassCounts::default()
        );
        assert_eq!(s.accesses(), 2);
    }

    #[test]
    fn unseen_record_reads_zero() {
        let mut s = MemStats::new();
        assert_eq!(
            s.class_for(RecordId(3), AccessClass::FalseSharingMiss),
            ClassCounts::default()
        );
        s.record(AccessClass::Hit, 1, None);
        assert_eq!(
            s.class_for(RecordId(0), AccessClass::Hit),
            ClassCounts::default()
        );
        assert_eq!(s.false_sharing_for(RecordId(u32::MAX)), 0);
    }

    #[test]
    fn merge_of_unequal_per_record_lengths_in_both_directions() {
        let mut short = MemStats::new();
        short.record(AccessClass::Hit, 2, Some(RecordId(0)));
        let mut long = MemStats::new();
        long.record(AccessClass::Hit, 3, Some(RecordId(0)));
        long.record(AccessClass::FalseSharingMiss, 900, Some(RecordId(5)));

        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        for m in [&a, &b] {
            assert_eq!(
                m.class_for(RecordId(0), AccessClass::Hit),
                ClassCounts {
                    count: 2,
                    cycles: 5
                }
            );
            assert_eq!(m.false_sharing_for(RecordId(5)), 1);
            assert_eq!(
                m.class_for(RecordId(5), AccessClass::FalseSharingMiss)
                    .cycles,
                900
            );
            assert_eq!(m.accesses(), 3);
            assert_eq!(m.misses(), 1);
        }
    }

    /// The stream one proptest case feeds both implementations.
    fn access_stream() -> impl Strategy<Value = Vec<(usize, u64, Option<u32>)>> {
        let record = (any::<bool>(), 0u32..24).prop_map(|(tagged, r)| tagged.then_some(r));
        prop::collection::vec((0usize..6, 0u64..2_000, record), 0..200)
    }

    /// A map-based model of the statistics, independent of the flat
    /// arrays: `(record or None for the totals, class) -> counts`.
    fn model(stream: &[(usize, u64, Option<u32>)]) -> HashMap<(Option<u32>, usize), ClassCounts> {
        let mut m: HashMap<(Option<u32>, usize), ClassCounts> = HashMap::new();
        for &(class, cycles, rec) in stream {
            m.entry((None, class)).or_default().add(1, cycles);
            if rec.is_some() {
                m.entry((rec, class)).or_default().add(1, cycles);
            }
        }
        m
    }

    fn stats_of(stream: &[(usize, u64, Option<u32>)]) -> MemStats {
        let mut s = MemStats::new();
        for &(class, cycles, rec) in stream {
            s.record(AccessClass::ALL[class], cycles, rec.map(RecordId));
        }
        s
    }

    fn assert_matches_model(s: &MemStats, m: &HashMap<(Option<u32>, usize), ClassCounts>) {
        let get = |k| m.get(&k).copied().unwrap_or_default();
        for (k, &class) in AccessClass::ALL.iter().enumerate() {
            assert_eq!(s.class(class), get((None, k)));
            for r in 0..30u32 {
                assert_eq!(s.class_for(RecordId(r), class), get((Some(r), k)));
            }
        }
        let totals = || m.iter().filter(|((r, _), _)| r.is_none());
        assert_eq!(s.accesses(), totals().map(|(_, c)| c.count).sum::<u64>());
        assert_eq!(
            s.total_cycles(),
            totals().map(|(_, c)| c.cycles).sum::<u64>()
        );
        let misses = totals()
            .filter(|((_, k), _)| AccessClass::ALL[*k].is_miss())
            .map(|(_, c)| c.count)
            .sum::<u64>();
        assert_eq!(s.misses(), misses);
    }

    proptest! {
        #[test]
        fn flat_counters_match_a_map_model(stream in access_stream()) {
            assert_matches_model(&stats_of(&stream), &model(&stream));
        }

        #[test]
        fn merge_matches_the_model_of_the_concatenation(
            left in access_stream(),
            right in access_stream(),
        ) {
            let mut merged = stats_of(&left);
            merged.merge(&stats_of(&right));
            let both: Vec<_> = left.iter().chain(&right).copied().collect();
            assert_matches_model(&merged, &model(&both));
        }
    }
}
