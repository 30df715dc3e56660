//! Cache-line-aligned arena allocation and layout tables.
//!
//! The paper's FLG clustering assumes record instances start at cache-line
//! boundaries — true for the HP-UX kernel's arena allocator. [`Arena`]
//! reproduces that behaviour; [`LayoutTable`] maps each record type to the
//! concrete [`StructLayout`] an experiment is running with, so the engine
//! can turn `(instance base, field)` into byte addresses.

use slopt_ir::layout::{align_up, StructLayout};
use slopt_ir::types::{FieldIdx, RecordId};

/// A bump allocator that aligns every allocation to a cache line.
#[derive(Clone, Debug)]
pub struct Arena {
    next: u64,
    line_size: u64,
}

impl Arena {
    /// Creates an arena starting at `base` with the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn new(base: u64, line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        Arena {
            next: base,
            line_size,
        }
    }

    /// Allocates `size` bytes aligned to `align.max(line_size)` and returns
    /// the base address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `size` is zero.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "zero-size allocation");
        let base = align_up(self.next, align.max(self.line_size));
        self.next = base + size;
        base
    }

    /// Allocates an instance of a laid-out record.
    pub fn alloc_record(&mut self, layout: &StructLayout) -> u64 {
        self.alloc(layout.size(), layout.align())
    }

    /// Next free address (for tests / splitting address spaces).
    pub fn watermark(&self) -> u64 {
        self.next
    }
}

/// Record type → concrete layout for the current experiment.
///
/// The engine looks a layout up on every simulated access, so the table
/// is a vector indexed by `RecordId` (record ids are dense registry
/// indices), not a hash map.
#[derive(Clone, Debug, Default)]
pub struct LayoutTable {
    layouts: Vec<Option<StructLayout>>,
}

impl LayoutTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) the layout used for `record`.
    pub fn set(&mut self, record: RecordId, layout: StructLayout) {
        let i = record.0 as usize;
        if i >= self.layouts.len() {
            self.layouts.resize(i + 1, None);
        }
        self.layouts[i] = Some(layout);
    }

    /// The layout for `record`.
    ///
    /// # Panics
    ///
    /// Panics if no layout was registered — running an experiment without
    /// choosing a layout for an accessed record is a setup bug.
    pub fn layout(&self, record: RecordId) -> &StructLayout {
        self.get(record)
            .unwrap_or_else(|| panic!("no layout registered for {record}"))
    }

    /// The layout for `record`, if registered.
    pub fn get(&self, record: RecordId) -> Option<&StructLayout> {
        self.layouts.get(record.0 as usize)?.as_ref()
    }

    /// Byte address of `field` in the instance of `record` based at `base`.
    ///
    /// # Panics
    ///
    /// Panics if no layout was registered for `record`.
    pub fn field_addr(&self, record: RecordId, base: u64, field: FieldIdx) -> u64 {
        base + self.layout(record).offset(field)
    }

    /// Every registered `(record, layout)` pair, in record-id order.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &StructLayout)> {
        self.layouts
            .iter()
            .enumerate()
            .filter_map(|(i, l)| Some((RecordId(i as u32), l.as_ref()?)))
    }

    /// Number of registered layouts.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::types::{FieldType, PrimType, RecordType};

    #[test]
    fn arena_aligns_to_lines() {
        let mut a = Arena::new(0x1000, 128);
        let p1 = a.alloc(10, 1);
        let p2 = a.alloc(10, 1);
        assert_eq!(p1 % 128, 0);
        assert_eq!(p2 % 128, 0);
        assert!(p2 >= p1 + 10);
        assert!(a.watermark() >= p2 + 10);
    }

    #[test]
    fn arena_respects_larger_alignment() {
        let mut a = Arena::new(64, 64);
        let p = a.alloc(8, 256);
        assert_eq!(p % 256, 0);
    }

    #[test]
    fn layout_table_field_addresses() {
        let rec = RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U32)),
            ],
        );
        let layout = StructLayout::declaration_order(&rec, 128).unwrap();
        let mut t = LayoutTable::new();
        assert!(t.is_empty());
        t.set(RecordId(0), layout.clone());
        assert_eq!(t.len(), 1);
        let mut a = Arena::new(0, 128);
        let base = a.alloc_record(t.layout(RecordId(0)));
        assert_eq!(t.field_addr(RecordId(0), base, FieldIdx(1)), base + 8);
        assert!(t.get(RecordId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "no layout registered")]
    fn missing_layout_is_a_setup_bug() {
        LayoutTable::new().layout(RecordId(3));
    }
}
