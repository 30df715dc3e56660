//! Concrete structure layouts: field order → offsets under C layout rules.
//!
//! A [`StructLayout`] assigns every field of a record a byte offset. Offsets
//! follow the C rules the paper's compiler (and `#[repr(C)]` in Rust) uses:
//! fields are placed in the given order, each aligned up to its natural
//! alignment, and the total size is rounded up to the record alignment.
//!
//! The optimizer additionally produces *grouped* layouts
//! ([`StructLayout::from_groups`]): each group corresponds to one cluster of
//! the Field Layout Graph and starts on a fresh cache-line boundary, so that
//! the inter-cluster separation the clustering decided on is actually
//! realized in memory. This matches the paper's assumption that record
//! instances themselves are allocated at cache-line boundaries (true for the
//! HP-UX arena allocator, and for the arena in `slopt-sim`).

use crate::types::{FieldIdx, RecordType};
use std::error::Error;
use std::fmt;

/// Default coherence-block / L2-line size used throughout the workspace.
///
/// The paper's Itanium machines have 128-byte L2 lines, which is also the
/// coherence granularity.
pub const DEFAULT_LINE_SIZE: u64 = 128;

/// Errors produced when constructing a [`StructLayout`] from a field order.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum LayoutError {
    /// A field appears more than once in the requested order.
    DuplicateField(FieldIdx),
    /// A field of the record is missing from the requested order.
    MissingField(FieldIdx),
    /// A field index is out of range for the record.
    UnknownField(FieldIdx),
    /// The line size is zero or not a power of two.
    BadLineSize(u64),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DuplicateField(i) => write!(f, "field {i} appears more than once"),
            LayoutError::MissingField(i) => write!(f, "field {i} is missing from the order"),
            LayoutError::UnknownField(i) => write!(f, "field {i} is out of range"),
            LayoutError::BadLineSize(s) => {
                write!(f, "line size {s} is not a non-zero power of two")
            }
        }
    }
}

impl Error for LayoutError {}

/// Rounds `x` up to a multiple of `a`, a power of two: the C rule for
/// placing a field, a record or an allocation at its alignment.
#[inline]
pub fn align_up(x: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (x + a - 1) & !(a - 1)
}

/// A concrete layout of a record: every field has a byte offset.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct StructLayout {
    /// Byte offset of each field, indexed by `FieldIdx`.
    offsets: Vec<u64>,
    /// Field sizes, indexed by `FieldIdx` (cached from the record).
    sizes: Vec<u64>,
    /// The order in which fields are placed.
    order: Vec<FieldIdx>,
    size: u64,
    align: u64,
    line_size: u64,
}

impl StructLayout {
    /// Layout in declaration order — the record's *original* layout.
    pub fn declaration_order(record: &RecordType, line_size: u64) -> Result<Self, LayoutError> {
        let order: Vec<FieldIdx> = record.field_indices().collect();
        Self::from_order(record, &order, line_size)
    }

    /// Layout with fields placed in `order` under plain C rules.
    ///
    /// # Errors
    ///
    /// Returns an error unless `order` is a permutation of the record's
    /// fields and `line_size` is a non-zero power of two.
    pub fn from_order(
        record: &RecordType,
        order: &[FieldIdx],
        line_size: u64,
    ) -> Result<Self, LayoutError> {
        let groups: Vec<Vec<FieldIdx>> = vec![order.to_vec()];
        Self::from_groups(record, &groups, line_size)
    }

    /// Layout where each *group* of fields starts on a fresh cache-line
    /// boundary (groups after the first, that is; the record itself starts
    /// line-aligned by allocation). Within a group, plain C rules apply.
    ///
    /// This is how cluster partitions from the FLG clustering are turned
    /// into memory layouts: one group per cluster keeps clusters on disjoint
    /// cache lines.
    ///
    /// # Errors
    ///
    /// Returns an error unless the concatenation of `groups` is a
    /// permutation of the record's fields and `line_size` is a non-zero
    /// power of two.
    pub fn from_groups(
        record: &RecordType,
        groups: &[Vec<FieldIdx>],
        line_size: u64,
    ) -> Result<Self, LayoutError> {
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(LayoutError::BadLineSize(line_size));
        }
        let n = record.field_count();
        let mut seen = vec![false; n];
        let mut offsets = vec![0u64; n];
        let mut order = Vec::with_capacity(n);
        let mut cursor = 0u64;
        for (gi, group) in groups.iter().enumerate() {
            if gi > 0 {
                cursor = align_up(cursor, line_size);
            }
            for &f in group {
                if f.index() >= n {
                    return Err(LayoutError::UnknownField(f));
                }
                if seen[f.index()] {
                    return Err(LayoutError::DuplicateField(f));
                }
                seen[f.index()] = true;
                let def = record.field(f);
                cursor = align_up(cursor, def.align());
                offsets[f.index()] = cursor;
                cursor += def.size();
                order.push(f);
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(LayoutError::MissingField(FieldIdx(missing as u32)));
        }
        let align = record.align();
        let size = align_up(cursor, align);
        let sizes = record
            .field_indices()
            .map(|f| record.field(f).size())
            .collect();
        Ok(StructLayout {
            offsets,
            sizes,
            order,
            size,
            align,
            line_size,
        })
    }

    /// Byte offset of a field.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of range.
    pub fn offset(&self, field: FieldIdx) -> u64 {
        self.offsets[field.index()]
    }

    /// Size in bytes of a field (as recorded from the record type).
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of range.
    pub fn field_size(&self, field: FieldIdx) -> u64 {
        self.sizes[field.index()]
    }

    /// Total size of the record under this layout, including padding.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Alignment of the record (max field alignment).
    pub fn align(&self) -> u64 {
        self.align
    }

    /// The cache-line size this layout was computed against.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// The placement order of the fields.
    pub fn order(&self) -> &[FieldIdx] {
        &self.order
    }

    /// Number of cache lines the record spans (assuming line-aligned
    /// allocation).
    pub fn line_span(&self) -> u64 {
        self.size.div_ceil(self.line_size).max(1)
    }

    /// Inclusive range of line indices a field touches, assuming the record
    /// starts on a line boundary.
    pub fn lines_of(&self, field: FieldIdx) -> (u64, u64) {
        let start = self.offset(field);
        let size = self.field_size(field).max(1);
        (start / self.line_size, (start + size - 1) / self.line_size)
    }

    /// Whether two fields share at least one cache line (assuming
    /// line-aligned allocation).
    pub fn share_line(&self, f1: FieldIdx, f2: FieldIdx) -> bool {
        let (a0, a1) = self.lines_of(f1);
        let (b0, b1) = self.lines_of(f2);
        a0 <= b1 && b0 <= a1
    }

    /// Bytes of padding introduced by this layout.
    pub fn padding(&self, record: &RecordType) -> u64 {
        self.size - record.payload_size()
    }
}

impl StructLayout {
    /// Renders the layout with field *names* resolved through the record
    /// (the plain `Display` impl only knows indices).
    ///
    /// # Panics
    ///
    /// Panics if `record` does not match this layout's field count.
    pub fn to_annotated_string(&self, record: &RecordType) -> String {
        assert_eq!(
            record.field_count(),
            self.order.len(),
            "record does not match layout"
        );
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "layout of {}: size={} align={} lines={}",
            record.name(),
            self.size,
            self.align,
            self.line_span()
        );
        for &fi in &self.order {
            let (l0, l1) = self.lines_of(fi);
            let lines = if l0 == l1 {
                format!("line {l0}")
            } else {
                format!("lines {l0}-{l1}")
            };
            let _ = writeln!(
                out,
                "  +{:>5}  {:<24} ({} bytes, {})",
                self.offset(fi),
                record.field(fi).name(),
                self.field_size(fi),
                lines
            );
        }
        out
    }
}

impl fmt::Display for StructLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "layout: size={} align={} lines={}",
            self.size,
            self.align,
            self.line_span()
        )?;
        for &fi in &self.order {
            writeln!(
                f,
                "  +{:>5}  {} ({} bytes, line {})",
                self.offset(fi),
                fi,
                self.field_size(fi),
                self.lines_of(fi).0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FieldType, PrimType, RecordType};

    fn rec() -> RecordType {
        RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U8)),  // f0: 1 byte
                ("b", FieldType::Prim(PrimType::U64)), // f1: 8 bytes
                ("c", FieldType::Prim(PrimType::U16)), // f2: 2 bytes
                ("d", FieldType::Prim(PrimType::U32)), // f3: 4 bytes
            ],
        )
    }

    #[test]
    fn declaration_order_matches_c_rules() {
        let r = rec();
        let l = StructLayout::declaration_order(&r, 128).unwrap();
        // a@0 (1B), pad to 8, b@8 (8B), c@16 (2B), pad to 20, d@20 (4B),
        // total 24, align 8.
        assert_eq!(l.offset(FieldIdx(0)), 0);
        assert_eq!(l.offset(FieldIdx(1)), 8);
        assert_eq!(l.offset(FieldIdx(2)), 16);
        assert_eq!(l.offset(FieldIdx(3)), 20);
        assert_eq!(l.size(), 24);
        assert_eq!(l.align(), 8);
        assert_eq!(l.padding(&r), 24 - 15);
        assert_eq!(l.line_span(), 1);
    }

    #[test]
    fn reordering_changes_offsets_and_padding() {
        let r = rec();
        // d, b, c, a packs tightly: d@0(4), pad, b@8(8), c@16(2), a@18(1),
        // size -> align_up(19, 8) = 24. Alternative order b,d,c,a:
        // b@0(8), d@8(4), c@12(2), a@14(1) -> size 16.
        let order = [FieldIdx(1), FieldIdx(3), FieldIdx(2), FieldIdx(0)];
        let l = StructLayout::from_order(&r, &order, 128).unwrap();
        assert_eq!(l.offset(FieldIdx(1)), 0);
        assert_eq!(l.offset(FieldIdx(3)), 8);
        assert_eq!(l.offset(FieldIdx(2)), 12);
        assert_eq!(l.offset(FieldIdx(0)), 14);
        assert_eq!(l.size(), 16);
        assert_eq!(l.padding(&r), 1);
    }

    #[test]
    fn groups_start_on_line_boundaries() {
        let r = rec();
        let groups = vec![
            vec![FieldIdx(0)],
            vec![FieldIdx(1), FieldIdx(2)],
            vec![FieldIdx(3)],
        ];
        let l = StructLayout::from_groups(&r, &groups, 64).unwrap();
        assert_eq!(l.offset(FieldIdx(0)), 0);
        assert_eq!(l.offset(FieldIdx(1)), 64);
        assert_eq!(l.offset(FieldIdx(2)), 72);
        assert_eq!(l.offset(FieldIdx(3)), 128);
        assert_eq!(l.line_span(), 3);
        assert!(!l.share_line(FieldIdx(0), FieldIdx(1)));
        assert!(l.share_line(FieldIdx(1), FieldIdx(2)));
    }

    #[test]
    fn line_queries() {
        let r = RecordType::new(
            "T",
            vec![
                (
                    "x",
                    FieldType::Array {
                        elem: PrimType::U64,
                        len: 20,
                    },
                ), // 160 bytes
                ("y", FieldType::Prim(PrimType::U32)),
            ],
        );
        let l = StructLayout::declaration_order(&r, 128).unwrap();
        assert_eq!(l.lines_of(FieldIdx(0)), (0, 1)); // spans lines 0..=1
        assert_eq!(l.lines_of(FieldIdx(1)), (1, 1));
        assert!(l.share_line(FieldIdx(0), FieldIdx(1)));
        assert_eq!(l.line_span(), 2);
    }

    #[test]
    fn error_cases() {
        let r = rec();
        assert_eq!(
            StructLayout::from_order(&r, &[FieldIdx(0), FieldIdx(0)], 128),
            Err(LayoutError::DuplicateField(FieldIdx(0)))
        );
        assert_eq!(
            StructLayout::from_order(&r, &[FieldIdx(0), FieldIdx(1), FieldIdx(2)], 128),
            Err(LayoutError::MissingField(FieldIdx(3)))
        );
        assert_eq!(
            StructLayout::from_order(&r, &[FieldIdx(9)], 128),
            Err(LayoutError::UnknownField(FieldIdx(9)))
        );
        let all: Vec<FieldIdx> = r.field_indices().collect();
        assert_eq!(
            StructLayout::from_order(&r, &all, 100),
            Err(LayoutError::BadLineSize(100))
        );
        // Errors render as messages.
        assert!(LayoutError::BadLineSize(100).to_string().contains("100"));
    }

    #[test]
    fn display_lists_every_field() {
        let r = rec();
        let l = StructLayout::declaration_order(&r, 128).unwrap();
        let s = l.to_string();
        for fi in r.field_indices() {
            assert!(s.contains(&fi.to_string()));
        }
    }
}
