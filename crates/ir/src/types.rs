//! Record types, fields and the type registry.
//!
//! The layout tool operates on C-like record types: a named sequence of
//! fields, each with a size and an alignment derived from its type. This
//! module is deliberately minimal — it models exactly the information the
//! analyses in this workspace need (names for reporting, sizes and alignments
//! for layout computation) and nothing else.

use std::collections::HashMap;
use std::fmt;

/// Identifies a [`RecordType`] inside a [`TypeRegistry`].
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct RecordId(pub u32);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec{}", self.0)
    }
}

/// Index of a field within its [`RecordType`] (declaration order).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct FieldIdx(pub u32);

impl FieldIdx {
    /// The field index as a `usize`, for direct vector indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FieldIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Primitive machine types with C-like sizes and alignments (LP64).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub enum PrimType {
    /// One-byte boolean.
    Bool,
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 8-bit integer.
    I8,
    /// Unsigned 16-bit integer.
    U16,
    /// Signed 16-bit integer.
    I16,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Machine pointer (8 bytes on LP64, as on the paper's Itanium target).
    Ptr,
}

impl PrimType {
    /// Size of the type in bytes.
    pub fn size(self) -> u64 {
        match self {
            PrimType::Bool | PrimType::U8 | PrimType::I8 => 1,
            PrimType::U16 | PrimType::I16 => 2,
            PrimType::U32 | PrimType::I32 | PrimType::F32 => 4,
            PrimType::U64 | PrimType::I64 | PrimType::F64 | PrimType::Ptr => 8,
        }
    }

    /// Natural alignment of the type in bytes (equal to its size for
    /// primitives, as in the Itanium C ABI).
    pub fn align(self) -> u64 {
        self.size()
    }
}

/// The type of a record field.
#[derive(Clone, Debug, Eq, PartialEq, Hash)]
pub enum FieldType {
    /// A primitive scalar.
    Prim(PrimType),
    /// A fixed-length array of primitives (e.g. a name buffer).
    Array {
        /// Element type.
        elem: PrimType,
        /// Number of elements.
        len: u64,
    },
    /// An opaque blob with explicit size and alignment (e.g. an embedded
    /// lock or a nested record the tool must not reorder into).
    Opaque {
        /// Size in bytes. Must be non-zero.
        size: u64,
        /// Alignment in bytes. Must be a power of two.
        align: u64,
    },
}

impl FieldType {
    /// Size of a value of this type in bytes.
    pub fn size(&self) -> u64 {
        match *self {
            FieldType::Prim(p) => p.size(),
            FieldType::Array { elem, len } => elem.size() * len,
            FieldType::Opaque { size, .. } => size,
        }
    }

    /// Alignment requirement in bytes.
    pub fn align(&self) -> u64 {
        match *self {
            FieldType::Prim(p) => p.align(),
            FieldType::Array { elem, .. } => elem.align(),
            FieldType::Opaque { align, .. } => align,
        }
    }
}

/// A named field of a record.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct FieldDef {
    name: String,
    ty: FieldType,
}

impl FieldDef {
    /// Creates a field definition.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
        }
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's type.
    pub fn ty(&self) -> &FieldType {
        &self.ty
    }

    /// Shorthand for `self.ty().size()`.
    pub fn size(&self) -> u64 {
        self.ty.size()
    }

    /// Shorthand for `self.ty().align()`.
    pub fn align(&self) -> u64 {
        self.ty.align()
    }
}

/// A C-like record type: a named, ordered sequence of fields.
///
/// The declaration order of the fields is the *original* (baseline) layout
/// order; the optimizer produces permutations of it.
#[derive(Clone, Debug)]
pub struct RecordType {
    name: String,
    fields: Vec<FieldDef>,
}

impl RecordType {
    /// Creates a record from `(name, type)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name, if a field has zero size, or if an
    /// alignment is not a power of two — these are programming errors in the
    /// record description, not runtime conditions.
    pub fn new<N: Into<String>>(name: impl Into<String>, fields: Vec<(N, FieldType)>) -> Self {
        let fields: Vec<FieldDef> = fields
            .into_iter()
            .map(|(n, t)| FieldDef::new(n, t))
            .collect();
        let mut seen = HashMap::new();
        for (i, f) in fields.iter().enumerate() {
            assert!(f.size() > 0, "field `{}` has zero size", f.name());
            assert!(
                f.align().is_power_of_two(),
                "field `{}` alignment {} is not a power of two",
                f.name(),
                f.align()
            );
            if let Some(prev) = seen.insert(f.name().to_string(), i) {
                panic!(
                    "duplicate field name `{}` (indices {prev} and {i})",
                    f.name()
                );
            }
        }
        RecordType {
            name: name.into(),
            fields,
        }
    }

    /// The record's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// The field at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn field(&self, idx: FieldIdx) -> &FieldDef {
        &self.fields[idx.index()]
    }

    /// Iterates over `(FieldIdx, &FieldDef)` in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (FieldIdx, &FieldDef)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldIdx(i as u32), f))
    }

    /// All field indices in declaration order.
    pub fn field_indices(&self) -> impl Iterator<Item = FieldIdx> {
        (0..self.fields.len() as u32).map(FieldIdx)
    }

    /// Looks up a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldIdx> {
        self.fields
            .iter()
            .position(|f| f.name() == name)
            .map(|i| FieldIdx(i as u32))
    }

    /// Maximum field alignment — the record's own alignment under C rules.
    pub fn align(&self) -> u64 {
        self.fields.iter().map(FieldDef::align).max().unwrap_or(1)
    }

    /// Sum of raw field sizes (no padding).
    pub fn payload_size(&self) -> u64 {
        self.fields.iter().map(FieldDef::size).sum()
    }

    /// The end offset of `fields` packed in order under C rules after
    /// `start` bytes: each field aligned up to its own alignment. From
    /// `start = 0` this is a line-aligned cluster's size; from a
    /// cluster's size it is that cluster extended by `fields`.
    #[inline]
    pub fn packed_bytes(&self, start: u64, fields: impl IntoIterator<Item = FieldIdx>) -> u64 {
        fields.into_iter().fold(start, |cursor, f| {
            let def = self.field(f);
            crate::layout::align_up(cursor, def.align()) + def.size()
        })
    }
}

/// Registry of all record types known to a program.
#[derive(Clone, Debug, Default)]
pub struct TypeRegistry {
    records: Vec<RecordType>,
    by_name: HashMap<String, RecordId>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a record with the same name is already registered.
    pub fn add_record(&mut self, record: RecordType) -> RecordId {
        let id = RecordId(self.records.len() as u32);
        let prev = self.by_name.insert(record.name().to_string(), id);
        assert!(prev.is_none(), "duplicate record name `{}`", record.name());
        self.records.push(record);
        id
    }

    /// The record with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn record(&self, id: RecordId) -> &RecordType {
        &self.records[id.0 as usize]
    }

    /// Looks up a record by name.
    pub fn lookup(&self, name: &str) -> Option<RecordId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over `(RecordId, &RecordType)` in registration order.
    pub fn records(&self) -> impl Iterator<Item = (RecordId, &RecordType)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (RecordId(i as u32), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_sizes_and_alignments() {
        assert_eq!(PrimType::Bool.size(), 1);
        assert_eq!(PrimType::U16.size(), 2);
        assert_eq!(PrimType::I32.size(), 4);
        assert_eq!(PrimType::F64.size(), 8);
        assert_eq!(PrimType::Ptr.size(), 8);
        for p in [
            PrimType::Bool,
            PrimType::U8,
            PrimType::I16,
            PrimType::U32,
            PrimType::I64,
            PrimType::F32,
            PrimType::F64,
            PrimType::Ptr,
        ] {
            assert_eq!(p.size(), p.align());
        }
    }

    #[test]
    fn array_and_opaque_types() {
        let a = FieldType::Array {
            elem: PrimType::U16,
            len: 10,
        };
        assert_eq!(a.size(), 20);
        assert_eq!(a.align(), 2);
        let o = FieldType::Opaque { size: 24, align: 8 };
        assert_eq!(o.size(), 24);
        assert_eq!(o.align(), 8);
    }

    #[test]
    fn record_basics() {
        let r = RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U8)),
                ("b", FieldType::Prim(PrimType::U64)),
                (
                    "c",
                    FieldType::Array {
                        elem: PrimType::U32,
                        len: 4,
                    },
                ),
            ],
        );
        assert_eq!(r.field_count(), 3);
        assert_eq!(r.align(), 8);
        assert_eq!(r.payload_size(), 1 + 8 + 16);
        assert_eq!(r.field_by_name("b"), Some(FieldIdx(1)));
        assert_eq!(r.field_by_name("zz"), None);
        assert_eq!(r.field(FieldIdx(2)).name(), "c");
        let idxs: Vec<_> = r.field_indices().collect();
        assert_eq!(idxs, vec![FieldIdx(0), FieldIdx(1), FieldIdx(2)]);
    }

    #[test]
    fn packed_bytes_respects_alignment() {
        let r = RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U8)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        );
        assert_eq!(r.packed_bytes(0, [FieldIdx(0), FieldIdx(1)]), 16);
        assert_eq!(r.packed_bytes(0, [FieldIdx(1), FieldIdx(0)]), 9);
        // Continuing from a packed prefix equals packing the whole run.
        assert_eq!(r.packed_bytes(1, [FieldIdx(1)]), 16);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn record_rejects_duplicate_names() {
        RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U8)),
                ("a", FieldType::Prim(PrimType::U16)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn record_rejects_zero_size() {
        RecordType::new("S", vec![("a", FieldType::Opaque { size: 0, align: 1 })]);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = TypeRegistry::new();
        assert!(reg.is_empty());
        let a = reg.add_record(RecordType::new::<&str>(
            "A",
            vec![("x", FieldType::Prim(PrimType::U32))],
        ));
        let b = reg.add_record(RecordType::new::<&str>(
            "B",
            vec![("y", FieldType::Prim(PrimType::U64))],
        ));
        assert_eq!(reg.len(), 2);
        assert_ne!(a, b);
        assert_eq!(reg.lookup("A"), Some(a));
        assert_eq!(reg.lookup("B"), Some(b));
        assert_eq!(reg.lookup("C"), None);
        assert_eq!(reg.record(a).name(), "A");
        let names: Vec<_> = reg.records().map(|(_, r)| r.name().to_string()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    #[should_panic(expected = "duplicate record name")]
    fn registry_rejects_duplicate_records() {
        let mut reg = TypeRegistry::new();
        reg.add_record(RecordType::new::<&str>(
            "A",
            vec![("x", FieldType::Prim(PrimType::U32))],
        ));
        reg.add_record(RecordType::new::<&str>(
            "A",
            vec![("y", FieldType::Prim(PrimType::U64))],
        ));
    }
}
