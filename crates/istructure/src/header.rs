//! Array identifiers and per-PE array headers.
//!
//! Every PE builds an identical header when the distributing allocate
//! operator broadcasts an allocation request (§4.1). The header records the
//! array dimensions and, for each dimension, the index subrange this PE is
//! responsible for. The Range Filter consults the header at run time to
//! restrict loop bounds (Figure 5) and the first-element-ownership rule of
//! §4.2.3 is implemented here as well.

use crate::layout::{ArrayShape, DimRange, PartitionSpec, Partitioning};
use crate::PeId;
use std::sync::Arc;

/// Identifier of an allocated I-structure array.
///
/// All PEs agree on the identifier of a given array because the allocating
/// PE's Array Manager broadcasts the identifier together with the remote
/// allocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ArrayId(pub usize);

impl ArrayId {
    /// Returns the numeric index of this array identifier.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ArrayId {
    fn from(value: usize) -> Self {
        ArrayId(value)
    }
}

impl std::fmt::Display for ArrayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// Per-PE description of a distributed array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayHeader {
    id: ArrayId,
    /// Shared with the allocating instruction, so allocation copies no text.
    name: Arc<str>,
    shape: ArrayShape,
    partitioning: Partitioning,
}

impl ArrayHeader {
    /// Builds a header for an array with the given shape and partitioning.
    pub fn new(
        id: ArrayId,
        name: impl Into<Arc<str>>,
        shape: ArrayShape,
        partitioning: Partitioning,
    ) -> Self {
        ArrayHeader {
            id,
            name: name.into(),
            shape,
            partitioning,
        }
    }

    /// Re-describes this header in place for another array: the extents
    /// are rewritten and the segment table rebuilt in its own storage, so
    /// a reused header calls the allocator only for ranks above four or for
    /// more PEs than it was built for.
    pub(crate) fn reset(
        &mut self,
        id: ArrayId,
        name: &Arc<str>,
        dims: &[usize],
        partitioning: PartitionSpec,
    ) {
        self.id = id;
        self.name = Arc::clone(name);
        self.shape = ArrayShape::from_dims(dims);
        self.partitioning.rebuild(self.shape.len(), partitioning);
    }

    /// The array identifier.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The source-level name of the array (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared string behind [`Self::name`]; cloning it allocates
    /// nothing, so a result snapshot can name the array without a copy.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The array shape.
    pub fn shape(&self) -> &ArrayShape {
        &self.shape
    }

    /// The page/segment partitioning of the array.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Returns `true` when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Row-major offset of a multi-dimensional (zero-based) index.
    pub fn offset_of(&self, indices: &[i64]) -> Option<usize> {
        self.shape.offset_of(indices)
    }

    /// The PE owning the element at `offset`.
    pub fn owner_of(&self, offset: usize) -> PeId {
        self.partitioning.owner_of(offset)
    }

    /// Returns `true` when `offset` is stored in `pe`'s local segment.
    pub fn is_local(&self, pe: PeId, offset: usize) -> bool {
        self.partitioning.is_local(pe, offset)
    }

    /// Rows of the first dimension that `pe` *owns* under the
    /// first-element-ownership rule of §4.2.3: a PE is responsible for every
    /// row whose first element lies in its segment.
    ///
    /// The returned range is empty when the PE owns no row.
    pub fn owned_rows(&self, pe: PeId) -> DimRange {
        let row_len = self.shape.row_len();
        let num_rows = self.shape.num_rows();
        let seg = self.partitioning.segment_of(pe).element_range();
        if seg.is_empty() {
            return DimRange::empty();
        }
        // First row whose first element (offset row * row_len) is >= seg.start.
        let first = seg.start.div_ceil(row_len);
        // Last row whose first element is < seg.end.
        if seg.end == 0 {
            return DimRange::empty();
        }
        let last_exclusive = seg.end.div_ceil(row_len).min(num_rows);
        let first = first.min(num_rows);
        if first >= last_exclusive {
            DimRange::empty()
        } else {
            DimRange::new(first as i64, last_exclusive as i64 - 1)
        }
    }

    /// Rows of the first dimension of which `pe` holds at least one element
    /// (its "area of responsibility" in the sense of Figure 4).
    pub fn touched_rows(&self, pe: PeId) -> DimRange {
        let row_len = self.shape.row_len();
        let seg = self.partitioning.segment_of(pe).element_range();
        if seg.is_empty() {
            return DimRange::empty();
        }
        let first = seg.start / row_len;
        let last = (seg.end - 1) / row_len;
        DimRange::new(first as i64, last as i64)
    }

    /// The subrange of the second dimension that `pe` holds locally within a
    /// given row (used when a Range Filter is placed on an inner loop level;
    /// cf. the discussion of the `j` ranges for PE1 in §4.2.2).
    ///
    /// For arrays with fewer than two dimensions the full row is returned
    /// when the row is local and an empty range otherwise.
    pub fn local_cols_in_row(&self, pe: PeId, row: i64) -> DimRange {
        let row_len = self.shape.row_len() as i64;
        let num_rows = self.shape.num_rows() as i64;
        if row < 0 || row >= num_rows {
            return DimRange::empty();
        }
        let seg = self.partitioning.segment_of(pe).element_range();
        if seg.is_empty() {
            return DimRange::empty();
        }
        let row_start = row * row_len;
        let row_end = row_start + row_len - 1;
        let local = DimRange::new(seg.start as i64, seg.end as i64 - 1)
            .intersect(&DimRange::new(row_start, row_end));
        if local.is_empty() {
            DimRange::empty()
        } else {
            DimRange::new(local.start - row_start, local.end - row_start)
        }
    }

    /// The Range-Filter bounds for a loop writing this array at nesting level
    /// `dim` (0 = outermost).
    ///
    /// * `dim == 0`: the rows owned by `pe` under the first-element rule.
    /// * `dim == 1`: the local column subrange within `row` (the outer index
    ///   must be supplied). A `row` outside the array has no owner, so its
    ///   iteration space cannot be partitioned by ownership; the whole
    ///   dimension is assigned to exactly one deterministic PE — the owner
    ///   of the array edge nearest the row — so the (necessarily faulting)
    ///   iterations execute once, exactly like a sequential run, instead of
    ///   being silently dropped by every PE clamping to an empty range.
    /// * deeper dims: the full extent of that dimension — the paper
    ///   eliminates RFs below the filtered level, so the entire range is
    ///   needed (§4.2.3).
    pub fn responsibility(&self, pe: PeId, dim: usize, outer_row: Option<i64>) -> DimRange {
        match dim {
            0 => self.owned_rows(pe),
            1 => match outer_row {
                Some(row) if row < 0 || row >= self.shape.num_rows() as i64 => {
                    let edge_offset = if row < 0 { 0 } else { self.shape.len() - 1 };
                    if self.partitioning.owner_of(edge_offset) == pe {
                        DimRange::new(0, self.shape.dims().get(1).copied().unwrap_or(1) as i64 - 1)
                    } else {
                        DimRange::empty()
                    }
                }
                Some(row) => self.local_cols_in_row(pe, row),
                None => DimRange::new(0, self.shape.dims().get(1).copied().unwrap_or(1) as i64 - 1),
            },
            d => {
                let extent = self.shape.dims().get(d).copied().unwrap_or(1);
                DimRange::new(0, extent as i64 - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4_header() -> ArrayHeader {
        let shape = ArrayShape::matrix(6, 256);
        let part = Partitioning::new(shape.len(), 32, 4);
        ArrayHeader::new(ArrayId(1), "a", shape, part)
    }

    #[test]
    fn first_element_rule_matches_figure6() {
        // Figure 6: PE1 (index 0) is responsible for rows 0 and 1, PE2 only
        // for row 2, PE3 for rows 3 and 4, PE4 for row 5.
        let h = figure4_header();
        assert_eq!(h.owned_rows(PeId(0)), DimRange::new(0, 1));
        assert_eq!(h.owned_rows(PeId(1)), DimRange::new(2, 2));
        assert_eq!(h.owned_rows(PeId(2)), DimRange::new(3, 4));
        assert_eq!(h.owned_rows(PeId(3)), DimRange::new(5, 5));
    }

    #[test]
    fn owned_rows_are_a_partition_of_all_rows() {
        for (rows, cols, pes, page) in [
            (6usize, 256usize, 4usize, 32usize),
            (64, 64, 32, 32),
            (17, 9, 5, 32),
            (100, 3, 7, 8),
            (5, 5, 8, 32),
        ] {
            let shape = ArrayShape::matrix(rows, cols);
            let part = Partitioning::new(shape.len(), page, pes);
            let h = ArrayHeader::new(ArrayId(0), "t", shape, part);
            let mut seen = vec![0usize; rows];
            for pe in 0..pes {
                let r = h.owned_rows(PeId(pe));
                if r.is_empty() {
                    continue;
                }
                for row in r.start..=r.end {
                    seen[row as usize] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "rows not covered exactly once for {rows}x{cols} on {pes} PEs: {seen:?}"
            );
        }
    }

    #[test]
    fn touched_rows_include_partial_rows() {
        let h = figure4_header();
        // PE2 (index 1) holds the second half of row 1 and all of row 2
        // (its segment is elements 384..768, i.e. exactly 1.5 rows).
        assert_eq!(h.touched_rows(PeId(1)), DimRange::new(1, 2));
        // PE3 (index 2) holds rows 3 and the first half of row 4.
        assert_eq!(h.touched_rows(PeId(2)), DimRange::new(3, 4));
    }

    #[test]
    fn local_cols_follow_segment_boundaries() {
        let h = figure4_header();
        // PE1 holds all of row 0 and the first half of row 1 (cf. §4.2.2:
        // "the RF in PE1 produces the j range 0:255 when i is 0 but only
        // 0:127 when i is 1").
        assert_eq!(h.local_cols_in_row(PeId(0), 0), DimRange::new(0, 255));
        assert_eq!(h.local_cols_in_row(PeId(0), 1), DimRange::new(0, 127));
        assert!(h.local_cols_in_row(PeId(0), 2).is_empty());
        assert_eq!(h.local_cols_in_row(PeId(1), 1), DimRange::new(128, 255));
        assert!(h.local_cols_in_row(PeId(0), 6).is_empty());
        assert!(h.local_cols_in_row(PeId(0), -1).is_empty());
    }

    #[test]
    fn responsibility_dispatches_by_dimension() {
        let h = figure4_header();
        assert_eq!(h.responsibility(PeId(0), 0, None), DimRange::new(0, 1));
        assert_eq!(h.responsibility(PeId(0), 1, Some(1)), DimRange::new(0, 127));
        // Below the filtered level the full extent is used.
        assert_eq!(h.responsibility(PeId(0), 2, None), DimRange::new(0, 0));
        assert_eq!(
            h.responsibility(PeId(3), 1, None),
            DimRange::new(0, 255),
            "without an outer index the full column range is conservative"
        );
    }

    #[test]
    fn out_of_range_rows_are_assigned_whole_to_one_edge_pe() {
        // An invalid outer row has no owner, so the whole inner dimension
        // goes to exactly one PE (the owner of the nearest array edge) and
        // is empty on every other PE: the union over PEs is the full
        // dimension — never the silently-empty range that would let
        // out-of-bounds iterations vanish.
        let h = figure4_header();
        let full = DimRange::new(0, 255);
        for row in [-1i64, -5, 6, 9] {
            let mut holders = 0;
            for pe in 0..4 {
                let r = h.responsibility(PeId(pe), 1, Some(row));
                if !r.is_empty() {
                    assert_eq!(r, full, "row {row} on PE{pe}");
                    holders += 1;
                }
            }
            assert_eq!(holders, 1, "row {row} must land on exactly one PE");
        }
        // Below the array: the owner of the first element; past the end:
        // the owner of the last element.
        assert_eq!(h.responsibility(PeId(0), 1, Some(-1)), full);
        assert_eq!(h.responsibility(PeId(3), 1, Some(6)), full);
    }

    #[test]
    fn one_dimensional_arrays_split_by_element() {
        let shape = ArrayShape::vector(100);
        let part = Partitioning::new(100, 10, 4);
        let h = ArrayHeader::new(ArrayId(2), "v", shape, part);
        assert_eq!(h.owned_rows(PeId(0)), DimRange::new(0, 29));
        assert_eq!(h.owned_rows(PeId(3)), DimRange::new(80, 99));
        let total: usize = (0..4).map(|pe| h.owned_rows(PeId(pe)).len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_segments_own_nothing() {
        let shape = ArrayShape::vector(8);
        let part = Partitioning::new(8, 32, 4);
        let h = ArrayHeader::new(ArrayId(3), "tiny", shape, part);
        assert_eq!(h.owned_rows(PeId(0)), DimRange::new(0, 7));
        for pe in 1..4 {
            assert!(h.owned_rows(PeId(pe)).is_empty());
            assert!(h.touched_rows(PeId(pe)).is_empty());
        }
    }

    #[test]
    fn header_accessors() {
        let h = figure4_header();
        assert_eq!(h.id(), ArrayId(1));
        assert_eq!(h.name(), "a");
        assert_eq!(h.len(), 1536);
        assert!(!h.is_empty());
        assert_eq!(h.offset_of(&[1, 2]), Some(258));
        assert_eq!(h.owner_of(258), PeId(0));
        assert!(h.is_local(PeId(0), 258));
        assert!(!h.is_local(PeId(1), 258));
        assert_eq!(ArrayId(5).to_string(), "array#5");
    }
}
