//! Row-major array layout, page partitioning, and PE segmentation.
//!
//! This module implements §4.1 of the paper:
//!
//! 1. an array is cut up row-major into fixed-size pages (32 elements on the
//!    simulated iPSC/2),
//! 2. pages are grouped into segments of approximately equal size which are
//!    assigned to PEs sequentially,
//! 3. each PE records its area of responsibility so the Range Filter can
//!    decide at run time which loop iterations to execute locally, and
//! 4. the *first-element-ownership* rule of §4.2.3 assigns every row of the
//!    index space to exactly one PE (the PE holding the row's first element),
//!    which keeps the distributed index subranges disjoint even when segment
//!    boundaries fall in the middle of a row.

use crate::PeId;
use std::ops::Range;

/// Ranks up to this many dimensions keep their extents inline; higher ranks
/// spill to the heap, so the language has no rank limit.
const INLINE_RANK: usize = 4;

/// The shape (dimension sizes) of an array, stored row-major.
///
/// Extents of rank up to four are held inline, so building or cloning the
/// shape of any array the workloads allocate never calls the allocator.
#[derive(Clone)]
pub struct ArrayShape {
    extents: Extents,
}

#[derive(Clone)]
enum Extents {
    Inline {
        rank: usize,
        dims: [usize; INLINE_RANK],
    },
    Spilled(Vec<usize>),
}

impl ArrayShape {
    /// Creates a new shape from dimension sizes.
    ///
    /// A scalar-like empty shape is normalised to a one-element vector.
    pub fn new(dims: Vec<usize>) -> Self {
        if dims.len() > INLINE_RANK {
            ArrayShape {
                extents: Extents::Spilled(dims),
            }
        } else {
            ArrayShape::from_dims(&dims)
        }
    }

    /// Creates a shape from borrowed dimension sizes, normalised like
    /// [`ArrayShape::new`].
    pub fn from_dims(dims: &[usize]) -> Self {
        let dims = if dims.is_empty() { &[1][..] } else { dims };
        let extents = if dims.len() <= INLINE_RANK {
            let mut inline = [0; INLINE_RANK];
            inline[..dims.len()].copy_from_slice(dims);
            Extents::Inline {
                rank: dims.len(),
                dims: inline,
            }
        } else {
            Extents::Spilled(dims.to_vec())
        };
        ArrayShape { extents }
    }

    /// Creates a one-dimensional shape.
    pub fn vector(n: usize) -> Self {
        ArrayShape::from_dims(&[n])
    }

    /// Creates a two-dimensional shape (`rows` x `cols`).
    pub fn matrix(rows: usize, cols: usize) -> Self {
        ArrayShape::from_dims(&[rows, cols])
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        match &self.extents {
            Extents::Inline { rank, dims } => &dims[..*rank],
            Extents::Spilled(dims) => dims,
        }
    }

    /// Returns the number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims().len()
    }

    /// Returns `true` if any dimension is zero.
    pub fn is_degenerate(&self) -> bool {
        self.dims().contains(&0)
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Returns `true` when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements in one "row", i.e. one slab of the first dimension.
    ///
    /// For a 1-D array this is 1 so that every element is its own row.
    pub fn row_len(&self) -> usize {
        self.dims()[1..].iter().product::<usize>().max(1)
    }

    /// Number of rows (extent of the first dimension).
    pub fn num_rows(&self) -> usize {
        self.dims()[0]
    }

    /// Computes the row-major offset of a multi-dimensional index.
    ///
    /// Returns `None` when the number of indices does not match the number of
    /// dimensions or any index is out of range. Indices are zero-based.
    pub fn offset_of(&self, indices: &[i64]) -> Option<usize> {
        let dims = self.dims();
        if indices.len() != dims.len() {
            return None;
        }
        let mut offset: usize = 0;
        for (&idx, &dim) in indices.iter().zip(dims) {
            if idx < 0 || (idx as usize) >= dim {
                return None;
            }
            offset = offset * dim + idx as usize;
        }
        Some(offset)
    }

    /// Inverse of [`ArrayShape::offset_of`]: recovers the multi-dimensional
    /// index of a row-major offset.
    ///
    /// Returns `None` when the offset is out of range.
    pub fn unflatten(&self, offset: usize) -> Option<Vec<usize>> {
        if offset >= self.len() {
            return None;
        }
        let dims = self.dims();
        let mut rem = offset;
        let mut out = vec![0usize; dims.len()];
        for k in (0..dims.len()).rev() {
            out[k] = rem % dims[k];
            rem /= dims[k];
        }
        Some(out)
    }
}

// Equality, hashing and debug output see the extents only, never how they
// are stored.
impl PartialEq for ArrayShape {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for ArrayShape {}

impl std::hash::Hash for ArrayShape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl std::fmt::Debug for ArrayShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayShape")
            .field("dims", &self.dims())
            .finish()
    }
}

impl std::fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

/// An inclusive index range along one dimension (`start..=end`).
///
/// This is the form stored in the array header and consumed by the Range
/// Filter: `max(init, start)` / `min(n, end)` per Figure 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimRange {
    /// First index of the range (inclusive).
    pub start: i64,
    /// Last index of the range (inclusive).
    pub end: i64,
}

impl DimRange {
    /// Creates a new inclusive range.
    pub fn new(start: i64, end: i64) -> Self {
        DimRange { start, end }
    }

    /// Returns `true` when the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }

    /// Number of indices in the range.
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.end - self.start + 1) as usize
        }
    }

    /// Returns `true` when `idx` lies inside the range.
    pub fn contains(&self, idx: i64) -> bool {
        idx >= self.start && idx <= self.end
    }

    /// Intersects two ranges.
    pub fn intersect(&self, other: &DimRange) -> DimRange {
        DimRange::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// A canonical empty range.
    pub fn empty() -> Self {
        DimRange { start: 0, end: -1 }
    }
}

impl std::fmt::Display for DimRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "[]")
        } else {
            write!(f, "[{}..={}]", self.start, self.end)
        }
    }
}

/// The portion of an array assigned to a single PE: a contiguous run of
/// pages and the corresponding run of elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pe: PeId,
    pages: Range<usize>,
    elements: Range<usize>,
}

impl Segment {
    /// The PE that owns this segment.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// The pages assigned to this segment.
    pub fn page_range(&self) -> Range<usize> {
        self.pages.clone()
    }

    /// The row-major element offsets held by this segment.
    pub fn element_range(&self) -> Range<usize> {
        self.elements.clone()
    }

    /// Number of elements in the segment.
    pub fn len(&self) -> usize {
        self.elements.end - self.elements.start
    }

    /// Returns `true` when the segment holds no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Returns `true` when the segment holds the given offset.
    pub fn contains(&self, offset: usize) -> bool {
        self.elements.contains(&offset)
    }
}

/// The parameters a [`Partitioning`] is built from: the page size, the
/// machine size, and whether the pages are spread over every PE or all kept
/// on one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Page size in elements.
    pub page_size: usize,
    /// Number of PEs participating in the distribution.
    pub num_pes: usize,
    /// `None` spreads the pages over every PE ([`Partitioning::new`]);
    /// `Some(pe)` keeps them all on `pe` ([`Partitioning::single_owner`]).
    pub owner: Option<PeId>,
}

impl PartitionSpec {
    /// Partitions `total_elements` elements according to this spec.
    ///
    /// # Panics
    ///
    /// As [`Partitioning::rebuild`].
    pub fn build(self, total_elements: usize) -> Partitioning {
        let mut partitioning = Partitioning {
            total_elements: 0,
            page_size: 1,
            num_pes: 1,
            num_pages: 0,
            segments: Vec::new(),
        };
        partitioning.rebuild(total_elements, self);
        partitioning
    }
}

/// Row-major page partitioning of an array over a set of PEs (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    total_elements: usize,
    page_size: usize,
    num_pes: usize,
    num_pages: usize,
    segments: Vec<Segment>,
}

impl Partitioning {
    /// Partitions `total_elements` into pages of `page_size` elements and
    /// distributes the pages over `num_pes` PEs in contiguous, approximately
    /// equal segments.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `num_pes` is zero.
    pub fn new(total_elements: usize, page_size: usize, num_pes: usize) -> Self {
        PartitionSpec {
            page_size,
            num_pes,
            owner: None,
        }
        .build(total_elements)
    }

    /// A partitioning that keeps the whole array on a single PE.
    pub fn local(total_elements: usize, page_size: usize) -> Self {
        Partitioning::new(total_elements, page_size, 1)
    }

    /// A partitioning in which every page is owned by one specific PE of a
    /// machine with `num_pes` PEs (used for non-distributed allocations).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `num_pes` is zero, or `owner` is out of range.
    pub fn single_owner(
        total_elements: usize,
        page_size: usize,
        num_pes: usize,
        owner: PeId,
    ) -> Self {
        PartitionSpec {
            page_size,
            num_pes,
            owner: Some(owner),
        }
        .build(total_elements)
    }

    /// Re-partitions `total_elements` elements according to `spec` in
    /// place. The segment table keeps its storage, so re-partitioning over
    /// no more PEs than before does not call the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the page size or PE count is zero, or the owner is out of
    /// range.
    pub fn rebuild(&mut self, total_elements: usize, spec: PartitionSpec) {
        let PartitionSpec {
            page_size,
            num_pes,
            owner,
        } = spec;
        assert!(page_size > 0, "page size must be positive");
        assert!(num_pes > 0, "number of PEs must be positive");
        let num_pages = total_elements.div_ceil(page_size).max(1);
        self.segments.clear();
        self.segments.reserve_exact(num_pes);
        match owner {
            None => {
                let base = num_pages / num_pes;
                let extra = num_pages % num_pes;
                let mut next_page = 0usize;
                for pe in 0..num_pes {
                    // The first `extra` PEs receive one additional page so
                    // that the segment sizes differ by at most one page.
                    let count = base + usize::from(pe < extra);
                    let pages = next_page..next_page + count;
                    next_page += count;
                    let elem_start = (pages.start * page_size).min(total_elements);
                    let elem_end = (pages.end * page_size).min(total_elements);
                    self.segments.push(Segment {
                        pe: PeId(pe),
                        pages,
                        elements: elem_start..elem_end,
                    });
                }
            }
            Some(owner) => {
                assert!(owner.index() < num_pes, "owner PE out of range");
                self.segments.extend((0..num_pes).map(|pe| {
                    let (pages, elements) = if pe == owner.index() {
                        (0..num_pages, 0..total_elements)
                    } else {
                        (0..0, 0..0)
                    };
                    Segment {
                        pe: PeId(pe),
                        pages,
                        elements,
                    }
                }));
            }
        }
        self.total_elements = total_elements;
        self.page_size = page_size;
        self.num_pes = num_pes;
        self.num_pages = num_pages;
    }

    /// Total number of elements covered.
    pub fn total_elements(&self) -> usize {
        self.total_elements
    }

    /// Page size in elements.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of PEs participating in the distribution.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Total number of pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The segment held by the given PE.
    ///
    /// # Panics
    ///
    /// Panics if the PE index is out of range.
    pub fn segment_of(&self, pe: PeId) -> &Segment {
        &self.segments[pe.index()]
    }

    /// All segments in PE order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The page containing a given element offset.
    pub fn page_of(&self, offset: usize) -> usize {
        offset / self.page_size
    }

    /// The element offsets covered by a page (clipped to the array length).
    pub fn page_elements(&self, page: usize) -> Range<usize> {
        let start = (page * self.page_size).min(self.total_elements);
        let end = ((page + 1) * self.page_size).min(self.total_elements);
        start..end
    }

    /// The PE owning the page that contains `offset`.
    ///
    /// Offsets beyond the array are attributed to the last PE; callers are
    /// expected to bounds-check separately.
    pub fn owner_of(&self, offset: usize) -> PeId {
        let page = self.page_of(offset);
        for seg in &self.segments {
            if seg.pages.contains(&page) {
                return seg.pe;
            }
        }
        PeId(self.num_pes - 1)
    }

    /// Returns `true` when `offset` lies in `pe`'s segment.
    pub fn is_local(&self, pe: PeId, offset: usize) -> bool {
        self.segment_of(pe).contains(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_offsets_are_row_major() {
        let shape = ArrayShape::matrix(6, 256);
        assert_eq!(shape.len(), 1536);
        assert_eq!(shape.offset_of(&[0, 0]), Some(0));
        assert_eq!(shape.offset_of(&[0, 255]), Some(255));
        assert_eq!(shape.offset_of(&[1, 0]), Some(256));
        assert_eq!(shape.offset_of(&[5, 255]), Some(1535));
        assert_eq!(shape.offset_of(&[6, 0]), None);
        assert_eq!(shape.offset_of(&[0, 256]), None);
        assert_eq!(shape.offset_of(&[0]), None);
    }

    #[test]
    fn shape_unflatten_inverts_offsets() {
        let shape = ArrayShape::new(vec![3, 4, 5]);
        for offset in 0..shape.len() {
            let idx = shape.unflatten(offset).unwrap();
            let back = shape
                .offset_of(&idx.iter().map(|&i| i as i64).collect::<Vec<_>>())
                .unwrap();
            assert_eq!(back, offset);
        }
        assert_eq!(shape.unflatten(shape.len()), None);
    }

    #[test]
    fn one_dimensional_rows_are_single_elements() {
        let shape = ArrayShape::vector(10);
        assert_eq!(shape.row_len(), 1);
        assert_eq!(shape.num_rows(), 10);
    }

    #[test]
    fn paper_figure4_partitioning() {
        // 6 x 256 array over 4 PEs with 32-element pages: 48 pages, 12 per PE.
        let shape = ArrayShape::matrix(6, 256);
        let part = Partitioning::new(shape.len(), 32, 4);
        assert_eq!(part.num_pages(), 48);
        for pe in 0..4 {
            let seg = part.segment_of(PeId(pe));
            assert_eq!(seg.page_range().len(), 12);
            assert_eq!(seg.len(), 384);
        }
        // PE1 (index 0) holds the first 1.5 rows.
        assert_eq!(part.segment_of(PeId(0)).element_range(), 0..384);
        assert_eq!(part.owner_of(0), PeId(0));
        assert_eq!(part.owner_of(383), PeId(0));
        assert_eq!(part.owner_of(384), PeId(1));
        assert_eq!(part.owner_of(1535), PeId(3));
    }

    #[test]
    fn uneven_page_counts_differ_by_at_most_one() {
        let part = Partitioning::new(1000, 32, 6);
        let counts: Vec<usize> = part
            .segments()
            .iter()
            .map(|s| s.page_range().len())
            .collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(counts.iter().sum::<usize>(), part.num_pages());
    }

    #[test]
    fn every_offset_has_exactly_one_owner() {
        let part = Partitioning::new(500, 7, 5);
        for offset in 0..500 {
            let owner = part.owner_of(offset);
            let mut holders = 0;
            for seg in part.segments() {
                if seg.contains(offset) {
                    holders += 1;
                    assert_eq!(seg.pe(), owner);
                }
            }
            assert_eq!(holders, 1, "offset {offset} held by {holders} segments");
        }
    }

    #[test]
    fn small_array_on_many_pes_leaves_trailing_pes_empty() {
        let part = Partitioning::new(10, 32, 8);
        assert_eq!(part.num_pages(), 1);
        assert_eq!(part.segment_of(PeId(0)).len(), 10);
        for pe in 1..8 {
            assert!(part.segment_of(PeId(pe)).is_empty());
        }
    }

    #[test]
    fn dim_range_operations() {
        let r = DimRange::new(2, 5);
        assert_eq!(r.len(), 4);
        assert!(r.contains(2) && r.contains(5) && !r.contains(6));
        assert!(DimRange::empty().is_empty());
        assert_eq!(r.intersect(&DimRange::new(4, 9)), DimRange::new(4, 5));
        assert!(r.intersect(&DimRange::new(6, 9)).is_empty());
        assert_eq!(DimRange::new(1, 1).len(), 1);
    }

    #[test]
    fn single_owner_partitioning_assigns_everything_to_one_pe() {
        let part = Partitioning::single_owner(100, 32, 4, PeId(2));
        assert_eq!(part.segment_of(PeId(2)).len(), 100);
        for pe in [0, 1, 3] {
            assert!(part.segment_of(PeId(pe)).is_empty());
        }
        for offset in [0, 50, 99] {
            assert_eq!(part.owner_of(offset), PeId(2));
        }
    }

    #[test]
    fn shapes_compare_by_extents_whether_inline_or_spilled() {
        let inline = ArrayShape::from_dims(&[2, 3, 4, 5]);
        assert_eq!(inline, ArrayShape::new(vec![2, 3, 4, 5]));
        assert_eq!(inline.len(), 120);
        let spilled = ArrayShape::new(vec![2, 3, 4, 5, 6]);
        assert_eq!(spilled, ArrayShape::from_dims(&[2, 3, 4, 5, 6]));
        assert_eq!(spilled.dims(), &[2, 3, 4, 5, 6]);
        assert_eq!(spilled.len(), 720);
        assert_ne!(inline, ArrayShape::from_dims(&[2, 3, 4]));
        assert_eq!(ArrayShape::new(Vec::new()), ArrayShape::vector(1));
        assert_eq!(
            format!("{:?}", ArrayShape::matrix(3, 4)),
            "ArrayShape { dims: [3, 4] }"
        );
    }

    #[test]
    fn rebuilding_in_place_equals_building_afresh() {
        let specs = [
            PartitionSpec {
                page_size: 32,
                num_pes: 4,
                owner: None,
            },
            PartitionSpec {
                page_size: 8,
                num_pes: 4,
                owner: Some(PeId(2)),
            },
            PartitionSpec {
                page_size: 7,
                num_pes: 3,
                owner: None,
            },
        ];
        let mut reused = Partitioning::new(1536, 32, 4);
        for (spec, total) in specs.iter().zip([1000, 100, 500]) {
            reused.rebuild(total, *spec);
            assert_eq!(reused, spec.build(total));
        }
        assert_eq!(reused, Partitioning::new(500, 7, 3));
        assert_eq!(
            specs[1].build(100),
            Partitioning::single_owner(100, 8, 4, PeId(2))
        );
    }

    #[test]
    fn page_elements_are_clipped() {
        let part = Partitioning::new(40, 32, 2);
        assert_eq!(part.page_elements(0), 0..32);
        assert_eq!(part.page_elements(1), 32..40);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ArrayShape::matrix(3, 4).to_string(), "3x4");
        assert_eq!(DimRange::new(0, 3).to_string(), "[0..=3]");
        assert_eq!(DimRange::empty().to_string(), "[]");
    }
}
