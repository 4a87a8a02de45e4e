//! I-structure array memory for the PODS reproduction.
//!
//! This crate implements the storage substrate described in the paper
//! *Exploiting Iteration-Level Parallelism in Dataflow Programs* (Bic, Roy,
//! Nagel): single-assignment arrays ("I-structures") with presence bits,
//! deferred-read queues, per-PE row-major page/segment partitioning, and
//! array headers recording each PE's area of responsibility, held in one
//! thread-safe store that every engine shares.
//!
//! The crate is deliberately independent of the engines: deferred reads are
//! tagged with a caller-supplied token type so that an engine can record
//! which subcompact process (SP) instance and operand slot must be
//! re-activated when the element is eventually written.
//!
//! # Quick example
//!
//! ```
//! use pods_istructure::{
//!     ArrayHeader, ArrayId, ArrayShape, Partitioning, SharedArrayStore, SharedReadResult, Value,
//! };
//!
//! // A 6 x 256 array distributed over 4 PEs with 32-element pages
//! // (the example from Figure 4 of the paper).
//! let shape = ArrayShape::new(vec![6, 256]);
//! let part = Partitioning::new(shape.len(), 32, 4);
//! let header = ArrayHeader::new(ArrayId(0), "a", shape.clone(), part.clone());
//!
//! // PE 0 owns the first 12 pages = 384 elements = the first 1.5 rows.
//! assert_eq!(header.partitioning().segment_of(0.into()).element_range(), 0..384);
//!
//! // The store defers a read of an unwritten element, hands its waiter tag
//! // to the write that fills it, and enforces single assignment.
//! let store: SharedArrayStore<u32> = SharedArrayStore::new();
//! store.allocate(ArrayId(0), "a", shape, part).unwrap();
//! let a = store.require(ArrayId(0)).unwrap();
//! assert_eq!(a.read(10, 7).unwrap(), SharedReadResult::Deferred);
//! assert_eq!(a.write(10, Value::Float(1.5)).unwrap(), vec![7]);
//! assert!(a.write(10, Value::Float(2.0)).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod header;
mod layout;
pub mod shared;
mod value;

pub use error::IStructureError;
pub use header::{ArrayHeader, ArrayId};
pub use layout::{ArrayShape, DimRange, PartitionSpec, Partitioning, Segment};
pub use shared::{SharedArray, SharedArrayStore, SharedReadResult, StoreStats};
pub use value::Value;

/// Identifier of a processing element (PE).
///
/// PEs are numbered `0..num_pes`. The type is a plain newtype so that PE
/// indices cannot be confused with array offsets or page numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeId(pub usize);

impl PeId {
    /// Returns the numeric index of this PE.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for PeId {
    fn from(value: usize) -> Self {
        PeId(value)
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_id_roundtrip() {
        let pe: PeId = 7.into();
        assert_eq!(pe.index(), 7);
        assert_eq!(pe.to_string(), "PE7");
    }
}
