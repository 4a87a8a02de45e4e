//! Per-PE array memory: headers, local segments, and the remote-page cache.
//!
//! [`ArrayMemory`] is the functional core of the paper's *Array Manager*
//! (§5.1): it decides whether an access is local, cached, or remote, enforces
//! I-structure semantics, and produces the page copies exchanged between PEs.
//! The timing of these operations is applied by the machine simulator, which
//! wraps one `ArrayMemory` per PE.

use crate::cache::{CacheStats, PageCache, PageCopy};
use crate::error::IStructureError;
use crate::header::{ArrayHeader, ArrayId};
use crate::layout::{ArrayShape, Partitioning};
use crate::store::{LocalArrayStore, ReadResult};
use crate::value::Value;
use crate::PeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of a read request issued on this PE.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// The element is local and present.
    LocalPresent(Value),
    /// The element is local but not yet written; the waiter was enqueued and
    /// will be released by the eventual write.
    LocalDeferred,
    /// The element is remote but its page was cached and the element present.
    CacheHit(Value),
    /// The element is remote and must be requested from its owner.
    RemoteMiss {
        /// The PE that owns the element's page.
        owner: PeId,
        /// The page index to request.
        page: usize,
        /// The page is cached, but the element was still absent when the
        /// page was copied (a stale copy rather than a cold miss).
        cached: bool,
    },
}

/// Outcome of a write request issued on this PE.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOutcome<T> {
    /// The element is local; the value was stored and these deferred readers
    /// must be re-activated.
    Local {
        /// Deferred read tags released by this write.
        woken: Vec<T>,
    },
    /// The element belongs to another PE; the value must be shipped there.
    Remote {
        /// The PE that owns the element.
        owner: PeId,
    },
}

/// The array memory of one PE.
#[derive(Debug, Clone)]
pub struct ArrayMemory<T> {
    pe: PeId,
    headers: HashMap<ArrayId, ArrayHeader>,
    stores: HashMap<ArrayId, LocalArrayStore<T>>,
    cache: PageCache,
}

impl<T> ArrayMemory<T> {
    /// Creates an empty array memory for the given PE.
    pub fn new(pe: PeId) -> Self {
        ArrayMemory {
            pe,
            headers: HashMap::new(),
            stores: HashMap::new(),
            cache: PageCache::new(),
        }
    }

    /// The PE this memory belongs to.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Registers an array: builds the header and allocates the local segment.
    ///
    /// Both the allocating PE and every PE receiving the broadcast allocation
    /// request call this with identical arguments, so all PEs agree on the
    /// header (§4.1).
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::InvalidShape`] for zero-sized shapes.
    pub fn allocate(
        &mut self,
        id: ArrayId,
        name: impl Into<Arc<str>>,
        shape: ArrayShape,
        partitioning: Partitioning,
    ) -> Result<(), IStructureError> {
        if shape.is_degenerate() {
            return Err(IStructureError::InvalidShape {
                dims: shape.dims().to_vec(),
            });
        }
        let header = ArrayHeader::new(id, name, shape, partitioning);
        let store = LocalArrayStore::new(&header, self.pe);
        self.headers.insert(id, header);
        self.stores.insert(id, store);
        Ok(())
    }

    /// Returns the header of an allocated array.
    pub fn header(&self, id: ArrayId) -> Option<&ArrayHeader> {
        self.headers.get(&id)
    }

    /// Returns the header or an [`IStructureError::UnknownArray`] error.
    pub fn require_header(&self, id: ArrayId) -> Result<&ArrayHeader, IStructureError> {
        self.headers
            .get(&id)
            .ok_or(IStructureError::UnknownArray { array: id })
    }

    /// Number of arrays registered on this PE.
    pub fn num_arrays(&self) -> usize {
        self.headers.len()
    }

    /// Read an element. Local elements follow I-structure semantics (present
    /// or deferred), remote elements go through the page cache.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::UnknownArray`] or
    /// [`IStructureError::OutOfBounds`] for invalid accesses.
    pub fn read(
        &mut self,
        id: ArrayId,
        offset: usize,
        waiter: T,
    ) -> Result<ReadOutcome, IStructureError> {
        let header = self
            .headers
            .get(&id)
            .ok_or(IStructureError::UnknownArray { array: id })?;
        if offset >= header.len() {
            return Err(IStructureError::OutOfBounds {
                array: id,
                offset,
                len: header.len(),
            });
        }
        let owner = header.owner_of(offset);
        let page = header.partitioning().page_of(offset);
        if owner == self.pe {
            let store = self.stores.get_mut(&id).expect("store exists with header");
            match store.read(offset, waiter)? {
                ReadResult::Present(v) => Ok(ReadOutcome::LocalPresent(v)),
                ReadResult::Deferred => Ok(ReadOutcome::LocalDeferred),
            }
        } else {
            match self.cache.lookup(id, page, offset) {
                Some(v) => Ok(ReadOutcome::CacheHit(v)),
                None => Ok(ReadOutcome::RemoteMiss {
                    owner,
                    page,
                    cached: self.cache.contains_page(id, page),
                }),
            }
        }
    }

    /// Read an element as the owner of its page, on behalf of a remote
    /// requester. The waiter is enqueued if the element is absent.
    ///
    /// # Errors
    ///
    /// Returns an error if this PE does not own the element.
    pub fn read_as_owner(
        &mut self,
        id: ArrayId,
        offset: usize,
        waiter: T,
    ) -> Result<ReadResult, IStructureError> {
        let store = self
            .stores
            .get_mut(&id)
            .ok_or(IStructureError::UnknownArray { array: id })?;
        store.read(offset, waiter)
    }

    /// Write an element. Local writes store the value and release deferred
    /// readers; remote writes report the owner so the caller can forward the
    /// value (first-element-ownership makes some writes remote, §4.2.3).
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::SingleAssignment`] when a local element is
    /// written twice, plus the usual lookup errors.
    pub fn write(
        &mut self,
        id: ArrayId,
        offset: usize,
        value: Value,
    ) -> Result<WriteOutcome<T>, IStructureError> {
        let header = self
            .headers
            .get(&id)
            .ok_or(IStructureError::UnknownArray { array: id })?;
        if offset >= header.len() {
            return Err(IStructureError::OutOfBounds {
                array: id,
                offset,
                len: header.len(),
            });
        }
        let owner = header.owner_of(offset);
        if owner == self.pe {
            let store = self.stores.get_mut(&id).expect("store exists with header");
            let woken = store.write(offset, value)?;
            Ok(WriteOutcome::Local { woken })
        } else {
            Ok(WriteOutcome::Remote { owner })
        }
    }

    /// Extracts a copy of a locally owned page (the owner-side half of a
    /// remote read miss).
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::UnknownArray`] if the array is unknown.
    pub fn extract_page(&self, id: ArrayId, page: usize) -> Result<PageCopy, IStructureError> {
        let header = self
            .headers
            .get(&id)
            .ok_or(IStructureError::UnknownArray { array: id })?;
        let store = self
            .stores
            .get(&id)
            .ok_or(IStructureError::UnknownArray { array: id })?;
        let range = header.partitioning().page_elements(page);
        Ok(PageCopy {
            array: id,
            page,
            base_offset: range.start,
            elements: store.copy_range(range),
        })
    }

    /// Installs a page copy received from a remote owner into the cache.
    pub fn install_page(&mut self, copy: PageCopy) {
        self.cache.install(copy);
    }

    /// Direct access to the local store of an array (diagnostics, result
    /// extraction).
    pub fn local_store(&self, id: ArrayId) -> Option<&LocalArrayStore<T>> {
        self.stores.get(&id)
    }

    /// Page-cache statistics for this PE.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// All `(offset, value)` pairs written locally for an array.
    pub fn local_written(&self, id: ArrayId) -> Vec<(usize, Value)> {
        self.stores
            .get(&id)
            .map(|s| s.written_elements())
            .unwrap_or_default()
    }

    /// Identifiers of all arrays registered on this PE.
    pub fn array_ids(&self) -> Vec<ArrayId> {
        let mut ids: Vec<ArrayId> = self.headers.keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pe_memories() -> (ArrayMemory<u32>, ArrayMemory<u32>) {
        let mut m0 = ArrayMemory::new(PeId(0));
        let mut m1 = ArrayMemory::new(PeId(1));
        let shape = ArrayShape::matrix(4, 8);
        let part = Partitioning::new(shape.len(), 8, 2);
        m0.allocate(ArrayId(0), "a", shape.clone(), part.clone())
            .unwrap();
        m1.allocate(ArrayId(0), "a", shape, part).unwrap();
        (m0, m1)
    }

    #[test]
    fn local_read_write_roundtrip() {
        let (mut m0, _) = two_pe_memories();
        assert_eq!(
            m0.read(ArrayId(0), 3, 7).unwrap(),
            ReadOutcome::LocalDeferred
        );
        match m0.write(ArrayId(0), 3, Value::Float(2.5)).unwrap() {
            WriteOutcome::Local { woken } => assert_eq!(woken, vec![7]),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(
            m0.read(ArrayId(0), 3, 8).unwrap(),
            ReadOutcome::LocalPresent(Value::Float(2.5))
        );
    }

    #[test]
    fn remote_read_misses_then_hits_after_page_install() {
        let (mut m0, mut m1) = two_pe_memories();
        // Offset 20 is in PE1's segment (16..32).
        match m0.read(ArrayId(0), 20, 1).unwrap() {
            ReadOutcome::RemoteMiss {
                owner,
                page,
                cached,
            } => {
                assert_eq!(owner, PeId(1));
                assert_eq!(page, 2);
                assert!(!cached, "nothing is cached yet: a cold miss");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Owner writes the element, then the requester fetches the page.
        m1.write(ArrayId(0), 20, Value::Int(42)).unwrap();
        let copy = m1.extract_page(ArrayId(0), 2).unwrap();
        assert_eq!(copy.present_count(), 1);
        m0.install_page(copy);
        assert_eq!(
            m0.read(ArrayId(0), 20, 2).unwrap(),
            ReadOutcome::CacheHit(Value::Int(42))
        );
        // A different, still-absent element of the same page misses again,
        // on a stale copy.
        assert!(matches!(
            m0.read(ArrayId(0), 21, 3).unwrap(),
            ReadOutcome::RemoteMiss { cached: true, .. }
        ));
        assert_eq!(m0.cache_stats().hits, 1);
        assert_eq!(m0.cache_stats().pages_installed, 1);
    }

    #[test]
    fn remote_write_reports_owner() {
        let (mut m0, mut m1) = two_pe_memories();
        match m0.write(ArrayId(0), 20, Value::Int(5)).unwrap() {
            WriteOutcome::Remote { owner } => assert_eq!(owner, PeId(1)),
            other => panic!("unexpected outcome {other:?}"),
        }
        // Forwarding to the owner succeeds exactly once.
        assert!(matches!(
            m1.write(ArrayId(0), 20, Value::Int(5)).unwrap(),
            WriteOutcome::Local { .. }
        ));
        assert!(m1.write(ArrayId(0), 20, Value::Int(6)).is_err());
    }

    #[test]
    fn owner_side_read_defers_until_written() {
        let (_, mut m1) = two_pe_memories();
        assert_eq!(
            m1.read_as_owner(ArrayId(0), 17, 9).unwrap(),
            ReadResult::Deferred
        );
        match m1.write(ArrayId(0), 17, Value::Int(1)).unwrap() {
            WriteOutcome::Local { woken } => assert_eq!(woken, vec![9]),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn errors_for_unknown_and_out_of_bounds() {
        let (mut m0, _) = two_pe_memories();
        assert!(matches!(
            m0.read(ArrayId(9), 0, 0),
            Err(IStructureError::UnknownArray { .. })
        ));
        assert!(matches!(
            m0.read(ArrayId(0), 999, 0),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m0.write(ArrayId(0), 999, Value::Int(0)),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(m0.require_header(ArrayId(0)).is_ok());
        assert!(m0.require_header(ArrayId(9)).is_err());
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let mut m = ArrayMemory::<u32>::new(PeId(0));
        let err = m
            .allocate(
                ArrayId(0),
                "bad",
                ArrayShape::new(vec![0, 4]),
                Partitioning::new(0, 32, 1),
            )
            .unwrap_err();
        assert!(matches!(err, IStructureError::InvalidShape { .. }));
    }

    #[test]
    fn bookkeeping_accessors() {
        let (mut m0, _) = two_pe_memories();
        assert_eq!(m0.num_arrays(), 1);
        assert_eq!(m0.array_ids(), vec![ArrayId(0)]);
        m0.write(ArrayId(0), 1, Value::Int(3)).unwrap();
        assert_eq!(m0.local_written(ArrayId(0)), vec![(1, Value::Int(3))]);
        assert!(m0.local_store(ArrayId(0)).is_some());
        assert_eq!(m0.pe(), PeId(0));
    }
}
