//! The I-structure store: every engine's one place for array values.
//!
//! The pooled engines run iteration instances on real OS threads, so many
//! threads hit the store at once. The discrete-event simulator keeps its
//! values here too, on one thread; each simulated PE adds only a residency
//! model that decides what an access costs (local, cached page or remote).
//! Either way the store preserves I-structure semantics:
//!
//! * **write-once cells** — a second write to an element is a
//!   single-assignment violation,
//! * **deferred readers** — a read of an absent element enqueues a
//!   caller-supplied waiter tag on the cell; the write that eventually fills
//!   the element hands all queued tags back to the writer so the caller can
//!   re-activate the blocked computations (the paper's "presence bit +
//!   deferred-read queue" protocol, §4.1, lifted onto threads).
//!
//! The waiter tag type `T` is deliberately opaque, which lets one store
//! serve two wake-up protocols: the native engine's *parked-instance
//! mailboxes* (tags are plain `(instance, slot)` ids resolved against a
//! job-global scheduler) and the async engine's *wakers* (tags carry an
//! `Arc` of the suspended task itself, so the writer re-activates it by
//! locking only that task — the `Waker` half of a futures executor).
//!
//! Synchronisation is per-cell (`Mutex` around each element), so writes and
//! reads to distinct elements never contend, and the array directory is
//! *sharded*: a fixed number of `RwLock`ed maps keyed by array id, so
//! directory lookups of different arrays rarely touch the same lock and an
//! allocation write-locks only one shard. The store is shared between
//! workers via `Arc`; headers carry the same [`Partitioning`] the simulator
//! uses, so Range Filters compute identical per-worker responsibility
//! ranges in both execution modes.
//!
//! A store serves one job at a time but may serve many in turn:
//! [`SharedArrayStore::recycle`] empties it for the next job and keeps the
//! finished job's arrays as spares, so an allocation that a spare has the
//! cell capacity for rewrites the spare's header and resizes its cells in
//! place instead of calling the allocator.

use crate::error::IStructureError;
use crate::header::{ArrayHeader, ArrayId};
use crate::layout::{ArrayShape, PartitionSpec, Partitioning};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Allocation statistics of a [`SharedArrayStore`] for the job it is
/// serving, maintained with relaxed atomics so sampling them never contends
/// with the execution hot path.
///
/// `live` counts what the job has allocated in the store; `peak` is the
/// high-water mark over the job. Byte figures are *approximate*: each array
/// is costed as its header plus one locked cell per element
/// (`size_of::<Mutex<SharedCell<T>>>()`), which tracks the dominant term of
/// the real footprint but ignores deferred-reader queue growth. Arrays are
/// released only between jobs, when [`SharedArrayStore::recycle`] resets
/// all four counters to zero, so within one job `live == peak`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Arrays currently allocated in the store.
    pub live_arrays: usize,
    /// Most arrays ever simultaneously allocated.
    pub peak_arrays: usize,
    /// Approximate bytes currently held by allocated arrays.
    pub live_bytes: usize,
    /// Approximate high-water mark of `live_bytes`.
    pub peak_bytes: usize,
}

/// One write-once element cell with its deferred-reader queue.
///
/// The common deferred case is exactly one reader per cell, so the first
/// waiter tag is held inline and only a second reader pays for a heap
/// queue. The variants are flat (rather than a queue type nested in the
/// empty state) so the cell stays as small as a bare `Vec` queue made it.
#[derive(Debug, Default)]
enum SharedCell<T> {
    /// Presence bit clear, no deferred reader.
    #[default]
    Empty,
    /// Presence bit clear, one deferred reader.
    One(T),
    /// Presence bit clear, two or more deferred readers in arrival order.
    Many(Vec<T>),
    /// Presence bit set.
    Full(Value),
}

/// The result of a read against the shared store.
#[derive(Debug, Clone, PartialEq)]
pub enum SharedReadResult {
    /// The element was present.
    Present(Value),
    /// The element has not been written; the waiter tag was enqueued and
    /// will be handed to the writer that fills the element.
    Deferred,
}

/// One array held by the shared store.
#[derive(Debug)]
pub struct SharedArray<T> {
    header: ArrayHeader,
    cells: Vec<Mutex<SharedCell<T>>>,
}

impl<T> SharedArray<T> {
    fn new(header: ArrayHeader) -> Self {
        let len = header.len();
        SharedArray {
            header,
            cells: (0..len)
                .map(|_| Mutex::new(SharedCell::default()))
                .collect(),
        }
    }

    /// Resizes a spare's cells, all empty, to `len`. A spare is taken only
    /// when its cells have the capacity, so this never calls the allocator.
    fn refit(&mut self, len: usize) {
        debug_assert!(len <= self.cells.capacity());
        self.cells.truncate(len);
        self.cells
            .resize_with(len, || Mutex::new(SharedCell::Empty));
    }

    /// Empties every cell, dropping any waiters still queued on it;
    /// `false` if a panic poisoned a cell.
    fn clear(&mut self) -> bool {
        self.cells
            .iter_mut()
            .all(|cell| cell.get_mut().map(|c| *c = SharedCell::Empty).is_ok())
    }

    /// The array header (shape, name, partitioning / responsibility ranges).
    pub fn header(&self) -> &ArrayHeader {
        &self.header
    }

    /// Reads the element at `offset`, enqueueing `waiter` if it is absent.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfBounds`] for offsets past the end.
    pub fn read(&self, offset: usize, waiter: T) -> Result<SharedReadResult, IStructureError> {
        let cell = self.cells.get(offset).ok_or(IStructureError::OutOfBounds {
            array: self.header.id(),
            offset,
            len: self.cells.len(),
        })?;
        let mut guard = cell.lock().expect("shared cell poisoned");
        match &mut *guard {
            SharedCell::Full(v) => return Ok(SharedReadResult::Present(*v)),
            SharedCell::Many(queue) => queue.push(waiter),
            absent => {
                *absent = match std::mem::take(absent) {
                    // The second reader promotes the inline waiter to a
                    // queue, keeping arrival (= wake) order.
                    SharedCell::One(first) => SharedCell::Many(vec![first, waiter]),
                    _ => SharedCell::One(waiter),
                };
            }
        }
        Ok(SharedReadResult::Deferred)
    }

    /// Reads the element at `offset` without enqueueing a waiter.
    pub fn peek(&self, offset: usize) -> Option<Value> {
        let guard = self
            .cells
            .get(offset)?
            .lock()
            .expect("shared cell poisoned");
        match &*guard {
            SharedCell::Full(v) => Some(*v),
            _ => None,
        }
    }

    /// Writes the element at `offset`, returning the deferred waiters that
    /// were queued on it. The cell lock is released before the caller
    /// re-activates the waiters, so wake-up work never blocks other cells.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::SingleAssignment`] on a second write and
    /// [`IStructureError::OutOfBounds`] for offsets past the end.
    pub fn write(&self, offset: usize, value: Value) -> Result<Vec<T>, IStructureError> {
        Ok(match self.fill(offset, value)? {
            SharedCell::One(waiter) => vec![waiter],
            SharedCell::Many(waiters) => waiters,
            SharedCell::Empty | SharedCell::Full(_) => Vec::new(),
        })
    }

    /// Sets the presence bit of the element at `offset` and returns the
    /// cell's previous (absent) state, i.e. its deferred readers. Errors
    /// leave the cell — value and waiters — exactly as it was.
    fn fill(&self, offset: usize, value: Value) -> Result<SharedCell<T>, IStructureError> {
        let cell = self.cells.get(offset).ok_or(IStructureError::OutOfBounds {
            array: self.header.id(),
            offset,
            len: self.cells.len(),
        })?;
        let mut guard = cell.lock().expect("shared cell poisoned");
        if matches!(*guard, SharedCell::Full(_)) {
            return Err(IStructureError::SingleAssignment {
                array: self.header.id(),
                offset,
            });
        }
        Ok(std::mem::replace(&mut *guard, SharedCell::Full(value)))
    }

    /// Bulk-delivery form of [`SharedArray::write`]: writes the element and
    /// appends each deferred waiter, paired with the written value, to
    /// `sink`. Returns how many waiters were appended.
    ///
    /// This is the primitive behind batched wake-up delivery: a writer that
    /// fills many elements in one task accumulates all the `(waiter, value)`
    /// wake-ups in one reusable buffer and re-activates them in a single
    /// scheduler transaction, instead of paying a scheduler-lock round trip
    /// per write.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::SingleAssignment`] on a second write and
    /// [`IStructureError::OutOfBounds`] for offsets past the end; `sink` is
    /// untouched on error.
    pub fn write_into(
        &self,
        offset: usize,
        value: Value,
        sink: &mut Vec<(T, Value)>,
    ) -> Result<usize, IStructureError> {
        let before = sink.len();
        match self.fill(offset, value)? {
            SharedCell::One(waiter) => sink.push((waiter, value)),
            SharedCell::Many(waiters) => sink.extend(waiters.into_iter().map(|w| (w, value))),
            SharedCell::Empty | SharedCell::Full(_) => {}
        }
        Ok(sink.len() - before)
    }

    /// Snapshot of every element (`None` = never written), row-major.
    pub fn snapshot(&self) -> Vec<Option<Value>> {
        let mut values = Vec::with_capacity(self.cells.len());
        self.snapshot_into(&mut values);
        values
    }

    /// Replaces `values` with the snapshot, within its capacity when that
    /// is large enough.
    pub fn snapshot_into(&self, values: &mut Vec<Option<Value>>) {
        values.clear();
        values.extend(
            self.cells
                .iter()
                .map(|c| match &*c.lock().expect("shared cell poisoned") {
                    SharedCell::Full(v) => Some(*v),
                    _ => None,
                }),
        );
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Number of fixed directory shards. Arrays land on `id % 16`; ids are
/// assigned sequentially by the engines, so consecutive allocations spread
/// round-robin across the shards.
const DIRECTORY_SHARDS: usize = 16;

/// A concurrent, `Arc`-shared directory of I-structure arrays.
///
/// The waiter tag type `T` identifies the blocked computation to re-activate
/// when a deferred element is finally written: the native engine uses an
/// `(instance, slot)` pair resolved against its scheduler, the async engine
/// a waker (an `Arc` of the suspended task plus the slot).
///
/// The directory is split into a fixed number of independently locked
/// maps (16 shards) keyed by array id. Per-task caching already hides directory lookups
/// on the hot path; sharding removes the residual cold-path contention —
/// first-touch lookups of distinct arrays proceed in parallel instead of
/// serialising on one `RwLock`.
///
/// Creating a store does not call the allocator; a store that serves job
/// after job through [`Self::recycle`] keeps its directory's capacity and
/// the last job's arrays.
#[derive(Debug)]
pub struct SharedArrayStore<T> {
    shards: [RwLock<HashMap<ArrayId, Arc<SharedArray<T>>>>; DIRECTORY_SHARDS],
    /// Allocation order, so result snapshots match the simulator's. Lock
    /// order: `order`, then a shard.
    order: Mutex<Vec<ArrayId>>,
    /// The previous job's arrays, emptied, that nothing else holds:
    /// `allocate` takes one with enough cell capacity before it builds an
    /// array.
    spares: Mutex<Vec<Arc<SharedArray<T>>>>,
    /// Arrays currently allocated (see [`StoreStats`]).
    live_arrays: AtomicUsize,
    /// High-water mark of `live_arrays`.
    peak_arrays: AtomicUsize,
    /// Approximate bytes currently held by allocated arrays.
    live_bytes: AtomicUsize,
    /// High-water mark of `live_bytes`.
    peak_bytes: AtomicUsize,
}

impl<T> Default for SharedArrayStore<T> {
    fn default() -> Self {
        SharedArrayStore {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            order: Mutex::new(Vec::new()),
            spares: Mutex::new(Vec::new()),
            live_arrays: AtomicUsize::new(0),
            peak_arrays: AtomicUsize::new(0),
            live_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }
}

impl<T> SharedArrayStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard holding (or destined to hold) the given array.
    fn shard(&self, id: ArrayId) -> &RwLock<HashMap<ArrayId, Arc<SharedArray<T>>>> {
        &self.shards[id.0 % DIRECTORY_SHARDS]
    }

    /// Allocates an array with the given header parameters.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::InvalidShape`] for zero-sized shapes and
    /// [`IStructureError::DuplicateArray`] if the identifier is already in
    /// use.
    pub fn allocate(
        &self,
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
        let len = header.len();
        let array = match self.take_spare(len) {
            Some(mut spare) => {
                let reused = unique(&mut spare);
                reused.header = header;
                reused.refit(len);
                spare
            }
            None => Arc::new(SharedArray::new(header)),
        };
        self.insert(array)
    }

    /// Allocates an array of extents `dims`, partitioned by `partitioning`,
    /// with the allocating instruction's shared copy of its name. This is
    /// the pooled engines' path: a spare array with enough cell capacity is
    /// reused whole — header storage, record and cells — so it calls the
    /// allocator only when no spare has the capacity (or for ranks above
    /// four).
    ///
    /// # Errors
    ///
    /// As [`Self::allocate`].
    pub fn allocate_dims(
        &self,
        id: ArrayId,
        name: &Arc<str>,
        dims: &[usize],
        partitioning: PartitionSpec,
    ) -> Result<(), IStructureError> {
        if dims.contains(&0) {
            return Err(IStructureError::InvalidShape {
                dims: dims.to_vec(),
            });
        }
        let len = dims.iter().product();
        let array = match self.take_spare(len) {
            Some(mut spare) => {
                let reused = unique(&mut spare);
                reused.header.reset(id, name, dims, partitioning);
                reused.refit(len);
                spare
            }
            None => {
                let shape = ArrayShape::from_dims(dims);
                let header = ArrayHeader::new(id, Arc::clone(name), shape, partitioning.build(len));
                Arc::new(SharedArray::new(header))
            }
        };
        self.insert(array)
    }

    /// A spare array that holds `len` cells without growing, if the
    /// previous job left one: one of exactly that length, else the one with
    /// the least cell capacity that suffices, so the larger spares stay for
    /// the larger arrays. A job whose array sizes vary from run to run (a
    /// mesh size in the arguments) thus rebuilds an array only when no
    /// spare has the cells for it.
    fn take_spare(&self, len: usize) -> Option<Arc<SharedArray<T>>> {
        let mut spares = self.spares.lock().expect("shared store poisoned");
        let exact = spares.iter().position(|a| a.len() == len);
        let i = exact.or_else(|| {
            (0..spares.len())
                .filter(|&i| spares[i].cells.capacity() >= len)
                .min_by_key(|&i| spares[i].cells.capacity())
        })?;
        Some(spares.swap_remove(i))
    }

    /// Enters a built array into the directory and the allocation order.
    fn insert(&self, array: Arc<SharedArray<T>>) -> Result<(), IStructureError> {
        let id = array.header.id();
        let len = array.len();
        // The order lock is held across the shard insert, so a racing
        // duplicate allocate of the *same* id cannot interleave between the
        // insert and the order push (allocations of different ids serialise
        // only here; whichever push lands first *is* the allocation order).
        let mut order = self.order.lock().expect("shared store poisoned");
        let mut arrays = self.shard(id).write().expect("shared store poisoned");
        if arrays.contains_key(&id) {
            return Err(IStructureError::DuplicateArray { array: id });
        }
        arrays.insert(id, array);
        order.push(id);
        drop(arrays);
        drop(order);
        let bytes =
            std::mem::size_of::<ArrayHeader>() + len * std::mem::size_of::<Mutex<SharedCell<T>>>();
        let live = self.live_arrays.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_arrays.fetch_max(live, Ordering::Relaxed);
        let live_bytes = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Empties the store for the next job, keeping what can be reused: the
    /// directory's and the allocation order's capacity, and as spares every
    /// array of the finished job that nothing else still holds (an `Arc`
    /// clone kept elsewhere makes that array's reuse unsafe, so it is
    /// dropped instead). A kept array's cells are reset to empty, which
    /// drops any waiters a failed or cancelled job left queued on them.
    /// Spares the finished job did not take are dropped, so a store holds
    /// at most one job's arrays. The [`StoreStats`] restart at zero.
    ///
    /// Never panics, so it may run in a `Drop`: it returns `false` if a
    /// panic poisoned one of the store's locks, and such a store must not
    /// serve another job.
    pub fn recycle(&mut self) -> bool {
        let Ok(spares) = self.spares.get_mut() else {
            return false;
        };
        spares.clear();
        for shard in &mut self.shards {
            let Ok(arrays) = shard.get_mut() else {
                return false;
            };
            for (_, mut array) in arrays.drain() {
                if Arc::get_mut(&mut array).is_some_and(SharedArray::clear) {
                    spares.push(array);
                }
            }
        }
        let Ok(order) = self.order.get_mut() else {
            return false;
        };
        order.clear();
        for counter in [
            &mut self.live_arrays,
            &mut self.peak_arrays,
            &mut self.live_bytes,
            &mut self.peak_bytes,
        ] {
            *counter.get_mut() = 0;
        }
        true
    }

    /// Current/peak allocation counters (relaxed-atomic snapshot; safe to
    /// sample from any thread while jobs run).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_arrays: self.live_arrays.load(Ordering::Relaxed),
            peak_arrays: self.peak_arrays.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }

    /// The array with the given id, if allocated. Read-locks only the
    /// shard the id hashes to.
    pub fn array(&self, id: ArrayId) -> Option<Arc<SharedArray<T>>> {
        self.shard(id)
            .read()
            .expect("shared store poisoned")
            .get(&id)
            .cloned()
    }

    /// The array or an [`IStructureError::UnknownArray`] error.
    pub fn require(&self, id: ArrayId) -> Result<Arc<SharedArray<T>>, IStructureError> {
        self.array(id)
            .ok_or(IStructureError::UnknownArray { array: id })
    }

    /// Number of arrays allocated so far.
    pub fn num_arrays(&self) -> usize {
        self.order.lock().expect("shared store poisoned").len()
    }

    /// Calls `visit` with every array, in allocation order.
    pub fn for_each_array(&self, mut visit: impl FnMut(&SharedArray<T>)) {
        let order = self.order.lock().expect("shared store poisoned");
        for a in order.iter().filter_map(|id| self.array(*id)) {
            visit(&a);
        }
    }

    /// Snapshots of every array in allocation order, each made by `snap`
    /// from the array's header and its values (`None` = never written).
    /// The result is sized once, for every array allocated; `snap` can name
    /// its array with [`ArrayHeader::shared_name`] without copying text, so
    /// the values are the one allocation per array.
    pub fn snapshots<R>(
        &self,
        mut snap: impl FnMut(&ArrayHeader, Vec<Option<Value>>) -> R,
    ) -> Vec<R> {
        let order = self.order.lock().expect("shared store poisoned");
        let mut snapshots = Vec::with_capacity(order.len());
        for a in order.iter().filter_map(|id| self.array(*id)) {
            snapshots.push(snap(&a.header, a.snapshot()));
        }
        snapshots
    }
}

/// Mutable access to an array taken from the spare list, which only ever
/// holds arrays nothing else references.
fn unique<T>(spare: &mut Arc<SharedArray<T>>) -> &mut SharedArray<T> {
    Arc::get_mut(spare).expect("a spare array has no other owner")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn store() -> SharedArrayStore<usize> {
        let s = SharedArrayStore::new();
        let shape = ArrayShape::matrix(4, 8);
        let part = Partitioning::new(shape.len(), 8, 2);
        s.allocate(ArrayId(0), "a", shape, part).unwrap();
        s
    }

    #[test]
    fn write_once_and_deferred_wakeup() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert_eq!(a.read(3, 11).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(3, 22).unwrap(), SharedReadResult::Deferred);
        let woken = a.write(3, Value::Int(9)).unwrap();
        assert_eq!(woken, vec![11, 22]);
        assert_eq!(
            a.read(3, 33).unwrap(),
            SharedReadResult::Present(Value::Int(9))
        );
        assert!(matches!(
            a.write(3, Value::Int(1)),
            Err(IStructureError::SingleAssignment { .. })
        ));
        assert_eq!(a.peek(3), Some(Value::Int(9)));
        assert_eq!(a.peek(4), None);
    }

    #[test]
    fn write_into_appends_waiter_value_pairs_without_allocating_per_write() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert_eq!(a.read(0, 1).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(0, 2).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(5, 3).unwrap(), SharedReadResult::Deferred);
        let mut sink = Vec::new();
        assert_eq!(a.write_into(0, Value::Int(10), &mut sink).unwrap(), 2);
        assert_eq!(a.write_into(4, Value::Int(40), &mut sink).unwrap(), 0);
        assert_eq!(a.write_into(5, Value::Int(50), &mut sink).unwrap(), 1);
        assert_eq!(
            sink,
            vec![
                (1, Value::Int(10)),
                (2, Value::Int(10)),
                (3, Value::Int(50))
            ]
        );
        // Errors leave the sink untouched.
        assert!(matches!(
            a.write_into(0, Value::Int(1), &mut sink),
            Err(IStructureError::SingleAssignment { .. })
        ));
        assert!(matches!(
            a.write_into(999, Value::Int(1), &mut sink),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn the_first_waiter_is_held_inline_and_the_second_promotes_in_order() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        let state = |offset: usize| match &*a.cells[offset].lock().unwrap() {
            SharedCell::Empty => "empty",
            SharedCell::One(_) => "one",
            SharedCell::Many(_) => "many",
            SharedCell::Full(_) => "full",
        };
        assert_eq!(state(2), "empty");
        assert_eq!(a.read(2, 7).unwrap(), SharedReadResult::Deferred);
        assert_eq!(state(2), "one");
        assert_eq!(a.peek(2), None);
        assert_eq!(a.write(2, Value::Int(1)).unwrap(), vec![7]);
        assert_eq!(state(2), "full");

        for waiter in [5, 3, 9] {
            assert_eq!(a.read(6, waiter).unwrap(), SharedReadResult::Deferred);
        }
        assert_eq!(state(6), "many");
        assert_eq!(a.snapshot()[6], None);
        // Arrival order is wake order, across the promotion.
        assert_eq!(a.write(6, Value::Int(2)).unwrap(), vec![5, 3, 9]);
        assert_eq!(a.write(7, Value::Int(3)).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn write_into_delivers_from_every_cell_state() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        a.read(1, 10).unwrap(); // one waiter
        a.read(2, 20).unwrap(); // two waiters
        a.read(2, 21).unwrap();
        let mut sink = vec![(99, Value::Unit)];
        assert_eq!(a.write_into(0, Value::Int(0), &mut sink).unwrap(), 0);
        assert_eq!(a.write_into(1, Value::Int(1), &mut sink).unwrap(), 1);
        assert_eq!(a.write_into(2, Value::Int(2), &mut sink).unwrap(), 2);
        let delivered = vec![
            (99, Value::Unit),
            (10, Value::Int(1)),
            (20, Value::Int(2)),
            (21, Value::Int(2)),
        ];
        assert_eq!(sink, delivered);
        // A full cell refuses the write: value and sink stay as they were.
        for offset in 0..3 {
            assert!(matches!(
                a.write_into(offset, Value::Int(-1), &mut sink),
                Err(IStructureError::SingleAssignment { .. })
            ));
            assert_eq!(a.peek(offset), Some(Value::Int(offset as i64)));
        }
        assert_eq!(sink, delivered);
    }

    #[test]
    fn a_failed_write_leaves_waiters_queued() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        a.read(4, 1).unwrap();
        a.read(5, 2).unwrap();
        a.read(5, 3).unwrap();
        let mut sink = Vec::new();
        assert!(matches!(
            a.write_into(a.len(), Value::Int(0), &mut sink),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(a.write(a.len(), Value::Int(0)).is_err());
        assert!(sink.is_empty());
        // The readers parked before the failures are all still woken.
        assert_eq!(a.write(4, Value::Int(4)).unwrap(), vec![1]);
        assert_eq!(a.write(5, Value::Int(5)).unwrap(), vec![2, 3]);
    }

    #[test]
    fn the_inline_waiter_does_not_grow_the_cell() {
        // One locked cell per element is `alloc_kib_per_job` and
        // `peak_rss_mb` on every workload. With a bare `Vec` queue the cell
        // was as big as a locked `Vec` (the value packs into its niche: 32
        // bytes on 64-bit Linux); holding the first waiter inline must not
        // cost a byte more — for both pooled engines' tags, an (instance,
        // slot) pair and a waker (`Arc` of the task plus the slot).
        fn assert_no_bigger_than_a_locked_queue<T>() {
            assert_eq!(
                std::mem::size_of::<Mutex<SharedCell<T>>>(),
                std::mem::size_of::<Mutex<Vec<T>>>()
            );
        }
        assert_no_bigger_than_a_locked_queue::<(u64, usize)>();
        assert_no_bigger_than_a_locked_queue::<(Arc<Mutex<u8>>, usize)>();
    }

    #[test]
    fn bounds_and_unknown_arrays_are_errors() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert!(matches!(
            a.read(999, 0),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(matches!(
            a.write(999, Value::Int(0)),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(s.require(ArrayId(7)).is_err());
        assert!(matches!(
            s.allocate(
                ArrayId(1),
                "bad",
                ArrayShape::new(vec![0]),
                Partitioning::new(0, 8, 1)
            ),
            Err(IStructureError::InvalidShape { .. })
        ));
        assert!(matches!(
            s.allocate(
                ArrayId(0),
                "again",
                ArrayShape::vector(2),
                Partitioning::new(2, 8, 1)
            ),
            Err(IStructureError::DuplicateArray { .. })
        ));
        assert_eq!(s.num_arrays(), 1);
        assert_eq!(s.snapshots(|h, _| h.id()), [ArrayId(0)]);
    }

    #[test]
    fn snapshots_follow_allocation_order() {
        let s = store();
        s.allocate(
            ArrayId(1),
            "b",
            ArrayShape::vector(3),
            Partitioning::single_owner(3, 8, 2, PeId(1)),
        )
        .unwrap();
        s.require(ArrayId(1))
            .unwrap()
            .write(0, Value::Bool(true))
            .unwrap();
        let snaps = s.snapshots(|h, values| (h.name().to_string(), values));
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "a");
        assert_eq!(snaps[1].0, "b");
        assert_eq!(snaps[1].1[0], Some(Value::Bool(true)));
        assert_eq!(s.num_arrays(), 2);
    }

    #[test]
    fn sharded_directory_preserves_order_ids_and_duplicate_detection() {
        // More arrays than shards, allocated from several threads: every id
        // resolvable, allocation order = push order, duplicates of an id
        // already in a shard still rejected, and `num_arrays` exact.
        let s = Arc::new(SharedArrayStore::<usize>::new());
        let per_thread = 2 * DIRECTORY_SHARDS;
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for k in 0..per_thread {
                    let id = ArrayId(t * per_thread + k);
                    s.allocate(
                        id,
                        format!("a{}", id.0),
                        ArrayShape::vector(1 + id.0 % 3),
                        Partitioning::new(1 + id.0 % 3, 8, 2),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = threads * per_thread;
        assert_eq!(s.num_arrays(), total);
        for id in 0..total {
            let a = s.require(ArrayId(id)).unwrap();
            assert_eq!(a.header().id(), ArrayId(id));
            assert_eq!(a.header().name(), format!("a{id}"));
            // Allocating the same id again fails regardless of which shard
            // it lives in.
            assert!(matches!(
                s.allocate(
                    ArrayId(id),
                    "dup",
                    ArrayShape::vector(1),
                    Partitioning::new(1, 8, 1)
                ),
                Err(IStructureError::DuplicateArray { .. })
            ));
        }
        // Snapshots follow the recorded allocation order exactly and cover
        // every array once.
        let mut seen = s.snapshots(|h, _| h.id().0);
        assert_eq!(seen.len(), total);
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_writes_fill_the_array() {
        let s = Arc::new(SharedArrayStore::<usize>::new());
        let shape = ArrayShape::matrix(8, 32);
        let n = shape.len();
        s.allocate(ArrayId(0), "c", shape, Partitioning::new(n, 32, 4))
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..4usize {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                let a = s.require(ArrayId(0)).unwrap();
                for offset in (t..n).step_by(4) {
                    a.write(offset, Value::Int(offset as i64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.require(ArrayId(0)).unwrap().snapshot();
        assert!(snap
            .iter()
            .enumerate()
            .all(|(i, v)| *v == Some(Value::Int(i as i64))));
    }

    #[test]
    fn racing_writers_to_one_cell_produce_exactly_one_winner() {
        let s = Arc::new(SharedArrayStore::<usize>::new());
        s.allocate(
            ArrayId(0),
            "r",
            ArrayShape::vector(1),
            Partitioning::new(1, 8, 1),
        )
        .unwrap();
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            handles.push(thread::spawn(move || {
                let a = s.require(ArrayId(0)).unwrap();
                if a.write(0, Value::Int(t as i64)).is_ok() {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
        assert!(s.require(ArrayId(0)).unwrap().peek(0).is_some());
    }

    #[test]
    fn store_stats_track_allocations() {
        let s = SharedArrayStore::<usize>::new();
        assert_eq!(s.stats(), StoreStats::default());
        s.allocate(
            ArrayId(0),
            "a",
            ArrayShape::vector(4),
            Partitioning::new(4, 8, 1),
        )
        .unwrap();
        let one = s.stats();
        assert_eq!(one.live_arrays, 1);
        assert_eq!(one.peak_arrays, 1);
        assert!(one.live_bytes >= 4 * std::mem::size_of::<Value>());
        assert_eq!(one.live_bytes, one.peak_bytes);
        s.allocate(
            ArrayId(1),
            "b",
            ArrayShape::matrix(8, 8),
            Partitioning::new(64, 8, 2),
        )
        .unwrap();
        let two = s.stats();
        assert_eq!(two.live_arrays, 2);
        assert_eq!(two.peak_arrays, 2);
        assert!(two.live_bytes > one.live_bytes);
        // Nothing is released within a job: live always equals peak.
        assert_eq!(two.live_bytes, two.peak_bytes);
        // Failed allocations leave the counters untouched.
        assert!(s
            .allocate(
                ArrayId(1),
                "dup",
                ArrayShape::vector(1),
                Partitioning::new(1, 8, 1)
            )
            .is_err());
        assert_eq!(s.stats(), two);
    }

    fn spread(num_pes: usize) -> PartitionSpec {
        PartitionSpec {
            page_size: 8,
            num_pes,
            owner: None,
        }
    }

    /// The store of a job that wrote `a[3]` and left a reader queued on
    /// `a[5]`, recycled; returns it with the address of `a`'s record.
    fn recycled() -> (SharedArrayStore<usize>, *const SharedArray<usize>) {
        let mut s = store();
        let a = s.require(ArrayId(0)).unwrap();
        a.write(3, Value::Int(9)).unwrap();
        assert_eq!(a.read(5, 7).unwrap(), SharedReadResult::Deferred);
        let record = Arc::as_ptr(&a);
        drop(a);
        assert!(s.recycle());
        (s, record)
    }

    #[test]
    fn a_recycled_store_reuses_an_array_of_the_same_length_with_every_cell_empty() {
        let (s, record) = recycled();
        assert_eq!(s.stats(), StoreStats::default());
        assert_eq!(s.num_arrays(), 0);
        assert!(s.snapshots(|h, _| h.id()).is_empty());
        assert!(s.require(ArrayId(0)).is_err());
        // 8 x 4 has the 4 x 8 array's length: its record is reused, with a
        // header rewritten for the new name, shape and partitioning.
        s.allocate_dims(ArrayId(0), &Arc::from("c"), &[8, 4], spread(4))
            .unwrap();
        let c = s.require(ArrayId(0)).unwrap();
        assert_eq!(Arc::as_ptr(&c), record);
        assert_eq!(c.header().name(), "c");
        assert_eq!(c.header().shape(), &ArrayShape::matrix(8, 4));
        assert_eq!(c.header().partitioning(), &Partitioning::new(32, 8, 4));
        assert!(c.snapshot().iter().all(Option::is_none));
        // The queued reader went with the old job.
        assert_eq!(c.write(5, Value::Int(1)).unwrap(), Vec::<usize>::new());
        assert_eq!(c.write(3, Value::Int(2)).unwrap(), Vec::<usize>::new());
        let stats = s.stats();
        assert_eq!((stats.live_arrays, stats.peak_arrays), (1, 1));
    }

    #[test]
    fn recycling_releases_the_waiters_a_failed_job_left_queued() {
        // Async-style waiters: each queued read holds an `Arc` of its task.
        let mut s = SharedArrayStore::<Arc<u8>>::new();
        s.allocate(
            ArrayId(0),
            "a",
            ArrayShape::vector(4),
            Partitioning::new(4, 8, 1),
        )
        .unwrap();
        let task = Arc::new(0u8);
        let a = s.require(ArrayId(0)).unwrap();
        for offset in [1, 2, 2] {
            a.read(offset, Arc::clone(&task)).unwrap();
        }
        drop(a);
        assert_eq!(Arc::strong_count(&task), 4);
        assert!(s.recycle());
        assert_eq!(Arc::strong_count(&task), 1);
    }

    #[test]
    fn a_recycled_store_rejects_duplicates_and_snapshots_the_new_order() {
        let (s, _) = recycled();
        s.allocate_dims(ArrayId(1), &Arc::from("y"), &[2], spread(2))
            .unwrap();
        s.allocate_dims(ArrayId(0), &Arc::from("x"), &[32], spread(2))
            .unwrap();
        assert!(matches!(
            s.allocate_dims(ArrayId(1), &Arc::from("dup"), &[2], spread(2)),
            Err(IStructureError::DuplicateArray { .. })
        ));
        assert!(matches!(
            s.allocate(
                ArrayId(0),
                "dup",
                ArrayShape::vector(32),
                Partitioning::new(32, 8, 2)
            ),
            Err(IStructureError::DuplicateArray { .. })
        ));
        let names = s.snapshots(|h, _| h.name().to_string());
        assert_eq!(names, ["y", "x"]);
        assert_eq!(s.num_arrays(), 2);
        assert_eq!(s.stats().live_arrays, 2);
    }

    #[test]
    fn an_array_longer_than_every_spare_builds_a_fresh_one() {
        let (s, record) = recycled();
        s.allocate_dims(ArrayId(0), &Arc::from("v"), &[33], spread(2))
            .unwrap();
        let v = s.require(ArrayId(0)).unwrap();
        assert_ne!(Arc::as_ptr(&v), record);
        assert_eq!(v.len(), 33);
        assert!(matches!(
            s.allocate_dims(ArrayId(1), &Arc::from("z"), &[4, 0], spread(2)),
            Err(IStructureError::InvalidShape { .. })
        ));
    }

    #[test]
    fn a_shorter_array_reuses_a_spare_within_its_capacity() {
        // The recycled job left one 32-cell spare; the next job's array of
        // 16 takes it, and so does the 32-cell array of the job after.
        let (mut s, record) = recycled();
        s.allocate_dims(ArrayId(0), &Arc::from("v"), &[4, 4], spread(2))
            .unwrap();
        let v = s.require(ArrayId(0)).unwrap();
        assert_eq!(Arc::as_ptr(&v), record);
        assert_eq!((v.len(), v.header().len()), (16, 16));
        assert_eq!(v.header().partitioning(), &Partitioning::new(16, 8, 2));
        assert!(v.snapshot().iter().all(Option::is_none));
        assert!(matches!(
            v.write(16, Value::Int(0)),
            Err(IStructureError::OutOfBounds { len: 16, .. })
        ));
        v.write(15, Value::Int(1)).unwrap();
        drop(v);
        assert!(s.recycle());
        s.allocate_dims(ArrayId(0), &Arc::from("w"), &[32], spread(2))
            .unwrap();
        let w = s.require(ArrayId(0)).unwrap();
        assert_eq!(Arc::as_ptr(&w), record);
        assert_eq!(w.len(), 32);
        assert!(w.snapshot().iter().all(Option::is_none));
    }

    #[test]
    fn an_exact_length_spare_is_taken_before_a_larger_one() {
        let mut s = SharedArrayStore::<usize>::new();
        for (id, len) in [(0, 40), (1, 24), (2, 30)] {
            s.allocate_dims(ArrayId(id), &Arc::from("a"), &[len], spread(2))
                .unwrap();
        }
        let record =
            |s: &SharedArrayStore<usize>, id| Arc::as_ptr(&s.require(ArrayId(id)).unwrap());
        let (forty, twenty_four, thirty) = (record(&s, 0), record(&s, 1), record(&s, 2));
        assert!(s.recycle());
        // 24 cells: the 24-cell spare, not the 30- or 40-cell one.
        s.allocate_dims(ArrayId(0), &Arc::from("b"), &[24], spread(2))
            .unwrap();
        assert_eq!(record(&s, 0), twenty_four);
        // 25 cells: the least capacity that suffices, the 30-cell spare.
        s.allocate_dims(ArrayId(1), &Arc::from("c"), &[25], spread(2))
            .unwrap();
        assert_eq!(record(&s, 1), thirty);
        // 41 cells: no spare has them.
        s.allocate_dims(ArrayId(2), &Arc::from("d"), &[41], spread(2))
            .unwrap();
        assert!(![forty, twenty_four, thirty].contains(&record(&s, 2)));
    }

    #[test]
    fn an_array_still_referenced_elsewhere_is_not_reused() {
        let mut s = store();
        let held = s.require(ArrayId(0)).unwrap();
        held.write(0, Value::Int(1)).unwrap();
        assert!(s.recycle());
        s.allocate_dims(ArrayId(0), &Arc::from("b"), &[4, 8], spread(2))
            .unwrap();
        let fresh = s.require(ArrayId(0)).unwrap();
        assert!(!Arc::ptr_eq(&fresh, &held));
        assert_eq!(fresh.peek(0), None);
        // The holder's array was left exactly as it was.
        assert_eq!(held.peek(0), Some(Value::Int(1)));
    }

    #[test]
    fn recycling_never_panics_on_a_poisoned_lock() {
        fn poison<G>(lock: impl FnOnce() -> G + Send) {
            thread::scope(|scope| {
                let held = scope.spawn(move || {
                    let _guard = lock();
                    panic!("poison it");
                });
                assert!(held.join().is_err());
            });
        }
        // A poisoned cell costs only its array, which is not kept.
        let (mut s, _) = recycled();
        s.allocate_dims(ArrayId(0), &Arc::from("p"), &[32], spread(2))
            .unwrap();
        let a = s.require(ArrayId(0)).unwrap();
        poison(|| a.cells[0].lock());
        drop(a);
        assert!(s.recycle());
        s.allocate_dims(ArrayId(0), &Arc::from("q"), &[32], spread(2))
            .unwrap();
        // Reading the poisoned cell would panic.
        assert_eq!(s.require(ArrayId(0)).unwrap().peek(0), None);
        // A poisoned directory lock makes the whole store unfit for reuse.
        poison(|| s.order.lock());
        assert!(!s.recycle());
    }
}
