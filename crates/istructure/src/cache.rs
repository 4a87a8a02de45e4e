//! Software page cache for remote array elements.
//!
//! When a PE reads an element held by another PE, the owner extracts the
//! entire page containing the element and ships it back; the requesting PE
//! installs it in a software cache so that later reads of nearby elements hit
//! locally (§4, "remote data caching"). Because of single assignment a cached
//! value can never become stale, so there is no invalidation protocol — but a
//! cached page may contain *absent* elements (they had not been written when
//! the page was copied). A read of such an element misses on a *stale copy*
//! ([`crate::ReadOutcome::RemoteMiss`] with `cached` set) and re-requests the
//! page.
//!
//! The cache holds only pages that have arrived. The machine simulator keeps
//! the pages that are still on their way in a per-PE in-flight table beside
//! it, so each PE has at most one outstanding request per remote page: a
//! miss on a requested page waits for that request's reply instead of
//! sending another (see `pods_machine::sim`).

use crate::header::ArrayId;
use crate::value::Value;
use std::collections::HashMap;

/// A copy of one page of a remote array.
///
/// Elements that had not yet been written when the page was extracted are
/// `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PageCopy {
    /// The array the page belongs to.
    pub array: ArrayId,
    /// The page index within the array.
    pub page: usize,
    /// Global offset of the first element of the page.
    pub base_offset: usize,
    /// The (possibly partial) element values.
    pub elements: Vec<Option<Value>>,
}

impl PageCopy {
    /// Number of elements the page copy carries (present or absent).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` when the copy carries no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of elements that were present when the page was copied.
    pub fn present_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_some()).count()
    }

    /// Looks up a global offset inside the page copy.
    pub fn get(&self, offset: usize) -> Option<Value> {
        if offset < self.base_offset {
            return None;
        }
        self.elements
            .get(offset - self.base_offset)
            .copied()
            .flatten()
    }
}

/// Hit/miss counters for one PE's page cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Remote reads satisfied from the cache.
    pub hits: u64,
    /// Remote reads that had to go to the owning PE.
    pub misses: u64,
    /// Pages installed (including re-fetches of partially filled pages).
    pub pages_installed: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-PE software cache of remote pages.
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    pages: HashMap<(ArrayId, usize), PageCopy>,
    stats: CacheStats,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Looks up the value of a remote element.
    ///
    /// Returns `Some` only when the containing page is cached *and* the
    /// element was present in the cached copy. Updates hit/miss statistics.
    pub fn lookup(&mut self, array: ArrayId, page: usize, offset: usize) -> Option<Value> {
        let found = self
            .pages
            .get(&(array, page))
            .and_then(|copy| copy.get(offset));
        match found {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up without touching statistics (used by tests and diagnostics).
    pub fn peek(&self, array: ArrayId, page: usize, offset: usize) -> Option<Value> {
        self.pages
            .get(&(array, page))
            .and_then(|copy| copy.get(offset))
    }

    /// Installs (or replaces) a page copy received from the owning PE.
    pub fn install(&mut self, copy: PageCopy) {
        self.stats.pages_installed += 1;
        self.pages.insert((copy.array, copy.page), copy);
    }

    /// Returns `true` when the given page is cached (even partially).
    pub fn contains_page(&self, array: ArrayId, page: usize) -> bool {
        self.pages.contains_key(&(array, page))
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Returns `true` when no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops all cached pages (statistics are preserved).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(array: usize, page_idx: usize, base: usize, values: Vec<Option<Value>>) -> PageCopy {
        PageCopy {
            array: ArrayId(array),
            page: page_idx,
            base_offset: base,
            elements: values,
        }
    }

    #[test]
    fn lookup_hits_after_install() {
        let mut cache = PageCache::new();
        assert_eq!(cache.lookup(ArrayId(0), 1, 33), None);
        cache.install(page(
            0,
            1,
            32,
            vec![Some(Value::Int(1)), Some(Value::Int(2)), None],
        ));
        assert_eq!(cache.lookup(ArrayId(0), 1, 33), Some(Value::Int(2)));
        assert_eq!(cache.lookup(ArrayId(0), 1, 34), None, "absent element");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.pages_installed, 1);
        assert!(stats.hit_ratio() > 0.3 && stats.hit_ratio() < 0.4);
    }

    #[test]
    fn reinstalling_a_page_replaces_it() {
        let mut cache = PageCache::new();
        cache.install(page(0, 0, 0, vec![None, None]));
        assert_eq!(cache.peek(ArrayId(0), 0, 1), None);
        cache.install(page(
            0,
            0,
            0,
            vec![Some(Value::Int(9)), Some(Value::Int(8))],
        ));
        assert_eq!(cache.peek(ArrayId(0), 0, 1), Some(Value::Int(8)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().pages_installed, 2);
    }

    #[test]
    fn pages_are_keyed_by_array_and_index() {
        let mut cache = PageCache::new();
        cache.install(page(0, 3, 96, vec![Some(Value::Int(1))]));
        cache.install(page(1, 3, 96, vec![Some(Value::Int(2))]));
        assert_eq!(cache.peek(ArrayId(0), 3, 96), Some(Value::Int(1)));
        assert_eq!(cache.peek(ArrayId(1), 3, 96), Some(Value::Int(2)));
        assert!(cache.contains_page(ArrayId(0), 3));
        assert!(!cache.contains_page(ArrayId(0), 4));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn page_copy_accessors() {
        let p = page(
            0,
            2,
            64,
            vec![Some(Value::Int(5)), None, Some(Value::Int(6))],
        );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.present_count(), 2);
        assert_eq!(p.get(64), Some(Value::Int(5)));
        assert_eq!(p.get(65), None);
        assert_eq!(p.get(63), None, "offsets below the page base are absent");
        assert_eq!(p.get(70), None, "offsets beyond the page are absent");
    }

    #[test]
    fn hit_ratio_is_zero_without_lookups() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
