//! What one simulated PE holds of the arrays it does not own.
//!
//! Every value lives once, in the simulator's one I-structure store; the
//! paper's Array Manager (§4.1) only decides what an access *costs*: local,
//! a hit in a cached page copy, or a request to the owner. So a PE keeps no
//! values of its own, only its residency: the arrays whose allocation it has
//! seen, and for each remote page it has received, which of the page's
//! elements were present when the owner copied it.

use pods_istructure::ArrayId;
use std::collections::{HashMap, HashSet};

/// Presence bits of one page copy, one per element of the page.
#[derive(Debug, Clone)]
pub(crate) struct Bits {
    len: usize,
    words: Box<[u64]>,
}

impl Bits {
    /// A page of `len` elements, none present.
    pub(crate) fn new(len: usize) -> Self {
        Bits {
            len,
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Number of elements the page holds, present or not.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Marks element `i` of the page present.
    pub(crate) fn set(&mut self, i: usize) {
        assert!(i < self.len, "element {i} of a {}-element page", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether element `i` of the page was present (`false` past the end).
    pub(crate) fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// A read of a remote element, as the reading PE's residency classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The element was present in this PE's copy of its page.
    Hit,
    /// The element must be requested from its owner. `cached` is set when
    /// the page is held but the element was absent when it was copied (a
    /// stale copy rather than a cold miss).
    Miss { cached: bool },
}

/// One PE's residency model.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    /// Arrays whose allocation this PE has performed or received.
    known: HashSet<ArrayId>,
    /// Remote pages held, keyed by `(array, page)`.
    pages: HashMap<(ArrayId, usize), Bits>,
}

impl Residency {
    /// Records that this PE has seen `array`'s allocation.
    pub(crate) fn know(&mut self, array: ArrayId) {
        self.known.insert(array);
    }

    /// Whether this PE has seen `array`'s allocation.
    pub(crate) fn knows(&self, array: ArrayId) -> bool {
        self.known.contains(&array)
    }

    /// Installs a copy of `page` of `array`, replacing any older copy.
    pub(crate) fn install(&mut self, array: ArrayId, page: usize, present: Bits) {
        self.pages.insert((array, page), present);
    }

    /// Classifies a read of element `index` (counted from the start of the
    /// page) of `page` of `array`.
    pub(crate) fn lookup(&self, array: ArrayId, page: usize, index: usize) -> Lookup {
        match self.pages.get(&(array, page)) {
            Some(present) if present.get(index) => Lookup::Hit,
            held => Lookup::Miss {
                cached: held.is_some(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(len: usize, present: &[usize]) -> Bits {
        let mut bits = Bits::new(len);
        for &i in present {
            bits.set(i);
        }
        bits
    }

    #[test]
    fn an_installed_page_serves_its_present_elements() {
        let mut r = Residency::default();
        assert_eq!(r.lookup(ArrayId(0), 1, 1), Lookup::Miss { cached: false });
        r.install(ArrayId(0), 1, bits(3, &[0, 1]));
        assert_eq!(r.lookup(ArrayId(0), 1, 1), Lookup::Hit);
        // Single assignment means no invalidation, but the copy may have
        // been taken before an element was written: a stale-copy miss.
        assert_eq!(r.lookup(ArrayId(0), 1, 2), Lookup::Miss { cached: true });
        assert_eq!(r.lookup(ArrayId(0), 2, 0), Lookup::Miss { cached: false });
    }

    #[test]
    fn a_new_copy_of_a_page_replaces_the_old_one() {
        let mut r = Residency::default();
        r.install(ArrayId(0), 0, bits(2, &[]));
        assert_eq!(r.lookup(ArrayId(0), 0, 1), Lookup::Miss { cached: true });
        r.install(ArrayId(0), 0, bits(2, &[0, 1]));
        assert_eq!(r.lookup(ArrayId(0), 0, 1), Lookup::Hit);
        assert_eq!(r.pages.len(), 1);
    }

    #[test]
    fn pages_are_keyed_by_array_and_index() {
        let mut r = Residency::default();
        r.install(ArrayId(0), 3, bits(1, &[0]));
        r.install(ArrayId(1), 3, bits(1, &[]));
        assert_eq!(r.lookup(ArrayId(0), 3, 0), Lookup::Hit);
        assert_eq!(r.lookup(ArrayId(1), 3, 0), Lookup::Miss { cached: true });
        assert_eq!(r.lookup(ArrayId(0), 4, 0), Lookup::Miss { cached: false });
    }

    #[test]
    fn bitsets_hold_any_page_size() {
        for len in [1, 64, 256] {
            let present: Vec<usize> = (0..len).filter(|i| i % 3 == 0 || i % 64 == 63).collect();
            let b = bits(len, &present);
            assert_eq!(b.len(), len);
            for i in 0..len {
                assert_eq!(
                    b.get(i),
                    present.contains(&i),
                    "page size {len}, element {i}"
                );
            }
            assert!(!b.get(len), "past the end of a {len}-element page");
        }
        // Word boundaries: the last bit of one word and the first of the
        // next are distinct.
        let b = bits(256, &[63, 128]);
        assert!(b.get(63) && !b.get(64) && !b.get(127) && b.get(128));
        assert_eq!(Bits::new(64).words.len(), 1);
        assert_eq!(Bits::new(65).words.len(), 2);
    }
}
