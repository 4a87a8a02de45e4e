//! Interned identifiers.
//!
//! A [`Name`] is a shared, immutable identifier: cloning one bumps a
//! reference count instead of copying text, so the AST, the HIR and every
//! stage downstream of them (loop keys, SP templates, the partitioner's
//! copies) hold pointers to the same few strings. The lexer interns each
//! distinct identifier of a source text once.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A shared identifier. It compares, orders, hashes, prints and debugs
/// exactly as the `str` it holds, so a `HashMap<Name, _>` can be queried
/// with a `&str` and a hash over names equals the hash over the same
/// strings.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// A new name holding a copy of `text` (one allocation).
    pub fn new(text: &str) -> Self {
        Name(Arc::from(text))
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared string behind the name; cloning it allocates nothing.
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name(Arc::from(text))
    }
}

/// Takes over a shared string without copying it (no allocation).
impl From<Arc<str>> for Name {
    fn from(text: Arc<str>) -> Self {
        Name(text)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

/// Hands out one shared [`Name`] per distinct text: the first request for a
/// text allocates it, every later one clones the pointer.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    names: HashSet<Name>,
}

impl Interner {
    /// The shared name for `text`.
    pub(crate) fn intern(&mut self, text: &str) -> Name {
        if let Some(name) = self.names.get(text) {
            return name.clone();
        }
        let name = Name::new(text);
        self.names.insert(name.clone());
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashes_as_str_and_string() {
        for text in ["", "a", "main.loop0.i", "%t17"] {
            let name = Name::from(text);
            assert_eq!(hash_of(&name), hash_of(text));
            assert_eq!(hash_of(&name), hash_of(&text.to_string()));
        }
        let names = vec![Name::from("a"), Name::from("bc")];
        let strings = vec!["a".to_string(), "bc".to_string()];
        assert_eq!(hash_of(&names), hash_of(&strings));
    }

    #[test]
    fn map_lookups_by_str() {
        let mut map: HashMap<Name, usize> = HashMap::new();
        map.insert(Name::from("main"), 1);
        map.insert(Name::from("probe"), 2);
        assert_eq!(map.get("main"), Some(&1));
        assert_eq!(map["probe"], 2);
        assert!(!map.contains_key("other"));
    }

    #[test]
    fn compares_and_prints_as_str() {
        let name = Name::from("x_1");
        assert_eq!(name, "x_1");
        assert_eq!(name, *"x_1");
        assert_eq!(name, "x_1".to_string());
        assert_eq!("x_1", name);
        assert!(name.starts_with("x_"));
        assert_eq!(format!("{name}"), "x_1");
        assert_eq!(format!("{name:?}"), format!("{:?}", "x_1"));
        let (a, b) = (Name::from("a"), Name::from("b"));
        assert!(a < b);
    }

    #[test]
    fn interner_shares_one_allocation_per_distinct_text() {
        let mut names = Interner::default();
        let a = names.intern("alpha");
        let b = names.intern("alpha");
        let c = names.intern("beta");
        assert!(Arc::ptr_eq(a.as_arc(), b.as_arc()));
        assert!(!Arc::ptr_eq(a.as_arc(), c.as_arc()));
        assert_eq!(Arc::strong_count(a.as_arc()), 3, "the interner holds one");
    }

    #[test]
    fn a_name_from_a_shared_string_shares_it() {
        let text: Arc<str> = Arc::from("grid");
        let name = Name::from(Arc::clone(&text));
        assert!(Arc::ptr_eq(name.as_arc(), &text));
        assert_eq!(name, "grid");
    }
}
