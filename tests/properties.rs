//! Property-based tests (proptest) over the core data structures and the
//! compilation pipeline, exercised through the public APIs of the workspace
//! crates.

use pods_istructure::{ArrayHeader, ArrayId, ArrayShape, DimRange, Partitioning, PeId};
use proptest::prelude::*;

proptest! {
    /// Every element offset of any array belongs to exactly one PE segment.
    #[test]
    fn partitioning_covers_every_element_exactly_once(
        rows in 1usize..40,
        cols in 1usize..40,
        pes in 1usize..33,
        page in 1usize..64,
    ) {
        let shape = ArrayShape::matrix(rows, cols);
        let part = Partitioning::new(shape.len(), page, pes);
        for offset in 0..shape.len() {
            let owner = part.owner_of(offset);
            let holders = part
                .segments()
                .iter()
                .filter(|s| s.contains(offset))
                .count();
            prop_assert_eq!(holders, 1);
            prop_assert!(part.segment_of(owner).contains(offset));
        }
        let total: usize = part.segments().iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, shape.len());
    }

    /// The first-element-ownership rule assigns every row to exactly one PE,
    /// and the owned rows always lie inside the touched rows.
    #[test]
    fn row_ownership_is_a_partition(
        rows in 1usize..50,
        cols in 1usize..50,
        pes in 1usize..33,
    ) {
        let shape = ArrayShape::matrix(rows, cols);
        let part = Partitioning::new(shape.len(), 32, pes);
        let header = ArrayHeader::new(ArrayId(0), "t", shape, part);
        let mut counts = vec![0usize; rows];
        for pe in 0..pes {
            let owned = header.owned_rows(PeId(pe));
            if owned.is_empty() {
                continue;
            }
            let touched = header.touched_rows(PeId(pe));
            prop_assert!(touched.start <= owned.start && owned.end <= touched.end);
            for r in owned.start..=owned.end {
                counts[r as usize] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 1));
    }

    /// Row-major offsets and their inverse are consistent for any shape.
    #[test]
    fn offsets_roundtrip(
        dims in proptest::collection::vec(1usize..12, 1..4),
        seed in 0usize..1000,
    ) {
        let shape = ArrayShape::new(dims);
        let offset = seed % shape.len();
        let idx = shape.unflatten(offset).unwrap();
        let idx_i64: Vec<i64> = idx.iter().map(|&i| i as i64).collect();
        prop_assert_eq!(shape.offset_of(&idx_i64), Some(offset));
    }

    /// The per-row column responsibilities of all PEs tile each row exactly.
    #[test]
    fn per_row_column_ranges_tile_the_row(
        rows in 1usize..20,
        cols in 1usize..40,
        pes in 1usize..17,
    ) {
        let shape = ArrayShape::matrix(rows, cols);
        let part = Partitioning::new(shape.len(), 8, pes);
        let header = ArrayHeader::new(ArrayId(0), "t", shape, part);
        for row in 0..rows as i64 {
            let mut covered = vec![false; cols];
            for pe in 0..pes {
                let r = header.local_cols_in_row(PeId(pe), row);
                if r.is_empty() {
                    continue;
                }
                for c in r.start..=r.end {
                    prop_assert!(!covered[c as usize], "column covered twice");
                    covered[c as usize] = true;
                }
            }
            prop_assert!(covered.iter().all(|&c| c));
        }
    }

    /// Intersection of dimension ranges is commutative and never grows.
    #[test]
    fn dim_range_intersection_properties(
        a in -50i64..50, b in -50i64..50,
        c in -50i64..50, d in -50i64..50,
    ) {
        let r1 = DimRange::new(a.min(b), a.max(b));
        let r2 = DimRange::new(c.min(d), c.max(d));
        let i1 = r1.intersect(&r2);
        let i2 = r2.intersect(&r1);
        prop_assert_eq!(i1, i2);
        prop_assert!(i1.len() <= r1.len() && i1.len() <= r2.len());
        for x in -60..60 {
            prop_assert_eq!(i1.contains(x), r1.contains(x) && r2.contains(x));
        }
    }

    /// The lexer and parser never panic on arbitrary input strings.
    #[test]
    fn front_end_is_panic_free_on_arbitrary_input(src in "\\PC*") {
        let _ = pods_idlang::compile(&src);
    }

    /// `EngineKind` parse/display round-trips over every canonical name and
    /// alias, in any character casing, and `Display` always prints the
    /// canonical name.
    #[test]
    fn engine_kind_parse_display_roundtrip(pick in 0usize..1000, upper_mask in 0u32..256) {
        let spellings: Vec<(pods::EngineKind, &str)> = pods::EngineKind::ALL
            .into_iter()
            .flat_map(|k| k.aliases().iter().map(move |a| (k, *a)))
            .collect();
        let (kind, alias) = spellings[pick % spellings.len()];
        // Re-case the alias with an arbitrary upper/lower mask.
        let mixed: String = alias
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if upper_mask & (1 << (i % 8)) != 0 {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect();
        let parsed: pods::EngineKind = mixed.parse().unwrap();
        prop_assert_eq!(parsed, kind);
        // Display emits the canonical name, which parses back to the kind.
        let canonical = parsed.to_string();
        prop_assert_eq!(canonical.as_str(), kind.name());
        prop_assert_eq!(canonical.parse::<pods::EngineKind>().unwrap(), kind);
        // And the canonical name is the first alias.
        prop_assert_eq!(kind.aliases()[0], kind.name());
    }

    /// Compiling and simulating a generated "fill a vector with an affine
    /// function" program yields exactly the expected values on 1 and 4 PEs.
    #[test]
    fn generated_fill_programs_compute_affine_functions(
        n in 1i64..40,
        scale in -5i64..6,
        offset in -10i64..11,
    ) {
        let src = format!(
            "def main() {{ a = array({n}); for i = 0 to {n} - 1 {{ a[i] = i * {scale} + {offset}; }} return a; }}"
        );
        let program = pods::compile(&src).unwrap();
        for pes in [1usize, 4] {
            let outcome = pods::Runtime::builder(pods::EngineKind::Sim)
                .workers(pes)
                .build()
                .run(&program, &[])
                .unwrap();
            let a = outcome.returned_array().unwrap();
            prop_assert!(a.is_complete());
            for i in 0..n {
                prop_assert_eq!(
                    a.get(&[i]),
                    Some(pods::Value::Int(i * scale + offset))
                );
            }
        }
    }
}
