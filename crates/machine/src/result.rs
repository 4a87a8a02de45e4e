//! Results returned by a simulation run.

use crate::stats::SimulationStats;
use pods_idlang::Name;
use pods_istructure::{ArrayHeader, ArrayId, ArrayShape, Value};

/// The final contents of one I-structure array, gathered from the owning
/// segments of all PEs after the simulation finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySnapshot {
    /// The array identifier.
    pub id: ArrayId,
    /// The source-level name the array was allocated under. A [`Name`]
    /// shares the allocating instruction's string, so a snapshot copies no
    /// text; it derefs to `str` and compares with `&str`, and
    /// [`Name::as_str`] gives the text.
    pub name: Name,
    /// The array shape.
    pub shape: ArrayShape,
    /// Element values in row-major order; `None` for elements never written.
    pub values: Vec<Option<Value>>,
}

impl ArraySnapshot {
    /// The snapshot of an array with the given header and values; the name
    /// is the header's shared string, not a copy of it.
    pub fn from_header(header: &ArrayHeader, values: Vec<Option<Value>>) -> Self {
        ArraySnapshot {
            id: header.id(),
            name: Name::from(std::sync::Arc::clone(header.shared_name())),
            shape: header.shape().clone(),
            values,
        }
    }

    /// Number of elements that were written.
    pub fn written(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Returns `true` when every element was written.
    pub fn is_complete(&self) -> bool {
        self.written() == self.values.len()
    }

    /// The element at a multi-dimensional (zero-based) index.
    pub fn get(&self, indices: &[i64]) -> Option<Value> {
        let offset = self.shape.offset_of(indices)?;
        self.values.get(offset).copied().flatten()
    }

    /// The whole array as `f64`s, with `default` substituted for unwritten
    /// elements.
    pub fn to_f64(&self, default: f64) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| v.and_then(|v| v.as_f64()).unwrap_or(default))
            .collect()
    }
}

/// The outcome of a successful simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// The value returned by the entry SP (`main`), if it returned one.
    pub return_value: Option<Value>,
    /// Final contents of every allocated array, in allocation order.
    pub arrays: Vec<ArraySnapshot>,
    /// Simulation statistics (per-unit busy times, counters, elapsed time).
    pub stats: SimulationStats,
}

impl SimulationResult {
    /// Elapsed simulated time in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        self.stats.elapsed_us
    }

    /// The last-allocated array with the given source-level name.
    pub fn array(&self, name: &str) -> Option<&ArraySnapshot> {
        self.arrays.iter().rev().find(|a| a.name == name)
    }

    /// The array referenced by the entry SP's return value, if it returned
    /// an array reference.
    pub fn returned_array(&self) -> Option<&ArraySnapshot> {
        match self.return_value {
            Some(Value::ArrayRef(id)) => self.arrays.iter().find(|a| a.id == id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ArraySnapshot {
        ArraySnapshot {
            id: ArrayId(0),
            name: "a".into(),
            shape: ArrayShape::matrix(2, 2),
            values: vec![
                Some(Value::Int(1)),
                Some(Value::Float(2.5)),
                None,
                Some(Value::Int(4)),
            ],
        }
    }

    #[test]
    fn snapshot_accessors() {
        let s = snapshot();
        assert_eq!(s.written(), 3);
        assert!(!s.is_complete());
        assert_eq!(s.get(&[0, 1]), Some(Value::Float(2.5)));
        assert_eq!(s.get(&[1, 0]), None);
        assert_eq!(s.get(&[5, 5]), None);
        assert_eq!(s.to_f64(-1.0), vec![1.0, 2.5, -1.0, 4.0]);
    }

    #[test]
    fn result_lookup_by_name_and_return_value() {
        let result = SimulationResult {
            return_value: Some(Value::ArrayRef(ArrayId(0))),
            arrays: vec![snapshot()],
            stats: SimulationStats::new(1),
        };
        assert!(result.array("a").is_some());
        assert!(result.array("b").is_none());
        assert_eq!(result.returned_array().unwrap().id, ArrayId(0));
        assert_eq!(result.elapsed_us(), 0.0);
    }
}
