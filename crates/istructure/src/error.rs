//! Error type for I-structure operations.

use crate::header::ArrayId;

/// Errors reported by the I-structure memory.
///
/// The most important variant is [`IStructureError::SingleAssignment`]: the
/// paper relies on the single-assignment property both for determinism
/// (Church-Rosser, §2) and for cache coherence (§4, "a cached page will never
/// have to be sent back to the original owner"), so any violation is a
/// program error that the memory detects and reports.
#[derive(Debug, Clone, PartialEq)]
pub enum IStructureError {
    /// An element was written more than once.
    SingleAssignment {
        /// The array whose element was re-written.
        array: ArrayId,
        /// Row-major offset of the element.
        offset: usize,
    },
    /// An element offset or index was outside the array bounds.
    OutOfBounds {
        /// The array that was accessed.
        array: ArrayId,
        /// Row-major offset of the attempted access.
        offset: usize,
        /// Total number of elements in the array.
        len: usize,
    },
    /// A multi-dimensional index had the wrong number of dimensions.
    DimensionMismatch {
        /// The array that was accessed.
        array: ArrayId,
        /// Number of indices supplied by the access.
        got: usize,
        /// Number of dimensions of the array.
        expected: usize,
    },
    /// An array was declared with an empty or zero-sized shape.
    InvalidShape {
        /// The offending dimension sizes.
        dims: Vec<usize>,
    },
    /// An operation referred to an array identifier that was never allocated.
    UnknownArray {
        /// The unknown identifier.
        array: ArrayId,
    },
    /// An array identifier was allocated twice.
    DuplicateArray {
        /// The identifier that was re-used.
        array: ArrayId,
    },
}

impl std::fmt::Display for IStructureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IStructureError::SingleAssignment { array, offset } => write!(
                f,
                "single-assignment violation: array#{} element {} written twice",
                array.index(),
                offset
            ),
            IStructureError::OutOfBounds { array, offset, len } => write!(
                f,
                "offset {} out of bounds for array#{} of {} elements",
                offset,
                array.index(),
                len
            ),
            IStructureError::DimensionMismatch {
                array,
                got,
                expected,
            } => write!(
                f,
                "array#{} indexed with {} indices but has {} dimensions",
                array.index(),
                got,
                expected
            ),
            IStructureError::InvalidShape { dims } => {
                write!(f, "invalid array shape {dims:?}")
            }
            IStructureError::UnknownArray { array } => {
                write!(f, "unknown array identifier array#{}", array.index())
            }
            IStructureError::DuplicateArray { array } => {
                write!(
                    f,
                    "array identifier array#{} allocated twice",
                    array.index()
                )
            }
        }
    }
}

impl std::error::Error for IStructureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = IStructureError::SingleAssignment {
            array: ArrayId::from(2usize),
            offset: 9,
        };
        let text = e.to_string();
        assert!(text.contains("single-assignment"));
        assert!(text.contains('9'));

        let e = IStructureError::UnknownArray {
            array: ArrayId::from(4usize),
        };
        assert_eq!(e.to_string(), "unknown array identifier array#4");
    }
}
