//! Collection strategies (`proptest::collection::vec`).

use std::fmt::Debug;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// The strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// Generates `Vec`s of `element` values with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range {size:?}");
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
