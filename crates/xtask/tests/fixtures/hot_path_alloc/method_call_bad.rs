//! Hot-path-alloc fixture: a method call still resolves to a
//! crate-local function that takes `self`, so a hot `self.helper()`
//! whose `helper(&self)` allocates is denied.

pub struct Kernel {
    xs: Vec<f64>,
}

impl Kernel {
    // pinocchio-hot: fixture kernel delegating to an allocating method
    pub fn hot_total(&self) -> f64 {
        self.helper().iter().sum()
    }

    fn helper(&self) -> Vec<f64> {
        self.xs.iter().map(|x| x * 2.0).collect()
    }
}
