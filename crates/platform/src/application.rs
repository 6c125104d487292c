//! Application specification.

use serde::{Deserialize, Serialize};

/// Static description of the tightly-coupled iterative application.
///
/// Each iteration executes `tasks_per_iteration` identical, communicating
/// tasks and ends with a global synchronization. The application completes
/// after `iterations` successful iterations (the paper's evaluation fixes this
/// to 10 and measures the makespan, which is equivalent to maximizing the
/// number of iterations before a deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApplicationSpec {
    /// `m`: number of tasks per iteration.
    pub tasks_per_iteration: usize,
    /// Number of iterations to complete.
    pub iterations: u64,
}

impl ApplicationSpec {
    /// Create an application with `m` tasks per iteration and `iterations`
    /// iterations to complete.
    pub fn new(tasks_per_iteration: usize, iterations: u64) -> Self {
        assert!(tasks_per_iteration > 0, "an iteration must contain at least one task");
        assert!(iterations > 0, "the application must run at least one iteration");
        ApplicationSpec { tasks_per_iteration, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let a = ApplicationSpec::new(5, 10);
        assert_eq!(a.tasks_per_iteration, 5);
        assert_eq!(a.iterations, 10);
    }

    #[test]
    #[should_panic]
    fn zero_tasks_rejected() {
        let _ = ApplicationSpec::new(0, 10);
    }

    #[test]
    #[should_panic]
    fn zero_iterations_rejected() {
        let _ = ApplicationSpec::new(5, 0);
    }
}
