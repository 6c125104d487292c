//! Master (server) communication specification.
//!
//! The master serves the application program and per-task input data to the
//! workers under the *bounded multi-port* model: each individual transfer
//! proceeds at the per-worker link rate `bw`, and at most
//! `ncom = ⌊BW / bw⌋` transfers may be in flight simultaneously, where `BW`
//! is the master's own network capacity.

use serde::{Deserialize, Serialize};

/// Static description of the master's communication capacity, in time-slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MasterSpec {
    /// Maximum number of simultaneous transfers (`ncom = ⌊BW/bw⌋`).
    pub ncom: usize,
    /// Time-slots needed to send the application program to one worker
    /// (`Tprog = Vprog / bw`).
    pub t_prog: u64,
    /// Time-slots needed to send the input data of one task to one worker
    /// (`Tdata = Vdata / bw`).
    pub t_data: u64,
}

impl MasterSpec {
    /// Build a master description directly from slot counts.
    pub fn from_slots(ncom: usize, t_prog: u64, t_data: u64) -> Self {
        assert!(ncom > 0, "the master must support at least one concurrent transfer");
        MasterSpec { ncom, t_prog, t_data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slots_basic() {
        let m = MasterSpec::from_slots(2, 2, 1);
        assert_eq!(m.ncom, 2);
        assert_eq!(m.t_prog, 2);
        assert_eq!(m.t_data, 1);
    }

    #[test]
    #[should_panic]
    fn zero_ncom_rejected() {
        let _ = MasterSpec::from_slots(0, 1, 1);
    }
}
