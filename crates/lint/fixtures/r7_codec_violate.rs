//! R7 fixture: whole-payload re-encodes in an exchange driver.
use acc_algos::transpose::{bytes_to_slab, slab_to_bytes};

pub struct Driver {
    state: Vec<f64>,
    slab: Matrix,
}

impl Driver {
    pub fn send(&self) -> (Vec<u8>, Vec<u8>) {
        (f64s_to_bytes(&self.state), slab_to_bytes(&self.slab))
    }

    pub fn recv(&mut self, bytes: &[u8], m: usize) {
        self.state = bytes_to_f64s(bytes);
        self.slab = bytes_to_slab(bytes, m, m);
    }
}
