//! R7 fixture: exchange payloads kept in wire form (clean). Importing
//! or defining a whole-payload codec is not a call of it; the wire-form
//! gather and fold write and read the bytes directly.
use acc_algos::transpose::{bytes_to_slab, slab_to_bytes};

pub struct Driver {
    state: Vec<f64>,
}

impl Driver {
    pub fn send(&self, ranges: &[Range<usize>], out: &mut Vec<u8>) {
        Schedule::gather_wire(ranges, &self.state, out);
    }

    pub fn recv(&mut self, recv: &RecvSpec, bytes: &[u8]) {
        Schedule::apply_recv_wire(recv, bytes, &mut self.state);
    }
}

pub fn f64s_to_bytes(v: &[f64]) -> usize {
    v.len() * 8
}
