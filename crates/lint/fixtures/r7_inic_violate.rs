//! R7 fixture: copies of INIC packet data in the codec module.
pub struct Packet {
    pub data: PayloadView,
}

impl Packet {
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    pub fn stage(&self, wire: &mut Vec<u8>, len: u16) {
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&self.data);
    }
}
