//! R8 fixture: the INIC codec's `try_encode` and `decode`, copied from
//! `crates/proto/src/inic_wire.rs` with one mutation — encode writes
//! only byte 10 of the flags field (`hdr[10..11]`), so byte 11, which
//! decode reads through its local alias `bytes` of the `frame`
//! parameter, is never written.
use acc_net::PayloadView;

use crate::check::frame_check;

pub const INIC_PAYLOAD: usize = 1024;
pub const INIC_HEADER: usize = 16;

const FLAG_FIN: u16 = 1 << 0;
const FLAG_CREDIT: u16 = 1 << 1;
const FLAG_NACK: u16 = 1 << 2;
const FLAG_ACK: u16 = 1 << 3;
const FLAG_BUSY: u16 = 1 << 4;

pub struct InicPacket {
    pub src_rank: u32,
    pub stream: u32,
    pub offset: u32,
    pub fin: bool,
    pub credit: bool,
    pub nack: bool,
    pub ack: bool,
    pub busy: bool,
    pub data: PayloadView,
}

impl InicPacket {
    pub fn try_encode(&self) -> Result<Vec<u8>, WireError> {
        if self.data.len() > INIC_PAYLOAD {
            return Err(WireError::Oversize);
        }
        let src_rank = u16::try_from(self.src_rank).map_err(|_| WireError::IdOverflow)?;
        let stream = u16::try_from(self.stream).map_err(|_| WireError::IdOverflow)?;
        let len = u16::try_from(self.data.len())
            .expect("inic payload length bounded by INIC_PAYLOAD (1024)");
        let mut flags = 0u16;
        if self.fin {
            flags |= FLAG_FIN;
        }
        if self.credit {
            flags |= FLAG_CREDIT;
        }
        if self.nack {
            flags |= FLAG_NACK;
        }
        if self.ack {
            flags |= FLAG_ACK;
        }
        if self.busy {
            flags |= FLAG_BUSY;
        }
        let mut hdr = [0u8; INIC_HEADER];
        hdr[0..2].copy_from_slice(&src_rank.to_le_bytes());
        hdr[2..4].copy_from_slice(&stream.to_le_bytes());
        hdr[4..8].copy_from_slice(&self.offset.to_le_bytes());
        hdr[8..10].copy_from_slice(&len.to_le_bytes());
        hdr[10..11].copy_from_slice(&flags.to_le_bytes()[..1]);
        let sum = frame_check(&[&hdr[0..12], &self.data]);
        hdr[12..16].copy_from_slice(&sum.to_le_bytes());
        // Appended, never zero-filled: every frame byte is written once.
        let mut out = Vec::with_capacity(INIC_HEADER + self.data.len());
        out.extend(hdr);
        // acc-lint: allow(R7, reason = "the one send-side copy: header and data become one contiguous wire frame")
        out.extend_from_slice(&self.data);
        Ok(out)
    }

    pub fn decode(frame: impl Into<PayloadView>) -> Result<InicPacket, WireError> {
        let frame = frame.into();
        let bytes = frame.as_slice();
        if bytes.len() < INIC_HEADER {
            return Err(WireError::Short);
        }
        let len = usize::from(u16::from_le_bytes(
            bytes[8..10].try_into().expect("inic len slice is 2 bytes"),
        ));
        if bytes.len() != INIC_HEADER + len {
            return Err(WireError::LengthMismatch);
        }
        let want = u32::from_le_bytes(
            bytes[12..16]
                .try_into()
                .expect("inic checksum slice is 4 bytes"),
        );
        if frame_check(&[&bytes[0..12], &bytes[INIC_HEADER..]]) != want {
            return Err(WireError::Checksum);
        }
        let flags = u16::from_le_bytes(
            bytes[10..12]
                .try_into()
                .expect("inic flags slice is 2 bytes"),
        );
        Ok(InicPacket {
            src_rank: u32::from(u16::from_le_bytes(
                bytes[0..2]
                    .try_into()
                    .expect("inic src_rank slice is 2 bytes"),
            )),
            stream: u32::from(u16::from_le_bytes(
                bytes[2..4]
                    .try_into()
                    .expect("inic stream slice is 2 bytes"),
            )),
            offset: u32::from_le_bytes(
                bytes[4..8]
                    .try_into()
                    .expect("inic offset slice is 4 bytes"),
            ),
            fin: flags & FLAG_FIN != 0,
            credit: flags & FLAG_CREDIT != 0,
            nack: flags & FLAG_NACK != 0,
            ack: flags & FLAG_ACK != 0,
            busy: flags & FLAG_BUSY != 0,
            data: frame.subview(INIC_HEADER, bytes.len()),
        })
    }
}
