//! # Static collective-schedule verifier
//!
//! Proves, for a set of per-rank lockstep schedules and **without
//! running the simulation engine**, the four properties the thousand-
//! rank topologies (ROADMAP item 1) need before "simulate it to find
//! out" becomes untenable:
//!
//! 1. **Deadlock-freedom** (`V1`) — every send has exactly one matching
//!    recv in the same round with the same element count, and vice
//!    versa. Because the schedule IR executes rounds in a fixed total
//!    order and all matching is *within* a round, the communication
//!    dependence graph is layered by round index: an edge can only
//!    point from round *t* to round *t* (send→recv) or *t* to *t+1*
//!    (program order), so checked pairing + the total round order is a
//!    proof that the graph is acyclic and every rank terminates after
//!    `rounds` steps. The critical path is therefore exactly the round
//!    count — no graph search required.
//! 2. **Conservation** (`V2`) — each rank's contribution is folded
//!    exactly once into every result. The verifier executes the
//!    schedules *abstractly* over the field Z mod (2^61 − 1) with
//!    deterministic pseudo-random probe values and compares every
//!    rank's output against a modular mirror of [`plan::oracle`]. A
//!    dropped, duplicated or misrouted contribution perturbs a sum by a
//!    nonzero field element, so a collision (a wrong schedule passing)
//!    requires the probe values to hit a root of the error polynomial —
//!    a Schwartz–Zippel-style certificate, exact over integers and free
//!    of f64 rounding concerns.
//! 3. **Tag uniqueness across failover re-plans** (`V3`) — the
//!    cluster's drivers namespace streams and channels with
//!    [`exchange_tag`]: `epoch * (rounds + 1) + round` as a `u16`
//!    channel id. The verifier enumerates the tag space through that
//!    same function and reports the number of failover epochs a
//!    schedule can absorb before the channel id saturates; fewer than
//!    one spare epoch is a violation.
//! 4. **CLB-budget admissibility** (`V4`) — the combined-path offload
//!    plan is re-derived per device (prototype XC4085XLA and the
//!    projected Virtex) and the protocol-only plan must always fit.
//!    Combined-path over-budget cells are *recorded* (that is the
//!    structured pre-flight rejection the cluster layer reproduces at
//!    run time), not flagged: only a protocol-only rejection is a
//!    verifier violation, because no technology can then run the cell.
//!
//! Malformed per-rank IR (out-of-bounds ranges, self-sends, bad peer
//! indices) is reported as `V5` before any other analysis.
//!
//! ## Memory-bounded depth
//!
//! [`verify_cell`] streams one rank's schedule at a time: build, check
//! structurally, compress into a flat `Compact` image, drop the
//! builder output. When the projected footprint of holding every
//! rank's compact image plus the modular state exceeds the budget
//! (`ACC_VERIFY_MEM_MB`, default 512 MiB), the cell downgrades to
//! **structural** depth: pairing is still checked per round via
//! order-independent multiset fingerprints (two independent 64-bit
//! mixes per leg set), but conservation is skipped. The downgrade is
//! never silent — it is recorded in the [`CellProof`] and surfaced by
//! `acc-verify`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use acc_fpga::{FpgaDevice, InicMode};

use crate::plan::{self, ranges_elems, Schedule};
use crate::recovery::exchange_tag;
use crate::{offload, Algorithm, CollectiveOp};

/// The Mersenne prime 2^61 − 1 the conservation pass computes over.
pub const FIELD_P: u64 = (1 << 61) - 1;

/// Default memory budget for a single cell's full-depth verification.
pub const DEFAULT_MEM_BUDGET: usize = 512 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One verifier finding, rendered rustc-style like acc-lint's
/// diagnostics (`error[Vn]: ...` + `  --> location`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable code: `V1` pairing/deadlock, `V2` conservation, `V3`
    /// tag namespace, `V4` CLB admissibility, `V5` malformed IR.
    pub code: &'static str,
    /// Where: a cell/round/rank locator, not a file path.
    pub at: String,
    /// What went wrong and what it breaks.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}",
            self.code, self.message, self.at
        )
    }
}

fn violation(code: &'static str, at: String, message: String) -> Violation {
    Violation { code, at, message }
}

/// Proof summary for one structural pass over a schedule set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureProof {
    /// Lockstep rounds all ranks agree on.
    pub rounds: usize,
    /// Total send + recv legs across all ranks and rounds.
    pub total_legs: u64,
    /// Length of the longest dependence chain. Equal to `rounds` by
    /// the layering theorem in the module docs.
    pub critical_path_rounds: usize,
}

/// How deep a cell's verification went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Structural + conservation (modular execution vs oracle).
    Full,
    /// Structural fingerprints only: the cell's projected footprint
    /// exceeded the memory budget, so conservation was skipped.
    Structural,
}

impl Depth {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Depth::Full => "full",
            Depth::Structural => "structural",
        }
    }
}

/// One device/mode admissibility probe of the offload plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadCheck {
    /// Device label (`xc4085xla`, `virtex_next_gen`).
    pub device: &'static str,
    /// INIC mode label (`combined`, `protocol`).
    pub mode: &'static str,
    /// Whether the probed schedule folds data on arrival.
    pub needs_reduce: bool,
    /// Whether the bitstream fits the device's CLB pool.
    pub admissible: bool,
    /// CLBs the bitstream needs.
    pub required: u32,
    /// CLBs the device has.
    pub available: u32,
}

/// Everything [`verify_cell`] proved about one algorithm × op × p cell.
#[derive(Debug, Clone)]
pub struct CellProof {
    pub op: CollectiveOp,
    pub algo: Algorithm,
    pub p: usize,
    pub elems: usize,
    /// Lockstep round count (= the critical path, see module docs).
    pub rounds: usize,
    /// Total send + recv legs across all ranks.
    pub total_legs: u64,
    /// Depth actually achieved under the memory budget.
    pub depth: Depth,
    /// Whether the modular-execution conservation check ran and passed.
    pub conservation_checked: bool,
    /// Failover epochs the `u16` channel-id namespace can absorb.
    pub max_failover_epochs: u64,
    /// Per device/mode CLB admissibility results.
    pub offload: Vec<OffloadCheck>,
}

// ---------------------------------------------------------------------------
// Modular arithmetic + probe values
// ---------------------------------------------------------------------------

fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow in u64
    if s >= FIELD_P {
        s - FIELD_P
    } else {
        s
    }
}

/// splitmix64 finalizer: the bit mixer behind the probe values and the
/// structural fingerprints.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Deterministic probe value for element `i` of rank `rank`'s input.
fn probe(rank: usize, i: usize) -> u64 {
    mix64((rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64)) % FIELD_P
}

fn probe_inputs(p: usize, elems: usize) -> Vec<Vec<u64>> {
    (0..p)
        .map(|r| (0..elems).map(|i| probe(r, i)).collect())
        .collect()
}

/// Modular mirror of [`plan::oracle`]: first-principles outputs over
/// Z mod (2^61 − 1), sharing no code with the schedule builders.
fn mod_oracle(op: CollectiveOp, p: usize, inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let elems = inputs.first().map_or(0, Vec::len);
    let sum = |inputs: &[Vec<u64>]| -> Vec<u64> {
        let mut acc = vec![0u64; elems];
        for v in inputs {
            for (dst, &x) in acc.iter_mut().zip(v) {
                *dst = add_mod(*dst, x);
            }
        }
        acc
    };
    match op {
        CollectiveOp::AllReduce => vec![sum(inputs); p],
        CollectiveOp::ReduceScatter => {
            let s = sum(inputs);
            let bounds = plan::seg_bounds(elems, p);
            (0..p)
                .map(|r| s[bounds[r]..bounds[r + 1]].to_vec())
                .collect()
        }
        CollectiveOp::AllGather => {
            let all: Vec<u64> = inputs.iter().flatten().copied().collect();
            vec![all; p]
        }
        CollectiveOp::Broadcast => vec![inputs[0].clone(); p],
        CollectiveOp::Barrier => vec![Vec::new(); p],
        CollectiveOp::AllToAll => {
            let bounds = plan::seg_bounds(elems, p);
            (0..p)
                .map(|r| {
                    (0..p)
                        .flat_map(|src| inputs[src][bounds[r]..bounds[r + 1]].iter().copied())
                        .collect()
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Compact schedule image
// ---------------------------------------------------------------------------

const NO_INPUT: u32 = u32::MAX;

/// A rank's schedule flattened into struct-of-vectors form: ~45 bytes
/// per round-leg instead of the builder IR's nested `Vec`s, so a whole
/// p=1024 ring cell fits comfortably in the memory budget.
struct Compact {
    state_len: u32,
    input_at: u32,
    output: Range<u32>,
    /// `rounds + 1` offsets into `copies` / `sends` / `recvs`.
    round_copy_off: Vec<u32>,
    round_send_off: Vec<u32>,
    round_recv_off: Vec<u32>,
    /// `(src_lo, src_hi, dst)` per copy.
    copies: Vec<(u32, u32, u32)>,
    send_to: Vec<u32>,
    /// `sends + 1` offsets into `send_rngs`.
    send_rng_off: Vec<u32>,
    send_rngs: Vec<(u32, u32)>,
    recv_from: Vec<u32>,
    /// 0 = Sum, 1 = Copy, 2 = Discard.
    recv_op: Vec<u8>,
    /// `recvs + 1` offsets into `recv_rngs`.
    recv_rng_off: Vec<u32>,
    recv_rngs: Vec<(u32, u32)>,
}

impl Compact {
    fn from_schedule(s: &Schedule) -> Compact {
        let mut c = Compact {
            state_len: s.state_len as u32,
            input_at: s.input_at.map_or(NO_INPUT, |a| a as u32),
            output: s.output.start as u32..s.output.end as u32,
            round_copy_off: Vec::with_capacity(s.rounds.len() + 1),
            round_send_off: Vec::with_capacity(s.rounds.len() + 1),
            round_recv_off: Vec::with_capacity(s.rounds.len() + 1),
            copies: Vec::new(),
            send_to: Vec::new(),
            send_rng_off: vec![0],
            send_rngs: Vec::new(),
            recv_from: Vec::new(),
            recv_op: Vec::new(),
            recv_rng_off: vec![0],
            recv_rngs: Vec::new(),
        };
        for round in &s.rounds {
            c.round_copy_off.push(c.copies.len() as u32);
            c.round_send_off.push(c.send_to.len() as u32);
            c.round_recv_off.push(c.recv_from.len() as u32);
            for cp in &round.copies {
                c.copies
                    .push((cp.src.start as u32, cp.src.end as u32, cp.dst as u32));
            }
            for send in &round.sends {
                c.send_to.push(send.to as u32);
                for r in &send.ranges {
                    c.send_rngs.push((r.start as u32, r.end as u32));
                }
                c.send_rng_off.push(c.send_rngs.len() as u32);
            }
            for recv in &round.recvs {
                c.recv_from.push(recv.from as u32);
                c.recv_op.push(match recv.op {
                    plan::RecvOp::Sum => 0,
                    plan::RecvOp::Copy => 1,
                    plan::RecvOp::Discard => 2,
                });
                for r in &recv.ranges {
                    c.recv_rngs.push((r.start as u32, r.end as u32));
                }
                c.recv_rng_off.push(c.recv_rngs.len() as u32);
            }
        }
        c.round_copy_off.push(c.copies.len() as u32);
        c.round_send_off.push(c.send_to.len() as u32);
        c.round_recv_off.push(c.recv_from.len() as u32);
        c
    }

    fn rounds(&self) -> usize {
        self.round_send_off.len() - 1
    }

    /// Heap footprint, for the budget projection.
    fn bytes(&self) -> usize {
        4 * (self.round_copy_off.len() + self.round_send_off.len() + self.round_recv_off.len())
            + 12 * self.copies.len()
            + 4 * (self.send_to.len() + self.send_rng_off.len())
            + 8 * self.send_rngs.len()
            + 4 * (self.recv_from.len() + self.recv_rng_off.len())
            + self.recv_op.len()
            + 8 * self.recv_rngs.len()
    }
}

/// Execute compact schedules in lockstep over Z mod (2^61 − 1).
///
/// Mirrors `plan::run_lockstep` exactly — snapshot copies, gather in
/// range order, fold per recv op — but returns pairing failures as
/// [`Violation`]s instead of panicking, so a broken schedule yields a
/// diagnostic, not an abort.
fn mod_lockstep(
    compacts: &[Compact],
    inputs: &[Vec<u64>],
) -> Result<Vec<Vec<u64>>, Vec<Violation>> {
    let rounds = compacts.first().map_or(0, Compact::rounds);
    let mut states: Vec<Vec<u64>> = compacts
        .iter()
        .zip(inputs)
        .map(|(c, input)| {
            let mut st = vec![0u64; c.state_len as usize];
            if c.input_at != NO_INPUT {
                let at = c.input_at as usize;
                st[at..at + input.len()].copy_from_slice(input);
            }
            st
        })
        .collect();
    let mut violations = Vec::new();
    for t in 0..rounds {
        // Local copies, snapshot semantics.
        for (c, state) in compacts.iter().zip(states.iter_mut()) {
            let (lo, hi) = (
                c.round_copy_off[t] as usize,
                c.round_copy_off[t + 1] as usize,
            );
            if lo == hi {
                continue;
            }
            let snapshot = state.clone();
            for &(src_lo, src_hi, dst) in &c.copies[lo..hi] {
                let n = (src_hi - src_lo) as usize;
                state[dst as usize..dst as usize + n]
                    .copy_from_slice(&snapshot[src_lo as usize..src_hi as usize]);
            }
        }
        // Gather every send into the round mailbox.
        let mut mailbox: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for (from, c) in compacts.iter().enumerate() {
            for s in c.round_send_off[t] as usize..c.round_send_off[t + 1] as usize {
                let to = c.send_to[s];
                let mut payload = Vec::new();
                for &(lo, hi) in
                    &c.send_rngs[c.send_rng_off[s] as usize..c.send_rng_off[s + 1] as usize]
                {
                    payload.extend_from_slice(&states[from][lo as usize..hi as usize]);
                }
                if mailbox.insert((from as u32, to), payload).is_some() {
                    violations.push(violation(
                        "V1",
                        format!("round {t}, rank {from}"),
                        format!("duplicate send {from}->{to} in one round"),
                    ));
                }
            }
        }
        // Deliver every expected recv.
        for (to, c) in compacts.iter().enumerate() {
            for r in c.round_recv_off[t] as usize..c.round_recv_off[t + 1] as usize {
                let from = c.recv_from[r];
                let Some(payload) = mailbox.remove(&(from, to as u32)) else {
                    violations.push(violation(
                        "V1",
                        format!("round {t}, rank {to}"),
                        format!(
                            "rank {to} blocks on a message from rank {from} that is \
                             never sent this round (deadlock)"
                        ),
                    ));
                    continue;
                };
                let rngs = &c.recv_rngs[c.recv_rng_off[r] as usize..c.recv_rng_off[r + 1] as usize];
                let want: usize = rngs.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
                if payload.len() != want {
                    violations.push(violation(
                        "V1",
                        format!("round {t}, rank {to}"),
                        format!(
                            "message {from}->{to} carries {} element(s) but the recv \
                             maps {want} (mis-sized leg)",
                            payload.len()
                        ),
                    ));
                    continue;
                }
                let state = &mut states[to];
                let mut at = 0usize;
                for &(lo, hi) in rngs {
                    let n = (hi - lo) as usize;
                    let chunk = &payload[at..at + n];
                    match c.recv_op[r] {
                        0 => {
                            for (dst, &add) in state[lo as usize..hi as usize].iter_mut().zip(chunk)
                            {
                                *dst = add_mod(*dst, add);
                            }
                        }
                        1 => state[lo as usize..hi as usize].copy_from_slice(chunk),
                        _ => {}
                    }
                    at += n;
                }
            }
        }
        for ((from, to), _) in mailbox {
            violations.push(violation(
                "V1",
                format!("round {t}, rank {from}"),
                format!("message {from}->{to} is sent but rank {to} never receives it"),
            ));
        }
        if !violations.is_empty() {
            return Err(violations);
        }
    }
    Ok(states
        .iter()
        .zip(compacts)
        .map(|(st, c)| st[c.output.start as usize..c.output.end as usize].to_vec())
        .collect())
}

// ---------------------------------------------------------------------------
// Structural checks over the builder IR
// ---------------------------------------------------------------------------

/// Per-rank IR legality (`V5`): every range inside the state, every
/// peer index inside the cluster, no self-messaging.
fn rank_legality(rank: usize, s: &Schedule, p: usize, out: &mut Vec<Violation>) {
    let n = s.state_len;
    let mut bad = |at: String, msg: String| out.push(violation("V5", at, msg));
    if s.output.start > s.output.end || s.output.end > n {
        bad(
            format!("rank {rank}"),
            format!("output range {:?} escapes the {n}-element state", s.output),
        );
    }
    if let Some(at) = s.input_at {
        if at > n {
            bad(
                format!("rank {rank}"),
                format!("input lands at {at}, past the {n}-element state"),
            );
        }
    }
    for (t, round) in s.rounds.iter().enumerate() {
        for c in &round.copies {
            if c.src.start > c.src.end || c.src.end > n || c.dst + c.src.len() > n {
                bad(
                    format!("round {t}, rank {rank}"),
                    format!(
                        "copy {:?} -> {} escapes the {n}-element state",
                        c.src, c.dst
                    ),
                );
            }
        }
        for send in &round.sends {
            if send.to >= p || send.to == rank {
                bad(
                    format!("round {t}, rank {rank}"),
                    format!("send targets rank {} (p={p}, self={rank})", send.to),
                );
            }
            for r in &send.ranges {
                if r.start > r.end || r.end > n {
                    bad(
                        format!("round {t}, rank {rank}"),
                        format!("send range {r:?} escapes the {n}-element state"),
                    );
                }
            }
        }
        for recv in &round.recvs {
            if recv.from >= p || recv.from == rank {
                bad(
                    format!("round {t}, rank {rank}"),
                    format!("recv names source rank {} (p={p}, self={rank})", recv.from),
                );
            }
            for r in &recv.ranges {
                if r.start > r.end || r.end > n {
                    bad(
                        format!("round {t}, rank {rank}"),
                        format!("recv range {r:?} escapes the {n}-element state"),
                    );
                }
            }
        }
    }
}

/// Statically prove leg pairing and round-DAG acyclicity for a full
/// schedule set (exact, diagnostic-precise form — used by the debug
/// plan-time hook and the mutation tests).
///
/// # Errors
/// Every pairing defect (`V1`) and IR illegality (`V5`) found, with
/// round/rank locations.
pub fn verify_schedules(schedules: &[Schedule]) -> Result<StructureProof, Vec<Violation>> {
    let p = schedules.len();
    let mut violations = Vec::new();
    let rounds = schedules.first().map_or(0, |s| s.rounds.len());
    for (rank, s) in schedules.iter().enumerate() {
        if s.rounds.len() != rounds {
            violations.push(violation(
                "V5",
                format!("rank {rank}"),
                format!(
                    "rank {rank} has {} round(s) but rank 0 has {rounds}: lockstep \
                     schedules must agree on the round count",
                    s.rounds.len()
                ),
            ));
        }
        rank_legality(rank, s, p, &mut violations);
    }
    if !violations.is_empty() {
        return Err(violations);
    }
    let mut total_legs = 0u64;
    for t in 0..rounds {
        let mut sends: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut recvs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (rank, s) in schedules.iter().enumerate() {
            let round = &s.rounds[t];
            total_legs += (round.sends.len() + round.recvs.len()) as u64;
            for send in &round.sends {
                if sends
                    .insert((rank, send.to), ranges_elems(&send.ranges))
                    .is_some()
                {
                    violations.push(violation(
                        "V1",
                        format!("round {t}, rank {rank}"),
                        format!("duplicate send {rank}->{} in one round", send.to),
                    ));
                }
            }
            for recv in &round.recvs {
                if recvs
                    .insert((recv.from, rank), ranges_elems(&recv.ranges))
                    .is_some()
                {
                    violations.push(violation(
                        "V1",
                        format!("round {t}, rank {rank}"),
                        format!("duplicate recv {}->{rank} in one round", recv.from),
                    ));
                }
            }
        }
        let keys: BTreeSet<(usize, usize)> = sends.keys().chain(recvs.keys()).copied().collect();
        for (from, to) in keys {
            match (sends.get(&(from, to)), recvs.get(&(from, to))) {
                (Some(s), Some(r)) if s != r => violations.push(violation(
                    "V1",
                    format!("round {t}, rank {to}"),
                    format!(
                        "message {from}->{to} carries {s} element(s) but the recv maps {r} \
                         (mis-sized leg)"
                    ),
                )),
                (Some(_), None) => violations.push(violation(
                    "V1",
                    format!("round {t}, rank {from}"),
                    format!("message {from}->{to} is sent but rank {to} never receives it"),
                )),
                (None, Some(_)) => violations.push(violation(
                    "V1",
                    format!("round {t}, rank {to}"),
                    format!(
                        "rank {to} blocks on a message from rank {from} that is never \
                         sent this round (deadlock)"
                    ),
                )),
                _ => {}
            }
        }
    }
    if violations.is_empty() {
        Ok(StructureProof {
            rounds,
            total_legs,
            critical_path_rounds: rounds,
        })
    } else {
        Err(violations)
    }
}

/// Prove reduce-contribution conservation for a schedule set by
/// modular abstract execution against the modular oracle (see module
/// docs). `elems` is the per-rank input length the schedules were
/// built for.
///
/// # Errors
/// Pairing failures surfaced during execution (`V1`), malformed IR
/// (`V5`), and per-rank output mismatches against the oracle (`V2`).
pub fn verify_conservation(
    op: CollectiveOp,
    elems: usize,
    schedules: &[Schedule],
) -> Result<(), Vec<Violation>> {
    let p = schedules.len();
    let mut violations = Vec::new();
    for (rank, s) in schedules.iter().enumerate() {
        rank_legality(rank, s, p, &mut violations);
        if let Some(at) = s.input_at {
            if at + elems > s.state_len {
                violations.push(violation(
                    "V5",
                    format!("rank {rank}"),
                    format!(
                        "input of {elems} element(s) at {at} escapes the {}-element state",
                        s.state_len
                    ),
                ));
            }
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }
    let compacts: Vec<Compact> = schedules.iter().map(Compact::from_schedule).collect();
    let inputs = probe_inputs(p, elems);
    let outputs = mod_lockstep(&compacts, &inputs)?;
    let expect = mod_oracle(op, p, &inputs);
    for (rank, (got, want)) in outputs.iter().zip(&expect).enumerate() {
        if got.len() != want.len() {
            violations.push(violation(
                "V2",
                format!("rank {rank}"),
                format!(
                    "rank {rank} produces {} element(s), the {op} contract says {}",
                    got.len(),
                    want.len()
                ),
            ));
            continue;
        }
        if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
            violations.push(violation(
                "V2",
                format!("rank {rank}, element {i}"),
                format!(
                    "rank {rank} element {i} diverges from the {op} oracle under modular \
                     probes: some contribution is dropped, duplicated or misrouted"
                ),
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

// ---------------------------------------------------------------------------
// Tag namespace + offload admissibility
// ---------------------------------------------------------------------------

/// The drivers' channel-id namespace, [`exchange_tag`] with one
/// exchange per round. Returns the number of failover epochs the
/// namespace absorbs, or a `V3` violation when even one re-plan would
/// collide or overflow.
fn check_tags(rounds: usize, at: &str, violations: &mut Vec<Violation>) -> u64 {
    let span = rounds as u64 + 1;
    // Largest epoch whose highest round tag still fits below u16::MAX
    // (`exchange_tag` asserts `tag < u16::MAX`).
    let max_epoch = (u64::from(u16::MAX) - 1)
        .checked_sub(rounds as u64)
        .map_or(0, |room| room / span);
    if max_epoch < 1 {
        violations.push(violation(
            "V3",
            at.to_string(),
            format!(
                "{rounds} round(s) leave no headroom in the u16 channel-id namespace for \
                 even one failover epoch: a card failure would alias pre-failure streams"
            ),
        ));
        return max_epoch;
    }
    // Belt and braces: enumerate the first few epochs through the
    // drivers' own tag function and prove the tag sets pairwise disjoint.
    let enumerate = max_epoch.min(4);
    let mut seen: BTreeSet<u16> = BTreeSet::new();
    for epoch in 0..=enumerate {
        for round in 0..rounds {
            let tag = exchange_tag(epoch, rounds, round);
            if !seen.insert(tag) {
                violations.push(violation(
                    "V3",
                    at.to_string(),
                    format!("epoch {epoch} round {round} tag {tag} collides with another epoch's"),
                ));
            }
        }
    }
    max_epoch
}

/// Probe one schedule's offload plan against every device/mode the
/// cluster layer can configure. Protocol-only must always fit (`V4`);
/// combined-path rejections are recorded as inadmissible — that is the
/// structured pre-flight error the run-time path reproduces.
fn check_offload(
    s: &Schedule,
    p: usize,
    at: &str,
    checks: &mut Vec<OffloadCheck>,
    violations: &mut Vec<Violation>,
) {
    let combos: [(&'static str, FpgaDevice, &'static str, InicMode); 3] = [
        (
            "xc4085xla",
            FpgaDevice::xc4085xla(),
            "combined",
            InicMode::Combined,
        ),
        (
            "virtex_next_gen",
            FpgaDevice::virtex_next_gen(),
            "combined",
            InicMode::Combined,
        ),
        (
            "virtex_next_gen",
            FpgaDevice::virtex_next_gen(),
            "protocol",
            InicMode::ProtocolProcessor,
        ),
    ];
    check_offload_against(s, p, at, &combos, checks, violations);
}

/// The device-parameterized core of [`check_offload`], split out so
/// tests can starve a device and exercise the `V4` path (the real
/// devices always fit the 430-CLB protocol-only bitstream).
fn check_offload_against(
    s: &Schedule,
    p: usize,
    at: &str,
    combos: &[(&'static str, FpgaDevice, &'static str, InicMode)],
    checks: &mut Vec<OffloadCheck>,
    violations: &mut Vec<Violation>,
) {
    let needs_reduce = offload::needs_reduce(s);
    for &(device_label, device, mode_label, mode) in combos {
        let check = match offload::plan(s, p, mode, &device) {
            Ok(plan) => OffloadCheck {
                device: device_label,
                mode: mode_label,
                needs_reduce,
                admissible: true,
                required: plan.bitstream.clbs(),
                available: device.clb_capacity,
            },
            Err(offload::OffloadError::InsufficientLogic {
                required,
                available,
            }) => {
                if mode == InicMode::ProtocolProcessor {
                    violations.push(violation(
                        "V4",
                        at.to_string(),
                        format!(
                            "the protocol-only datapath needs {required} CLBs but \
                             {device_label} has {available}: no technology can run this cell"
                        ),
                    ));
                }
                OffloadCheck {
                    device: device_label,
                    mode: mode_label,
                    needs_reduce,
                    admissible: false,
                    required,
                    available,
                }
            }
        };
        checks.push(check);
    }
}

// ---------------------------------------------------------------------------
// Cell verification (streaming, memory-bounded)
// ---------------------------------------------------------------------------

/// Memory budget from `ACC_VERIFY_MEM_MB`, or the default.
pub fn mem_budget() -> usize {
    std::env::var("ACC_VERIFY_MEM_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(DEFAULT_MEM_BUDGET, |mb| mb * 1024 * 1024)
}

/// Order-independent multiset fingerprint of one round's legs: a
/// wrapping sum and a XOR of two independent mixes per leg, so any
/// send/recv multiset mismatch flips at least one accumulator with
/// overwhelming probability.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct LegPrint {
    sum: u64,
    xor: u64,
    count: u64,
}

impl LegPrint {
    fn absorb(&mut self, from: usize, to: usize, elems: usize) {
        let key = mix64(
            (from as u64)
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add((to as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
                .wrapping_add(elems as u64),
        );
        self.sum = self.sum.wrapping_add(key);
        self.xor ^= mix64(key ^ 0xD6E8_FEB8_6659_FD93);
        self.count += 1;
    }
}

/// Statically verify one algorithm × op × p cell, streaming one rank's
/// schedule at a time (see module docs for the depth policy).
///
/// # Errors
/// All violations found across the structural, conservation, tag and
/// CLB analyses.
///
/// # Panics
/// Panics if the cell is unsupported — callers filter with
/// [`plan::supports`] first, exactly like the policy layer.
pub fn verify_cell(
    op: CollectiveOp,
    algo: Algorithm,
    p: usize,
    elems: usize,
    budget: usize,
) -> Result<CellProof, Vec<Violation>> {
    assert!(
        plan::supports(op, algo, p, elems),
        "unsupported collective cell: {op} via {algo} at p={p}, elems={elems}"
    );
    let cell = format!("{op}/{algo} p={p} elems={elems}");
    let mut violations = Vec::new();

    // Project the full-depth footprint from rank 0's image: compact
    // schedules plus the modular working states. Ranks of one cell are
    // homogeneous to within a constant factor (trees are log-depth and
    // tiny), so one rank scales the estimate reliably.
    let rank0 = plan::build(op, algo, 0, p, elems);
    let compact0 = Compact::from_schedule(&rank0);
    let rounds = rank0.rounds.len();
    let projected = p * (compact0.bytes() + rank0.state_len * 8 + 256);
    let depth = if projected <= budget {
        Depth::Full
    } else {
        Depth::Structural
    };

    let mut prints: Vec<(LegPrint, LegPrint)> = vec![Default::default(); rounds];
    let mut total_legs = 0u64;
    let mut compacts: Vec<Compact> = Vec::new();
    let mut offload_checks = Vec::new();
    let mut seen_reduce_flags: BTreeSet<bool> = BTreeSet::new();
    for rank in 0..p {
        let s = if rank == 0 {
            rank0.clone()
        } else {
            plan::build(op, algo, rank, p, elems)
        };
        if s.rounds.len() != rounds {
            violations.push(violation(
                "V5",
                format!("{cell}, rank {rank}"),
                format!(
                    "rank {rank} has {} round(s) but rank 0 has {rounds}",
                    s.rounds.len()
                ),
            ));
            continue;
        }
        rank_legality(rank, &s, p, &mut violations);
        for (t, round) in s.rounds.iter().enumerate() {
            for send in &round.sends {
                prints[t]
                    .0
                    .absorb(rank, send.to, ranges_elems(&send.ranges));
            }
            for recv in &round.recvs {
                prints[t]
                    .1
                    .absorb(recv.from, rank, ranges_elems(&recv.ranges));
            }
            total_legs += (round.sends.len() + round.recvs.len()) as u64;
        }
        // Offload admissibility once per distinct reduce flag: the plan
        // depends only on (p, mode, device, needs_reduce).
        if seen_reduce_flags.insert(offload::needs_reduce(&s)) {
            check_offload(&s, p, &cell, &mut offload_checks, &mut violations);
        }
        if depth == Depth::Full {
            compacts.push(Compact::from_schedule(&s));
        }
    }

    // Structural pairing: every round's send multiset must equal its
    // recv multiset (counts and both fingerprints).
    for (t, (s, r)) in prints.iter().enumerate() {
        if s.count != r.count || s.sum != r.sum || s.xor != r.xor {
            violations.push(violation(
                "V1",
                format!("{cell}, round {t}"),
                format!(
                    "send/recv leg multisets differ ({} send(s) vs {} recv(s)): \
                     unmatched legs deadlock the round",
                    s.count, r.count
                ),
            ));
        }
    }

    let max_failover_epochs = check_tags(rounds, &cell, &mut violations);

    let mut conservation_checked = false;
    if depth == Depth::Full && violations.is_empty() {
        let inputs = probe_inputs(p, elems);
        match mod_lockstep(&compacts, &inputs) {
            Err(mut vs) => {
                for v in &mut vs {
                    v.at = format!("{cell}, {}", v.at);
                }
                violations.extend(vs);
            }
            Ok(outputs) => {
                let expect = mod_oracle(op, p, &inputs);
                for (rank, (got, want)) in outputs.iter().zip(&expect).enumerate() {
                    if got != want {
                        violations.push(violation(
                            "V2",
                            format!("{cell}, rank {rank}"),
                            format!(
                                "rank {rank} output diverges from the {op} oracle under \
                                 modular probes: some contribution is dropped, duplicated \
                                 or misrouted"
                            ),
                        ));
                    }
                }
                conservation_checked = violations.is_empty();
            }
        }
    }

    if violations.is_empty() {
        Ok(CellProof {
            op,
            algo,
            p,
            elems,
            rounds,
            total_legs,
            depth,
            conservation_checked,
            max_failover_epochs,
            offload: offload_checks,
        })
    } else {
        Err(violations)
    }
}

// ---------------------------------------------------------------------------
// The verification grid
// ---------------------------------------------------------------------------

/// Per-op probe vector length: small enough to keep modular execution
/// cheap, shaped to exercise each algorithm's constraints (block
/// divisibility for all-to-all and recursive halving, empty ring
/// segments when `elems < p`).
pub fn default_elems(op: CollectiveOp, p: usize) -> usize {
    match op {
        CollectiveOp::AllReduce | CollectiveOp::Broadcast => 32,
        CollectiveOp::ReduceScatter | CollectiveOp::AllToAll => p,
        CollectiveOp::AllGather | CollectiveOp::Barrier => 1,
    }
}

/// The algorithm × op × p cells `acc-verify --schedules` proves: every
/// implemented pair at every supported size in the sweep.
pub fn grid_cells(max_p: usize, smoke: bool) -> Vec<(CollectiveOp, Algorithm, usize, usize)> {
    let smoke_ps = [2usize, 3, 4, 5, 7, 8, 16, 32, 64];
    let full_ps = [128usize, 256, 512, 1024, 2048, 4096];
    let mut ps: Vec<usize> = smoke_ps.iter().copied().filter(|&p| p <= max_p).collect();
    if !smoke {
        ps.extend(full_ps.iter().copied().filter(|&p| p <= max_p));
    }
    let mut cells = Vec::new();
    for &p in &ps {
        for op in CollectiveOp::ALL {
            let elems = default_elems(op, p);
            for algo in op.algorithms() {
                if plan::supports(op, algo, p, elems) {
                    cells.push((op, algo, p, elems));
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_all;

    #[test]
    fn clean_cells_prove_structure_and_conservation() {
        for p in [2usize, 4, 7, 8] {
            for op in CollectiveOp::ALL {
                let elems = default_elems(op, p);
                for algo in op.algorithms() {
                    if !plan::supports(op, algo, p, elems) {
                        continue;
                    }
                    let schedules = build_all(op, algo, p, elems);
                    let proof = verify_schedules(&schedules)
                        .unwrap_or_else(|vs| panic!("{op}/{algo} p={p}: {vs:?}"));
                    assert_eq!(proof.critical_path_rounds, proof.rounds);
                    verify_conservation(op, elems, &schedules)
                        .unwrap_or_else(|vs| panic!("{op}/{algo} p={p}: {vs:?}"));
                }
            }
        }
    }

    #[test]
    fn dropped_recv_is_a_deadlock() {
        let mut s = build_all(CollectiveOp::AllReduce, Algorithm::Ring, 4, 8);
        let victim = s[1]
            .rounds
            .iter()
            .position(|r| !r.recvs.is_empty())
            .expect("ring schedules receive");
        s[1].rounds[victim].recvs.clear();
        let vs = verify_schedules(&s).expect_err("a dropped recv must flag");
        assert!(
            vs.iter().any(|v| v.code == "V1"),
            "expected a pairing violation: {vs:?}"
        );
    }

    #[test]
    fn duplicated_send_is_flagged() {
        let mut s = build_all(CollectiveOp::AllGather, Algorithm::Ring, 4, 2);
        let t = s[0]
            .rounds
            .iter()
            .position(|r| !r.sends.is_empty())
            .expect("ring schedules send");
        let dup = s[0].rounds[t].sends[0].clone();
        s[0].rounds[t].sends.push(dup);
        let vs = verify_schedules(&s).expect_err("a duplicate send must flag");
        assert!(vs.iter().any(|v| v.code == "V1"), "{vs:?}");
    }

    #[test]
    fn misrouted_sum_breaks_conservation() {
        let mut s = build_all(CollectiveOp::AllReduce, Algorithm::Ring, 4, 8);
        // Retarget one recv's ranges one element to the left: pairing
        // still matches (same element count), but a contribution lands
        // on the wrong elements — only conservation can see it.
        let (t, r) = s[2]
            .rounds
            .iter()
            .enumerate()
            .find_map(|(t, round)| {
                round
                    .recvs
                    .iter()
                    .position(|rv| {
                        rv.op == plan::RecvOp::Sum && rv.ranges.len() == 1 && rv.ranges[0].start > 0
                    })
                    .map(|i| (t, i))
            })
            .expect("a shiftable sum recv exists");
        let rng = &mut s[2].rounds[t].recvs[r].ranges[0];
        *rng = rng.start - 1..rng.end - 1;
        assert!(
            verify_schedules(&s).is_ok(),
            "the shift must be invisible to pairing"
        );
        let vs = verify_conservation(CollectiveOp::AllReduce, 8, &s)
            .expect_err("the shift must break conservation");
        assert!(vs.iter().any(|v| v.code == "V2"), "{vs:?}");
    }

    #[test]
    fn cell_proof_reports_offload_and_tags() {
        let proof = verify_cell(CollectiveOp::AllReduce, Algorithm::Ring, 8, 8, mem_budget())
            .expect("clean cell");
        assert_eq!(proof.depth, Depth::Full);
        assert!(proof.conservation_checked);
        assert!(proof.max_failover_epochs >= 1);
        // Protocol-only always fits; the prototype fits a p=8 combined
        // path comfortably.
        assert!(proof.offload.iter().all(|c| c.admissible), "{proof:?}");
    }

    #[test]
    fn oversized_combined_path_is_recorded_not_flagged() {
        let p = 128;
        let proof = verify_cell(
            CollectiveOp::AllReduce,
            Algorithm::Ring,
            p,
            default_elems(CollectiveOp::AllReduce, p),
            mem_budget(),
        )
        .expect("the prototype rejection is structured, not a violation");
        let xc = proof
            .offload
            .iter()
            .find(|c| c.device == "xc4085xla" && c.mode == "combined")
            .expect("prototype combined probe present");
        assert!(!xc.admissible, "128-way router cannot fit 3136 CLBs");
        assert!(
            proof
                .offload
                .iter()
                .all(|c| c.mode != "protocol" || c.admissible),
            "protocol-only must always fit: {proof:?}"
        );
    }

    #[test]
    fn structural_depth_engages_under_a_tiny_budget() {
        let vs = verify_cell(CollectiveOp::AllGather, Algorithm::Ring, 16, 1, 1024);
        let proof = vs.expect("structural depth still passes a clean cell");
        assert_eq!(proof.depth, Depth::Structural);
        assert!(!proof.conservation_checked);
    }

    #[test]
    fn starved_device_raises_v4_for_protocol_only() {
        // The real devices always fit the 430-CLB protocol bitstream,
        // so the no-technology-can-run-this violation needs a
        // synthetic device with the CLB pool starved out.
        let s = build_all(CollectiveOp::AllReduce, Algorithm::Ring, 4, 8);
        let mut starved = FpgaDevice::xc4085xla();
        starved.clb_capacity = 64;
        let combos = [
            ("starved", starved, "combined", InicMode::Combined),
            ("starved", starved, "protocol", InicMode::ProtocolProcessor),
        ];
        let mut checks = Vec::new();
        let mut violations = Vec::new();
        check_offload_against(&s[0], 4, "test cell", &combos, &mut checks, &mut violations);
        assert!(checks.iter().all(|c| !c.admissible), "{checks:?}");
        assert!(
            violations
                .iter()
                .any(|v| v.code == "V4" && v.message.contains("no technology")),
            "{violations:?}"
        );
    }

    #[test]
    fn probe_values_are_field_elements() {
        for rank in 0..16 {
            for i in 0..64 {
                assert!(probe(rank, i) < FIELD_P);
            }
        }
    }
}
