//! # pard-icn — the intra-computer network
//!
//! PARD's founding observation is that *a computer is inherently a network*:
//! CPU cores, caches, memory controllers, and I/O devices communicate via
//! packets over the NoC, memory bus, and PCIe. This crate defines that
//! network for the reproduction:
//!
//! * [`DsId`] — the differentiated-service tag attached to every packet
//!   (the paper's §3 ① tagging mechanism),
//! * address newtypes ([`LAddr`], [`MAddr`]) distinguishing LDom-physical
//!   from machine-physical addresses (each LDom sees an address space
//!   starting at zero; the memory control plane translates),
//! * the packet vocabulary ([`MemPacket`], [`DiskRequest`],
//!   [`InterruptPacket`], …) and the system-wide event enum [`PardEvent`]
//!   that every simulated component handles,
//! * clock-domain constants for the paper's Table 2 platform
//!   ([`CPU_CYCLE`], [`MEM_CYCLE`]),
//! * a serialising [`Link`] model for bus latency/bandwidth.
//!
//! # Paper mapping
//!
//! This crate is the "computer is inherently a network" substrate of the
//! PAPER.md design overview: the paper's §3 mechanism ① (DS-id tagging of
//! every memory / I/O / DMA / interrupt packet) and the ICN fabric those
//! tags ride on. The crossbar and link models carry the fault layer's
//! port-backpressure hook (DESIGN.md §11); packet conservation and DS-id
//! stability across every hop are the audit layer's core invariants
//! (DESIGN.md §10).

#![warn(missing_docs)]

mod addr;
mod clock;
mod crossbar;
mod ds;
mod event;
mod link;
mod packet;

pub use addr::{LAddr, MAddr, CACHE_LINE_BYTES};
pub use clock::{cpu_cycles, mem_cycles, to_cpu_cycles, to_mem_cycles, CPU_CYCLE, MEM_CYCLE};
pub use crossbar::{Crossbar, CrossbarConfig};
pub use ds::DsId;
pub use event::{CoreCommand, PardEvent, TickKind};
pub use link::Link;
pub use packet::{
    DiskDone, DiskKind, DiskRequest, InterruptPacket, MemKind, MemPacket, MemResp, NetFrame,
    PacketId, PacketIdGen, PioPacket, PioResp,
};
