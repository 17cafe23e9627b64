//! Analytical timing, area and power models.
//!
//! The paper's RTL is synthesized with Synopsys DC on TSMC 12 nm; this
//! crate substitutes analytical models *calibrated to the paper's reported
//! synthesis points* (see `docs/model.md` § "Why analytical substitution
//! is sound here"):
//!
//! * [`frequency`] — crossbar frequency vs port count (Fig. 4), the MDP
//!   critical path (0.93 ns at 32 channels → 0.97 ns at 256, Sec. 5.3),
//!   and the effective clock each design achieves;
//! * [`area`] / [`power`] — buffer-dominated area/power estimates matching
//!   Sec. 5.4 (MDP-network 0.375 mm² / 621.2 mW at 160 entries per channel;
//!   FIFO-plus-crossbar 0.292 mm² / 508.1 mW at 128);
//! * [`layout`] — the Fig. 7 on-chip memory budget and a fit-check for
//!   datasets under the 19-bit quantization;
//! * [`energy`] — run-energy and energy-per-edge estimates derived from
//!   the power model;
//! * [`pareto`] — objective tuples, Pareto dominance, and the
//!   non-dominated front maintained by the `repro dse` design-space
//!   exploration (see `docs/dse.md`).

#![forbid(unsafe_code)]

pub mod area;
pub mod energy;
pub mod frequency;
pub mod layout;
pub mod pareto;
pub mod power;

pub use area::{cache_area_mm2, crossbar_area_mm2, fabric_area_mm2, mdp_area_mm2};
pub use energy::energy_nj;
pub use frequency::{
    crossbar_critical_path_ns, crossbar_frequency_ghz, effective_frequency_ghz,
    mdp_critical_path_ns, mdp_frequency_ghz, mdp_radix_frequency_ghz, NetworkKindModel,
};
pub use layout::MemoryLayout;
pub use pareto::{Objectives, ParetoFront};
pub use power::{cache_power_mw, crossbar_power_mw, fabric_power_mw, mdp_power_mw};
