//! Table I: the simulated system.

use crate::report::Table;
use crate::session::Session;
use ispy_sim::config::MACHINE;
use ispy_sim::SimConfig;

/// Prints the simulated system parameters (paper Table I).
pub fn run(_session: &Session) -> Table {
    let (m, cfg) = (MACHINE, SimConfig::default());
    let mut t = Table::new("table1", "Simulated system (paper Table I)", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("CPU model", format!("trace-driven {}-wide core (ZSim substitute)", m.issue_width));
    kv("L1 instruction cache", format!("{} KiB, {}-way", m.l1i.size_bytes / 1024, m.l1i.ways));
    kv("L1 data cache", format!("{} KiB, {}-way", m.l1d.size_bytes / 1024, m.l1d.ways));
    kv("L2 unified cache", format!("{} KiB, {}-way", m.l2.size_bytes / 1024, m.l2.ways));
    kv("L3 unified cache", format!("{} MiB, {}-way", m.l3.size_bytes / 1024 / 1024, m.l3.ways));
    kv("L1 I-cache latency", format!("{} cycles", m.lat.l1i));
    kv("L1 D-cache latency", format!("{} cycles", m.lat.l1d));
    kv("L2 cache latency", format!("{} cycles", m.lat.l2));
    kv("L3 cache latency", format!("{} cycles", m.lat.l3));
    kv("Memory latency", format!("{} cycles", m.lat.mem));
    kv("LBR depth", format!("{} entries", cfg.lbr_depth));
    kv("Context hash", format!("{} bits, {} hash functions", cfg.hash.bits(), cfg.hash.k()));
    t.note("Latencies and geometries match the paper's Table I; the core model is simplified.");
    t
}
