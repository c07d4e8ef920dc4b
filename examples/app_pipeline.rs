//! Application-trace replay: a streaming pipeline (e.g. a video
//! decoder) mapped onto a Spidergon NoC — the paper's future-work item
//! "specific traffic patterns originated by common applications".
//!
//! Four pipeline stages are mapped to IPs around the Spidergon; every
//! `period` cycles an item enters stage 0, and each stage forwards its
//! item to the next stage. The trace replays exactly (no stochastic
//! sources), and the per-packet delivery log shows end-to-end behavior.
//!
//! Run with:
//!
//! ```text
//! cargo run --example app_pipeline
//! ```

use spidergon_noc::routing::SpidergonAcrossFirst;
use spidergon_noc::sim::{NullProbe, SimConfig, Simulation};
use spidergon_noc::topology::{NodeId, Spidergon};
use spidergon_noc::traffic::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let topo = Spidergon::new(n)?;
    let routing = SpidergonAcrossFirst::new(&topo);

    // Stage mapping: input DMA -> decoder -> filter -> display,
    // deliberately spread across the ring so the across links matter.
    let stages = [
        NodeId::new(0),
        NodeId::new(8), // opposite node: one across hop
        NodeId::new(12),
        NodeId::new(4),
    ];
    let items = 200;
    let period = 8;
    let trace = Trace::pipeline(n, &stages, items, period)?;
    println!(
        "pipeline {:?}, {} items, one every {period} cycles -> {} packets",
        stages.iter().map(|s| s.index()).collect::<Vec<_>>(),
        items,
        trace.len()
    );

    let config = SimConfig::builder()
        .warmup_cycles(0)
        .measure_cycles(trace.last_cycle().unwrap_or(0) + 500)
        .record_deliveries(true)
        .build()?;
    let mut sim =
        Simulation::with_trace(Box::new(topo), Box::new(routing), &trace, config, NullProbe)?;
    let stats = sim.run()?;

    println!(
        "delivered {} / {} packets, mean latency {:.1} cycles, mean hops {:.2}",
        stats.packets_delivered,
        trace.len(),
        stats.latency.mean().unwrap_or(f64::NAN),
        stats.mean_hops().unwrap_or(f64::NAN),
    );

    // Per-stage-link latency report from the delivery log.
    println!();
    println!(
        "{:>12}  {:>8}  {:>12}  {:>10}",
        "link", "packets", "mean latency", "mean hops"
    );
    for window in stages.windows(2) {
        let (src, dst) = (window[0], window[1]);
        let deliveries: Vec<_> = sim
            .deliveries()
            .iter()
            .filter(|d| d.src == src && d.dst == dst)
            .collect();
        let count = deliveries.len();
        let lat: f64 =
            deliveries.iter().map(|d| d.latency as f64).sum::<f64>() / count.max(1) as f64;
        let hops: f64 = deliveries.iter().map(|d| d.hops as f64).sum::<f64>() / count.max(1) as f64;
        println!(
            "{:>12}  {:>8}  {:>12.1}  {:>10.2}",
            format!("{src}->{dst}"),
            count,
            lat,
            hops
        );
    }
    Ok(())
}
