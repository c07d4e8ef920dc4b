//! Application-trace replay: a streaming pipeline (e.g. a video
//! decoder) mapped onto a Spidergon NoC — the paper's future-work item
//! "specific traffic patterns originated by common applications".
//!
//! Four pipeline stages are mapped to IPs around the Spidergon; every
//! `period` cycles an item enters stage 0, and each stage forwards its
//! item to the next stage. The trace replays exactly (no stochastic
//! sources), and a recorder's per-packet timings show end-to-end
//! behavior.
//!
//! Run with:
//!
//! ```text
//! cargo run --example app_pipeline
//! ```

use spidergon_noc::routing::SpidergonAcrossFirst;
use spidergon_noc::sim::{Recorder, SimConfig, Simulation};
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
        .build()?;
    let recorder = Recorder::new();
    let mut sim =
        Simulation::with_trace(Box::new(topo), Box::new(routing), &trace, config, recorder)?;
    let stats = sim.run()?;

    println!(
        "delivered {} / {} packets, mean latency {:.1} cycles, mean hops {:.2}",
        stats.packets_delivered,
        trace.len(),
        stats.latency.mean().unwrap_or(f64::NAN),
        stats.mean_hops().unwrap_or(f64::NAN),
    );

    // Per-stage-link latency report from the packet timings.
    println!();
    println!(
        "{:>12}  {:>8}  {:>12}  {:>10}",
        "link", "packets", "mean latency", "mean hops"
    );
    for window in stages.windows(2) {
        let (src, dst) = (window[0], window[1]);
        let timings: Vec<_> = sim
            .probe()
            .packet_timings()
            .iter()
            .filter(|t| t.src == src.index() && t.dst == dst.index())
            .collect();
        let count = timings.len();
        let lat: f64 =
            timings.iter().map(|t| t.latency() as f64).sum::<f64>() / count.max(1) as f64;
        let hops: f64 = timings.iter().map(|t| t.hops as f64).sum::<f64>() / count.max(1) as f64;
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
