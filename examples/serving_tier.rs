//! Multi-query serving: three overlapping standing queries, one stream.
//!
//! ```text
//! cargo run --example serving_tier --release
//! ```
//!
//! A dashboard (all trade/quote matches), an alert rule (only high-volume
//! matches) and an audit feed (a second subscription to the dashboard's
//! query, phrased differently) are registered on one
//! [`jit_serve::QueryRegistry`]. Every market event is pushed **once**; the
//! registry classifies it against the deduplicated filter set and routes it
//! to the pipelines that need it. Mid-run the alert rule is cancelled — its
//! pipeline is torn down and its state freed — while the other queries keep
//! serving, never missing a result.

use jit_dsms::prelude::*;
use std::sync::Arc;

fn main() {
    // The global catalog: one trades stream and one quotes stream, keyed by
    // instrument id, each carrying a volume column.
    let mut catalog = Catalog::new();
    catalog.add_source("trades", vec!["instrument".into(), "volume".into()]);
    catalog.add_source("quotes", vec!["instrument".into(), "volume".into()]);
    let trades = SourceId(0);
    let quotes = SourceId(1);

    let mut registry = QueryRegistry::new(catalog);

    // Three standing queries. The audit feed is the dashboard query with
    // the join written the other way round — the registry canonicalizes
    // both to one key and runs ONE pipeline for the two of them.
    let dashboard = registry
        .register(
            "SELECT * FROM trades [RANGE 1 minutes], quotes [RANGE 1 minutes] \
             WHERE trades.instrument = quotes.instrument",
        )
        .expect("dashboard registers");
    let alerts = registry
        .register(
            "SELECT * FROM trades [RANGE 1 minutes], quotes [RANGE 1 minutes] \
             WHERE trades.instrument = quotes.instrument AND trades.volume > 70",
        )
        .expect("alert rule registers");
    let audit = registry
        .register(
            "select * from trades [range 1 minutes], quotes [range 1 minutes] \
             where quotes.instrument = trades.instrument",
        )
        .expect("audit feed registers");
    println!(
        "{} queries registered, {} pipelines executing (audit shares the dashboard's)\n",
        registry.num_queries(),
        registry.num_pipelines()
    );

    // One market stream, pushed once. A tiny LCG stands in for the feed.
    let mut state: u64 = 0xB5AD_4ECE_DA1C_E2A9;
    let mut next = move |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    let mut alarm_count = 0usize;
    for i in 0..600u64 {
        let source = if next(2) == 0 { trades } else { quotes };
        let instrument = next(20) as i64;
        let volume = next(100) as i64;
        registry
            .push(Arc::new(BaseTuple::new(
                source,
                i,
                Timestamp((i + 1) * 250),
                vec![Value::int(instrument), Value::int(volume)],
            )))
            .expect("arrival pushes");

        // The alert rule is cancelled a third of the way in.
        if i == 200 {
            let pending = registry.deregister(alerts).expect("alert rule cancels");
            alarm_count += pending.len();
            println!(
                "[t={}s] alert rule cancelled after {} alarms; {} pipelines remain",
                (i + 1) / 4,
                alarm_count,
                registry.num_pipelines()
            );
        } else if i % 100 == 0 && i > 0 {
            let alarms = registry.poll_results(alerts).map(|r| r.len()).unwrap_or(0);
            alarm_count += alarms;
            let matches = registry.poll_results(dashboard).expect("dashboard polls");
            println!(
                "[t={:>3}s] dashboard +{:<4} alarms +{alarms:<3} (pipeline state: {} B)",
                (i + 1) / 4,
                matches.len(),
                registry
                    .metrics_snapshot(dashboard)
                    .expect("dashboard is registered")
                    .final_memory_bytes
            );
        }
    }

    let report = registry.sharing_report();
    println!(
        "\nsharing: {} arrivals classified {} times ({} saved), \
         pipelines hold {} B vs {} B for one engine per query",
        report.arrivals,
        report.classifications,
        report.classifications_saved,
        report.shared_state_bytes,
        report.isolated_state_bytes
    );

    // End of stream: the dashboard and the audit feed — one pipeline, two
    // subscribers — finish with identical complete result streams.
    let finished = registry.finish().expect("registry finishes");
    let by_query: Vec<_> = finished
        .iter()
        .map(|(q, o)| (*q, o.results.len()))
        .collect();
    println!("final deliveries: {by_query:?}");
    let dashboard_total: usize = finished
        .iter()
        .find(|(q, _)| *q == dashboard)
        .map(|(_, o)| o.results.len())
        .expect("dashboard finishes");
    let audit_total = finished
        .iter()
        .find(|(q, _)| *q == audit)
        .map(|(_, o)| o.results.len())
        .expect("audit finishes");
    // The audit feed never polled, so it gets everything at the end; the
    // dashboard polled some results out mid-run.
    assert!(audit_total >= dashboard_total);
    println!("✓ audit feed saw the complete stream ({audit_total} matches) without ever polling");
}
