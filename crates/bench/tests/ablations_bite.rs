//! Every `repro ablations` variant changes what the simulation does, not
//! only what it records: a toggle whose run dispatches the same events and
//! sends the same DNS queries as the all-accommodations run is a row that
//! reads the baseline twice, and is deleted rather than reported.

use ape_bench::{ablation_configs, ReproOptions};
use ape_proto::names;
use ape_simnet::SimDuration;
use apecache::build;

#[test]
fn every_ablation_changes_events_or_dns_queries() {
    let opts = ReproOptions {
        minutes: 10,
        ..ReproOptions::default()
    };
    let runs: Vec<(&str, u64, u64)> = ablation_configs(&opts)
        .into_iter()
        .map(|(label, config)| {
            let mut bed = build(&config);
            bed.world.run_for(SimDuration::from_mins(opts.minutes));
            let events = bed.world.fingerprint().events;
            let queries = bed.world.metrics().counter(names::CLIENT_DNS_QUERIES);
            (label, events, queries)
        })
        .collect();
    let (baseline, variants) = runs.split_first().expect("the baseline row comes first");
    assert!(!variants.is_empty());
    for (label, events, queries) in variants {
        assert!(
            (*events, *queries) != (baseline.1, baseline.2),
            "{label:?} leaves events ({events}) and client.dns_queries ({queries}) \
             equal to the all-accommodations run"
        );
    }
}
