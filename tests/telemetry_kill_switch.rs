//! Instrumentation observes, never decides: the same seeded workload
//! run with the telemetry kill switch on and off must give the same
//! answers and, for the deterministic filters, the same serialized
//! images. The workload drives every instrumented path into its
//! interesting regime — scalable Bloom expansion, cuckoo kick chains
//! at high load, CQF counter runs under Zipf skew, sharded batches,
//! compaction into fuse tiers, and Bloofi descents.
//!
//! The switch is process-wide, so this file is its own test binary
//! with a single test.

use beyond_bloom::bloofi::{BloofiConfig, BloofiIndex};
use beyond_bloom::bloom::{BloomFilter, ScalableBloomFilter};
use beyond_bloom::compacting::{CompactingConfig, CompactingFilter};
use beyond_bloom::concurrent::Sharded;
use beyond_bloom::core::{CountingFilter, Filter, InsertFilter};
use beyond_bloom::cuckoo::CuckooFilter;
use beyond_bloom::quotient::CountingQuotientFilter;
use beyond_bloom::telemetry::{self, EventKind};
use beyond_bloom::workloads::{disjoint_keys, unique_keys, zipf_keys};

/// Everything one run observed, per filter.
#[derive(Default)]
struct Outcome {
    scalable: Vec<bool>,
    scalable_stages: usize,
    cuckoo_inserts: Vec<bool>,
    cuckoo: Vec<bool>,
    cuckoo_image: Vec<u8>,
    cqf_counts: Vec<u64>,
    cqf_image: Vec<u8>,
    sharded: Vec<bool>,
    sharded_images: Vec<Vec<u8>>,
    compacting: Vec<bool>,
    bloofi: Vec<Vec<u32>>,
}

fn run_workload() -> Outcome {
    let keys = unique_keys(0x5e1f, 6_000);
    let absent = disjoint_keys(0x5e20, 6_000, &keys);
    let probes: Vec<u64> = keys.iter().chain(&absent).copied().collect();
    let mut out = Outcome::default();

    // Scalable Bloom sized for a tenth of the keys: it must chain
    // several stages.
    let mut scalable = ScalableBloomFilter::with_params(600, 0.01, 2, 0.5, 0x51);
    for &k in &keys {
        scalable.insert(k).unwrap();
    }
    out.scalable = probes.iter().map(|&k| scalable.contains(k)).collect();
    out.scalable_stages = scalable.stages();

    // Cuckoo: 1024 buckets of 4 slots, offered 97% of its slots so the
    // tail walks long eviction chains (and may hit the kick limit —
    // which inserts fail is part of the compared outcome).
    let mut cuckoo = CuckooFilter::with_params(3_891, 12, 4, 0xc0);
    out.cuckoo_inserts = keys[..3_973]
        .iter()
        .map(|&k| cuckoo.insert(k).is_ok())
        .collect();
    assert!(cuckoo.load() >= 0.95, "cuckoo load {}", cuckoo.load());
    out.cuckoo = probes.iter().map(|&k| cuckoo.contains(k)).collect();
    out.cuckoo_image = cuckoo.to_bytes();

    // CQF under a Zipf stream: hot keys grow long counter runs, and
    // auto-expansion doubles the table along the way.
    let stream = zipf_keys(0xc9f, 4_000, 1.1, 0x5a17, 30_000);
    let mut cqf = CountingQuotientFilter::for_capacity(512, 0.01);
    cqf.set_auto_expand(true);
    for &k in &stream {
        cqf.insert_count(k, 1).unwrap();
    }
    out.cqf_counts = stream[..2_000]
        .iter()
        .chain(&absent[..2_000])
        .map(|&k| cqf.count(k))
        .collect();
    out.cqf_image = cqf.to_bytes();

    // Sharded Bloom through the batched paths.
    let sharded: Sharded<BloomFilter> =
        Sharded::new(3, |i| BloomFilter::with_seed(1_000, 0.01, 0x5d ^ i as u64));
    sharded.insert_batch(&keys).unwrap();
    out.sharded = sharded.contains_batch(&probes);
    out.sharded_images = sharded.for_each_shard(|f| f.to_bytes());

    // Compacting filter: one front per flush, so every run builds the
    // same tiers regardless of how the compactor thread is scheduled.
    let compacting = CompactingFilter::new(CompactingConfig::new(1_000, 0.01, 0xc3));
    for chunk in keys.chunks(1_000) {
        for &k in chunk {
            compacting.insert(k);
        }
        compacting.flush();
    }
    out.compacting = probes.iter().map(|&k| compacting.contains(k)).collect();

    // Bloofi over 40 filters of 150 keys each.
    let mut index = BloofiIndex::new(BloofiConfig::default());
    for (i, chunk) in keys.chunks(150).enumerate() {
        let name = format!("f{i}");
        index.add_filter(&name);
        index.insert_keys(&name, chunk);
    }
    let mut found = Vec::new();
    for chunk in probes.chunks(32) {
        index.multi_contains_chunk(chunk, &mut found);
        out.bloofi.extend(found.iter().cloned());
    }
    out
}

#[test]
fn kill_switch_changes_no_answer_and_no_image() {
    let last_seq = || telemetry::events().snapshot().iter().map(|e| e.seq).max();
    telemetry::set_enabled(true);
    let on = run_workload();
    let events = telemetry::events().snapshot();
    let seq_after_on = last_seq();
    telemetry::set_enabled(false);
    let off = run_workload();
    let seq_after_off = last_seq();
    telemetry::set_enabled(true);

    // The switch really silenced the layer, and the workload reached
    // the regimes it is meant to cover.
    assert_eq!(seq_after_on, seq_after_off, "events emitted while off");
    assert!(events.iter().any(|e| e.kind == EventKind::Expansion));
    assert!(on.scalable_stages > 1, "scalable Bloom never expanded");
    assert!(on.cqf_counts.iter().any(|&c| c > 100), "no hot CQF key");
    assert!(on.bloofi.iter().any(|m| !m.is_empty()));

    let checks: [(&str, bool); 11] = [
        ("scalable answers", on.scalable == off.scalable),
        ("scalable stages", on.scalable_stages == off.scalable_stages),
        ("cuckoo inserts", on.cuckoo_inserts == off.cuckoo_inserts),
        ("cuckoo answers", on.cuckoo == off.cuckoo),
        ("cuckoo image", on.cuckoo_image == off.cuckoo_image),
        ("cqf counts", on.cqf_counts == off.cqf_counts),
        ("cqf image", on.cqf_image == off.cqf_image),
        ("sharded answers", on.sharded == off.sharded),
        ("sharded images", on.sharded_images == off.sharded_images),
        ("compacting answers", on.compacting == off.compacting),
        ("bloofi answers", on.bloofi == off.bloofi),
    ];
    for (what, same) in checks {
        assert!(same, "{what} differ between kill switch on and off");
    }
}
