//! Cross-crate integration: the full BT story on generated data.
//!
//! These tests exercise the complete dependency chain — generator → DFS →
//! TiMR jobs (temporal queries on map-reduce) → evaluation — and assert
//! the *scientific* outcomes the paper claims: planted keyword recovery,
//! positive CTR lift for KE-z, KE-z beating KE-pop, bot removal, and
//! agreement between the declarative and hand-written pipelines.

use timr_suite::adgen::{generate, GenConfig};
use timr_suite::bt::eval::{
    by_ad, keyword_set_lift, lift_coverage, scores_from_examples, split_by_time, train_models,
    Scheme,
};
use timr_suite::bt::lr::LrConfig;
use timr_suite::bt::pipeline::BtPipeline;
use timr_suite::bt::BtParams;
use timr_suite::mapreduce::{Cluster, Dataset, Dfs};
use timr_suite::timr::{EventEncoding, TimrJob};

struct Setup {
    dfs: Dfs,
    params: BtParams,
    log: timr_suite::adgen::GeneratedLog,
    artifacts: timr_suite::bt::pipeline::PipelineArtifacts,
    duration: i64,
}

fn setup(seed: u64, users: usize) -> Setup {
    let mut cfg = GenConfig::small(seed);
    cfg.users = users;
    let log = generate(&cfg);
    let dfs = Dfs::new();
    dfs.put(
        "logs",
        Dataset::single(timr_suite::adgen::unified_schema(), log.rows()),
    )
    .unwrap();
    let params = BtParams {
        machines: 4,
        horizon: cfg.duration * 2,
        ..Default::default()
    };
    let artifacts = BtPipeline::new(params.clone())
        .run(&dfs, &Cluster::new(), "logs", "it")
        .unwrap();
    Setup {
        dfs,
        params,
        log,
        artifacts,
        duration: cfg.duration,
    }
}

#[test]
fn end_to_end_recovers_planted_structure_and_lifts_ctr() {
    let s = setup(101, 900);

    // 1. Keyword recovery: for every ad class, the strongest positive
    //    z-scores are dominated by planted positives.
    let scores = BtPipeline::load_scores(&s.dfs, &s.artifacts.scores).unwrap();
    let mut checked_ads = 0;
    for (ad, planted) in &s.log.truth.positive_keywords {
        let mut top: Vec<_> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z > 1.96)
            .collect();
        top.sort_by(|a, b| b.z.total_cmp(&a.z));
        if top.len() < 3 {
            continue; // sparse ad at this scale
        }
        let hits = top
            .iter()
            .take(5)
            .filter(|sc| planted.contains(&sc.keyword))
            .count();
        assert!(
            hits * 3 >= top.len().min(5) * 2,
            "{ad}: planted keywords should dominate top z-scores ({hits} hits)"
        );
        checked_ads += 1;
    }
    assert!(checked_ads >= 3, "most ad classes reach significance");

    // 2. CTR lift: train on the first half, evaluate on the second; KE-z
    //    must produce positive lift at 10% coverage for at least one ad,
    //    and on average beat KE-pop.
    let examples =
        BtPipeline::load_examples(&s.dfs, &s.artifacts.labels, &s.artifacts.train_rows).unwrap();
    let (train, test) = split_by_time(&examples, s.duration / 2);
    let train_scores =
        scores_from_examples(&train, s.params.min_support, s.params.min_example_support);
    let train_by_ad = by_ad(&train);
    let test_by_ad = by_ad(&test);

    let mut kez_lift_sum = 0.0;
    let mut kepop_lift_sum = 0.0;
    let mut ads = 0.0;
    for scheme_pair in [(Scheme::KeZ { threshold: 1.28 }, Scheme::KePop { n: 30 })] {
        let kez_models = train_models(
            &train_by_ad,
            &scheme_pair.0,
            &train_scores,
            &LrConfig::default(),
        );
        let kepop_models = train_models(
            &train_by_ad,
            &scheme_pair.1,
            &train_scores,
            &LrConfig::default(),
        );
        for (ad, test_examples) in &test_by_ad {
            let (Some(a), Some(b)) = (kez_models.get(ad), kepop_models.get(ad)) else {
                continue;
            };
            if test_examples.len() < 100 {
                continue;
            }
            let ka = lift_coverage(ad, a, test_examples, &scheme_pair.0, &train_scores, &[0.1]);
            let kb = lift_coverage(ad, b, test_examples, &scheme_pair.1, &train_scores, &[0.1]);
            kez_lift_sum += ka[0].lift;
            kepop_lift_sum += kb[0].lift;
            ads += 1.0;
        }
    }
    assert!(ads >= 3.0, "enough ads evaluated: {ads}");
    assert!(
        kez_lift_sum / ads > 0.0,
        "KE-z mean lift must be positive: {}",
        kez_lift_sum / ads
    );
    assert!(
        kez_lift_sum > kepop_lift_sum,
        "KE-z ({kez_lift_sum:.3}) should beat KE-pop ({kepop_lift_sum:.3}) in total lift"
    );
}

#[test]
fn keyword_subsets_shift_ctr_in_the_planted_direction() {
    let s = setup(202, 900);
    let examples =
        BtPipeline::load_examples(&s.dfs, &s.artifacts.labels, &s.artifacts.train_rows).unwrap();
    let (train, test) = split_by_time(&examples, s.duration / 2);
    let scores = scores_from_examples(&train, s.params.min_support, s.params.min_example_support);
    let test_by_ad = by_ad(&test);

    let mut positive_lifts = 0;
    let mut checked = 0;
    for (ad, test_examples) in &test_by_ad {
        let pos: rustc_hash::FxHashSet<String> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z > 1.28)
            .map(|sc| sc.keyword.clone())
            .collect();
        let neg: rustc_hash::FxHashSet<String> = scores
            .iter()
            .filter(|sc| &sc.ad == ad && sc.z < -1.28)
            .map(|sc| sc.keyword.clone())
            .collect();
        if pos.is_empty() || test_examples.len() < 200 {
            continue;
        }
        let rows = keyword_set_lift(test_examples, &pos, &neg);
        // rows[1] = ">=1 pos kw".
        if rows[1].examples > 30 {
            checked += 1;
            if rows[1].lift_pct > 0.0 {
                positive_lifts += 1;
            }
        }
    }
    assert!(checked >= 3, "checked {checked} ads");
    assert!(
        positive_lifts * 4 >= checked * 3,
        "positive-keyword subsets lift CTR for most ads: {positive_lifts}/{checked}"
    );
}

#[test]
fn bot_elimination_removes_planted_bots_activity() {
    let s = setup(303, 1000);
    let clean = s.dfs.get(&s.artifacts.clean).unwrap();
    // Clean dataset is Interval-encoded: (Time, TimeEnd, StreamId,
    // UserId, KwAdId) — UserId is column 3.
    let clean_users: rustc_hash::FxHashMap<String, u64> = {
        let mut m: rustc_hash::FxHashMap<String, u64> = Default::default();
        for r in clean.scan() {
            *m.entry(r.get(3).as_str().unwrap().to_string()).or_insert(0) += 1;
        }
        m
    };
    let raw_users: rustc_hash::FxHashMap<String, u64> = {
        let mut m: rustc_hash::FxHashMap<String, u64> = Default::default();
        for e in &s.log.events {
            *m.entry(e.user.clone()).or_insert(0) += 1;
        }
        m
    };
    // Every planted bot loses the majority of its activity; ordinary
    // users keep essentially all of theirs.
    let mut bots_suppressed = 0;
    for bot in &s.log.truth.bots {
        let raw = raw_users.get(bot).copied().unwrap_or(0);
        let kept = clean_users.get(bot).copied().unwrap_or(0);
        if raw >= 20 && (kept as f64) < 0.5 * raw as f64 {
            bots_suppressed += 1;
        }
    }
    assert!(
        bots_suppressed as f64 >= 0.8 * s.log.truth.bots.len() as f64,
        "{bots_suppressed}/{} bots suppressed",
        s.log.truth.bots.len()
    );

    let sample_normals: Vec<&String> = raw_users
        .keys()
        .filter(|u| !s.log.truth.bots.contains(*u))
        .take(50)
        .collect();
    for u in sample_normals {
        let raw = raw_users[u];
        let kept = clean_users.get(u).copied().unwrap_or(0);
        assert!(
            kept as f64 >= 0.9 * raw as f64,
            "normal user {u} lost activity: {kept}/{raw}"
        );
    }
}

/// Every TiMR score matches the custom-reducer pipeline's z within 1e-9,
/// and at least 90% of them have a custom counterpart.
fn assert_scores_match_custom(s: &Setup, scores_dataset: &str, custom_prefix: &str) {
    timr_suite::bt::baselines::custom::run_custom(
        &s.dfs,
        &Cluster::new(),
        "logs",
        custom_prefix,
        &s.params,
    )
    .unwrap();
    let timr_scores = BtPipeline::load_scores(&s.dfs, scores_dataset).unwrap();
    let custom_scores =
        BtPipeline::load_custom_scores(&s.dfs, &format!("{custom_prefix}_scores")).unwrap();
    assert!(!timr_scores.is_empty());

    let custom_map: std::collections::BTreeMap<(String, String), f64> = custom_scores
        .iter()
        .map(|sc| ((sc.ad.clone(), sc.keyword.clone()), sc.z))
        .collect();
    let mut matched = 0;
    for sc in &timr_scores {
        if let Some(z) = custom_map.get(&(sc.ad.clone(), sc.keyword.clone())) {
            assert!(
                (sc.z - z).abs() < 1e-9,
                "z mismatch {}/{}: {} vs {z}",
                sc.ad,
                sc.keyword,
                sc.z
            );
            matched += 1;
        }
    }
    assert!(
        matched as f64 >= 0.9 * timr_scores.len() as f64,
        "{matched}/{} scores matched",
        timr_scores.len()
    );
}

#[test]
fn declarative_and_custom_pipelines_agree_at_scale() {
    let s = setup(404, 700);
    assert_scores_match_custom(&s, &s.artifacts.scores, "cust");
}

/// FeatureSelection writes its counts as `hop → GroupApply{Aggregate}`;
/// push-down ships them as one partial aggregate per source, and the
/// published scores are byte-identical to the reduce-only plan's.
#[test]
fn feature_selection_pushes_partials_with_identical_scores() {
    let s = setup(505, 600);
    let fs = timr_suite::bt::queries::feature_selection::query(&s.params);
    let job = |push: bool| {
        TimrJob::new(if push { "fs_on" } else { "fs_off" }, fs.plan.clone())
            .with_annotation(fs.annotation.clone())
            .with_machines(s.params.machines)
            .with_source_encoding("labels", EventEncoding::Interval)
            .with_source_encoding("train_rows", EventEncoding::Interval)
            .with_push_down(push)
    };
    assert_eq!(job(true).compile().unwrap().pushed_partials, 2);
    assert_eq!(job(false).compile().unwrap().pushed_partials, 0);

    let on = job(true).run(&s.dfs, &Cluster::new()).unwrap();
    let off = job(false).run(&s.dfs, &Cluster::new()).unwrap();
    let (on_ds, off_ds) = (
        s.dfs.get(&on.dataset).unwrap(),
        s.dfs.get(&off.dataset).unwrap(),
    );
    assert!(!on_ds.is_empty());
    assert_eq!(on_ds.partitions, off_ds.partitions);
    assert_eq!(on_ds.extents().len(), off_ds.extents().len());
    for i in 0..on_ds.extents().len() {
        assert_eq!(
            on_ds.binary_extent(i),
            off_ds.binary_extent(i),
            "extent {i}"
        );
    }
    assert!(
        on.stats.map_totals().shuffle_bytes < off.stats.map_totals().shuffle_bytes,
        "partials must shrink the shuffle"
    );
    assert_scores_match_custom(&s, &on.dataset, "cust_fs");
}
