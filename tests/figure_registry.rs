//! Every registered page renders at quick scale without a failure: a swept
//! figure prints the same page from a fresh sweep and from its own
//! checkpoint journal, any other page the same text on every run.

use serr_core::checkpoint::SweepOptions;
use serr_core::experiments::ExperimentConfig;
use serr_core::figures::FIGURES;

#[test]
fn every_figure_renders_identically_when_resumed() {
    let mut cfg = ExperimentConfig::quick();
    cfg.mc.trials = 2_000;
    let dir = std::env::temp_dir().join(format!("serr-figure-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for figure in &FIGURES {
        let fresh = figure.run(&cfg, &SweepOptions::fresh().in_dir(&dir)).unwrap();
        assert!(fresh.failures.is_empty(), "{}: {:?}", figure.name, fresh.failures);
        assert!(fresh.text.ends_with(figure.claim), "{}", figure.name);
        assert!(fresh.text.lines().count() > 4, "{}", figure.name);
        let again = figure.run(&cfg, &SweepOptions::resume().in_dir(&dir)).unwrap();
        assert_eq!(again.text, fresh.text, "{}", figure.name);
        if !figure.is_swept() {
            assert_eq!((fresh.rows, again.resumed, again.computed), (0, 0, 0), "{}", figure.name);
            continue;
        }
        assert_eq!((fresh.resumed, fresh.computed), (0, fresh.rows), "{}", figure.name);
        assert!(fresh.rows > 0, "{}", figure.name);
        assert!(fresh.text.contains("trials = 2000"), "{}", figure.name);
        assert_eq!((again.resumed, again.computed), (fresh.rows, 0), "{}", figure.name);
        assert_eq!(again.rows, fresh.rows, "{}", figure.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
