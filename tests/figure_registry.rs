//! Every registered figure renders the same page from a fresh sweep and
//! from its own checkpoint journal.

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
        assert_eq!((fresh.resumed, fresh.computed), (0, fresh.rows), "{}", figure.name);
        assert!(fresh.rows > 0, "{}", figure.name);
        assert!(fresh.text.ends_with(figure.claim), "{}", figure.name);
        assert!(fresh.text.contains("trials = 2000"), "{}", figure.name);

        let resumed = figure.run(&cfg, &SweepOptions::resume().in_dir(&dir)).unwrap();
        assert_eq!((resumed.resumed, resumed.computed), (fresh.rows, 0), "{}", figure.name);
        assert_eq!(resumed.rows, fresh.rows, "{}", figure.name);
        assert_eq!(resumed.text, fresh.text, "{}", figure.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
