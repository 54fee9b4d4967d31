//! Heap allocations of one `/metrics` scrape.
//!
//! A scrape fills a fresh registry from every adapter (ledger, fleet,
//! sim sync, collector, analytics, breaches, wire, watchdog) and renders
//! both encodings. Its cost should be a small constant per series with no
//! per-series heap traffic once a series exists: family names and help
//! texts are `'static`, a series owns its label values once, and each
//! encoder writes into one `String` sized up front. This test installs a
//! counting global allocator and bounds the allocations of one scrape of
//! [`ScrapeFixture`]. The registry with per-update label sets, copied
//! family names and per-line render strings made 2,251 allocations for
//! this scrape; the bound is a third of that. `DESIGN.md` §15.1 lists
//! where the remaining allocations come from.

use fet_bench::counting_alloc::{allocations, CountingAlloc};
use fet_bench::export_fixture::ScrapeFixture;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one scrape of the fixture made before the rewrite.
const OLD_ALLOCS: u64 = 2_251;

#[test]
fn one_scrape_allocates_under_a_third_of_the_old_count() {
    let fx = ScrapeFixture::new();
    let first = fx.scrape();
    let allocs0 = allocations();
    let again = fx.scrape();
    let allocs = allocations() - allocs0;
    assert_eq!(first, again, "a scrape of unchanged state must render the same bytes");

    let (prom, otel) = &again;
    let series = prom.lines().filter(|l| !l.starts_with('#')).count();
    assert!(series > 100, "too few samples to measure: {series}");
    assert!(otel.len() > prom.len(), "OTel document missing");
    let summary = format!(
        "{allocs} allocations for one scrape ({series} samples, {} + {} bytes rendered)",
        prom.len(),
        otel.len()
    );
    println!("{summary}");
    assert!(allocs <= OLD_ALLOCS / 3, "{summary} (bound {})", OLD_ALLOCS / 3);
}
