//! Live peak-RSS probe. The reading is process-wide, so this test lives
//! alone in its own binary: no sibling test can allocate between the two
//! reads and raise the high-water mark under it.

#[cfg(target_os = "linux")]
#[test]
fn live_reading_is_sane() {
    use ispy_harness::rss::{peak_rss_bytes, reset_peak_rss};

    // Give the process a real peak above its current footprint: touch and
    // free 32 MiB (large enough to be mapped and unmapped, not pooled). A
    // process whose RSS has only grown has a mark equal to its current RSS,
    // and reading `/proc` itself faults in a page, so without this the
    // reading after the reset could legitimately exceed the first one.
    let spike = vec![1u8; 32 << 20];
    std::hint::black_box(&spike);
    drop(spike);

    let peak = peak_rss_bytes().expect("linux exposes VmHWM");
    assert!(peak > 1024 * 1024, "a test process surely holds >1 MiB, got {peak}");
    reset_peak_rss();
    let after = peak_rss_bytes().expect("still readable after reset");
    assert!(after <= peak, "reset cannot raise the high-water mark");
}
