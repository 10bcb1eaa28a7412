//! The recorder keeps each monitored packet's queueing delay as exact
//! integer nanoseconds: 4 bytes while every delay is below 2^32 ns, 8 bytes
//! from the first one that is not.  Whatever it stores, the snapshot must
//! list the delays as the `f64` milliseconds `Time::as_millis_f64` gives, and
//! the harness's median must be `nimbus_dsp::percentile` of that list, bit
//! for bit.

use nimbus_repro::experiments::runner::median_delay_ms;
use nimbus_repro::netsim::{ChunkedSamples, Recorder, RecorderConfig, Time};
use proptest::collection::vec;
use proptest::prelude::*;

/// The largest delay a narrow store holds.
const NARROW_MAX: u64 = (1 << 32) - 1;

/// A delay drawn from one of a few families: exact zeros, exact repeats of
/// three values, the 2^32 ns edge (clamped below it before `wide_from`), far
/// above it (likewise), and a spread over 0–67 ms.
fn delay_ns(family: u8, r: u64, at: usize, wide_from: usize) -> u64 {
    let wide = at >= wide_from;
    match family {
        0 => 0,
        1..=3 => 12_000_000 + r % 3,
        4 if wide => NARROW_MAX + r % 3,
        5 if wide => (1 << 33) + r,
        4 | 5 => NARROW_MAX - r % 2,
        _ => r,
    }
}

proptest! {
    #[test]
    fn delays_snapshot_and_take_their_median_as_f64_milliseconds(
        draws in vec((0u8..16, 0u64..1 << 26), 1..20_000),
        wide_from in 0usize..40_000,
    ) {
        let mut rec = Recorder::new(RecorderConfig::default(), 1);
        rec.register_flow(0, "monitored".into(), None, true, Time::ZERO, None);
        let delays_ns: Vec<u64> = draws
            .iter()
            .enumerate()
            .map(|(at, &(family, r))| delay_ns(family, r, at, wide_from))
            .collect();
        for &ns in &delays_ns {
            rec.on_dequeue(0, Time::from_nanos(ns));
        }
        let delays_ms: Vec<f64> = delays_ns
            .iter()
            .map(|&ns| Time::from_nanos(ns).as_millis_f64())
            .collect();

        let store = &rec.packet_delays[0];
        prop_assert_eq!(store.len(), delays_ns.len());
        prop_assert_eq!(
            matches!(store, ChunkedSamples::Wide(_)),
            delays_ns.iter().any(|&ns| ns > NARROW_MAX)
        );
        let snapshot = serde_json::to_string(&rec.snapshot()).unwrap();
        let listed = format!(
            "\"packet_delay_samples_ms\":{}",
            serde_json::to_string(&vec![delays_ms.clone()]).unwrap()
        );
        prop_assert!(snapshot.contains(&listed));
        prop_assert_eq!(
            median_delay_ms(store).to_bits(),
            nimbus_repro::dsp::percentile(&delays_ms, 50.0).to_bits()
        );
    }
}
