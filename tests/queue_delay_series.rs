//! The recorder keeps no per-packet queueing delays: each sampling interval
//! folds its monitored packets' delays into one mean.  The `queue_delay_ms`
//! series must hold, for every interval, the mean of the `f64` milliseconds
//! `Time::as_millis_f64` gives for the delays dequeued in it (summed in
//! dequeue order), NaN for an interval with none, and nothing from an
//! unmonitored flow; the snapshot must write exactly that series.

use nimbus_repro::netsim::{Recorder, RecorderConfig, Time};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn queue_delay_series_is_each_intervals_mean_of_monitored_delays(
        intervals in vec(vec((0u8..2, 0u64..1 << 34), 0..64), 1..40),
    ) {
        let mut rec = Recorder::new(RecorderConfig::default(), 1);
        rec.register_flow(0, "monitored".into(), None, true, Time::ZERO, None);
        rec.register_flow(1, "cross".into(), None, false, Time::ZERO, None);

        let mut expected = Vec::with_capacity(intervals.len());
        for (i, packets) in intervals.iter().enumerate() {
            let (mut sum, mut count) = (0.0, 0u64);
            for &(flow, ns) in packets {
                let delay = Time::from_nanos(ns);
                if flow == 0 {
                    rec.on_dequeue(0, delay);
                    sum += delay.as_millis_f64();
                    count += 1;
                } else {
                    rec.on_dequeue(1, delay);
                }
            }
            expected.push(if count > 0 { sum / count as f64 } else { f64::NAN });
            rec.sample(Time::from_millis(10 * (i as u64 + 1)), &[0]);
        }

        prop_assert_eq!(rec.monitored_slot(1), None);
        let series = rec.queue_delay_ms(0);
        let got: Vec<u64> = series.v.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);

        let snapshot = serde_json::to_string(&rec.snapshot()).unwrap();
        let listed = format!(
            "\"queue_delay_ms\":[{}]",
            serde_json::to_string(&series).unwrap()
        );
        prop_assert!(snapshot.contains(&listed));
    }
}
