//! RTT-estimator edge cases: behaviour on the very first sample, and how a
//! single spurious spike (e.g. a delayed ACK after a retransmission) moves —
//! and does not move — each of the estimator's outputs.

use nimbus_netsim::Time;
use nimbus_transport::RttEstimator;

#[test]
fn first_sample_initializes_all_outputs() {
    let mut e = RttEstimator::default();
    assert!(e.srtt().is_none());
    assert!(e.latest().is_none());
    assert!(e.global_min_rtt().is_none());
    assert!(e.queueing_delay().is_none());
    assert_eq!(e.rto(), Time::from_millis(1000), "pre-sample RTO default");

    e.on_sample(Time::from_millis(80));
    // RFC 6298: SRTT := R, RTTVAR := R/2 on the first sample.
    assert_eq!(e.srtt().unwrap(), Time::from_millis(80));
    assert_eq!(e.global_min_rtt().unwrap(), Time::from_millis(80));
    assert_eq!(e.queueing_delay().unwrap(), Time::ZERO);
    // RTO = SRTT + 4·RTTVAR = 80 + 160 = 240 ms.
    assert_eq!(e.rto(), Time::from_millis(240));
}

#[test]
fn single_spike_barely_moves_srtt_and_never_moves_the_min() {
    let mut e = RttEstimator::default();
    for _ in 0..100 {
        e.on_sample(Time::from_millis(50));
    }
    let srtt_before = e.srtt().unwrap().as_millis_f64();
    // One 1-second spike.
    e.on_sample(Time::from_secs_f64(1.0));
    let srtt_after = e.srtt().unwrap().as_millis_f64();
    // EWMA with alpha 1/8: the spike moves SRTT by (1000-50)/8 ≈ 119 ms.
    assert!(srtt_after - srtt_before < 125.0, "srtt moved {srtt_after}");
    assert!(srtt_after > srtt_before, "spike must move srtt somewhat");
    // The propagation-delay estimate must be immune to the spike.
    assert_eq!(e.global_min_rtt().unwrap(), Time::from_millis(50));
    // Queueing-delay estimate reflects the spike (latest − min).
    assert_eq!(e.queueing_delay().unwrap(), Time::from_millis(950));
}

#[test]
fn spike_inflates_rto_then_recovery_drains_it() {
    let mut e = RttEstimator::default();
    for _ in 0..100 {
        e.on_sample(Time::from_millis(50));
    }
    let rto_before = e.rto();
    e.on_sample(Time::from_secs_f64(1.0));
    let rto_spiked = e.rto();
    assert!(
        rto_spiked > rto_before,
        "a spike must inflate the RTO ({rto_before:?} -> {rto_spiked:?})"
    );
    // Steady samples afterwards pull the RTO back toward the floor.
    for _ in 0..200 {
        e.on_sample(Time::from_millis(50));
    }
    assert!(
        e.rto() < rto_spiked.mul_f64(0.5),
        "RTO must recover after the spike ({:?})",
        e.rto()
    );
}

#[test]
fn rto_is_floored_for_low_jitter_paths() {
    let mut e = RttEstimator::default();
    for _ in 0..500 {
        e.on_sample(Time::from_millis(10));
    }
    // SRTT 10 ms with ~zero variance: the 200 ms floor must apply.
    assert_eq!(e.rto(), Time::from_millis(200));
}
