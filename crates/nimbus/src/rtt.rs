//! Round-trip-time estimation.
//!
//! Standard RFC 6298 SRTT/RTTVAR smoothing with an RTO floor, plus the
//! minimum RTT ever observed, which the sender machinery hands to its
//! controller in every [`AckEvent`](crate::cc::AckEvent) and uses as the
//! CCP report's S/R measurement window.  Controllers that want a windowed
//! minimum (BBR's 10 s `min_rtt`) keep their own filter.

use nimbus_core_types::Time;

/// RFC 6298's lower bound on the retransmission timeout is 1 s; the
/// simulated transport uses Linux's 200 ms.
const RTO_FLOOR: Time = Time::from_millis(200);

/// SRTT / RTTVAR / RTO estimator plus min-RTT tracking.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    latest: Option<Time>,
    global_min: Option<Time>,
}

impl RttEstimator {
    /// Feed one RTT sample.
    pub fn on_sample(&mut self, rtt: Time) {
        let r = rtt.as_secs_f64();
        self.latest = Some(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298 with alpha=1/8, beta=1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        self.global_min = Some(match self.global_min {
            None => rtt,
            Some(m) => m.min(rtt),
        });
    }

    /// Smoothed RTT, if at least one sample has been seen.
    pub fn srtt(&self) -> Option<Time> {
        self.srtt.map(Time::from_secs_f64)
    }

    /// The most recent raw RTT sample.
    pub fn latest(&self) -> Option<Time> {
        self.latest
    }

    /// Minimum RTT ever observed (the propagation-delay estimate; never
    /// expires).
    pub fn global_min_rtt(&self) -> Option<Time> {
        self.global_min
    }

    /// Retransmission timeout: `SRTT + 4·RTTVAR`, floored.
    pub fn rto(&self) -> Time {
        match self.srtt {
            None => Time::from_millis(1000),
            Some(srtt) => {
                let rto = Time::from_secs_f64(srtt + 4.0 * self.rttvar.max(0.001));
                rto.max(RTO_FLOOR)
            }
        }
    }

    /// Queueing-delay estimate: latest RTT minus minimum RTT.
    pub fn queueing_delay(&self) -> Option<Time> {
        match (self.latest, self.global_min) {
            (Some(l), Some(m)) => Some(l.saturating_sub(m)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_srtt() {
        let mut e = RttEstimator::default();
        assert!(e.srtt().is_none());
        e.on_sample(Time::from_millis(100));
        assert_eq!(e.srtt().unwrap(), Time::from_millis(100));
        assert_eq!(e.latest().unwrap(), Time::from_millis(100));
    }

    #[test]
    fn srtt_smooths_towards_samples() {
        let mut e = RttEstimator::default();
        e.on_sample(Time::from_millis(100));
        for _ in 1..200 {
            e.on_sample(Time::from_millis(50));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 50.0).abs() < 1.0, "srtt {srtt}");
    }

    #[test]
    fn min_rtt_tracks_smallest_sample() {
        let mut e = RttEstimator::default();
        e.on_sample(Time::from_millis(80));
        e.on_sample(Time::from_millis(52));
        e.on_sample(Time::from_millis(95));
        assert_eq!(e.global_min_rtt().unwrap(), Time::from_millis(52));
        assert_eq!(e.queueing_delay().unwrap(), Time::from_millis(43));
    }

    #[test]
    fn rto_has_floor_and_grows_with_variance() {
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(), Time::from_millis(1000));
        e.on_sample(Time::from_millis(10));
        assert!(e.rto() >= Time::from_millis(200));
        // Large variance inflates the RTO.
        let mut noisy = RttEstimator::default();
        for i in 0..50 {
            let r = if i % 2 == 0 { 50 } else { 350 };
            noisy.on_sample(Time::from_millis(r));
        }
        assert!(noisy.rto() > Time::from_millis(400));
    }
}
