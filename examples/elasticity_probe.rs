//! Use the elasticity detector as a stand-alone measurement tool: probe a
//! bottleneck shared with unknown cross traffic and report η over time.
//!
//! The paper suggests exactly this use ("a measurement and diagnostic tool to
//! detect the nature of cross traffic", §1).  The verdicts stream out of the
//! controller through its [`Publisher`] hook as the simulation runs.
//!
//! ```text
//! cargo run --release --example elasticity_probe -- [elastic|inelastic]
//! ```

use nimbus_repro::netsim::{FlowConfig, Network, SimConfig, Time};
use nimbus_repro::nimbus::{DetectorVerdict, NimbusConfig, NimbusController, Publisher};
use nimbus_repro::transport::{
    BackloggedSource, CcKind, PathInfo, PoissonSource, Sender, SenderConfig, MSS,
};
use std::sync::{Arc, Mutex};

/// Verdicts from 6 s on, and how many of them judged the traffic elastic.
#[derive(Default)]
struct Tally {
    in_window: usize,
    elastic: usize,
}

/// Prints every 200th verdict and tallies the ones in [6 s, 40 s].
struct Verdicts {
    seen: usize,
    tally: Arc<Mutex<Tally>>,
}

impl Publisher for Verdicts {
    fn on_verdict(&mut self, now_s: f64, v: &DetectorVerdict) {
        if self.seen.is_multiple_of(200) {
            println!(
                "  {:5.1}  {:6.2}  {}",
                v.t_s,
                v.eta.min(99.0),
                if v.elastic { "elastic" } else { "inelastic" }
            );
        }
        self.seen += 1;
        if (6.0..=40.0).contains(&now_s) {
            let mut tally = self.tally.lock().unwrap();
            tally.in_window += 1;
            tally.elastic += v.elastic as usize;
        }
    }
}

fn main() {
    let kind = std::env::args().nth(1).unwrap_or_else(|| "elastic".into());
    let mu = 96e6;
    let mut net = Network::new(SimConfig::new(mu, 0.1, 40.0));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let mut probe = NimbusController::new(NimbusConfig::default_for_link(mu));
    probe.set_publisher(Box::new(Verdicts {
        seen: 0,
        tally: Arc::clone(&tally),
    }));
    net.add_flow(
        FlowConfig::primary("probe", Time::from_millis(50)),
        Box::new(Sender::new(
            SenderConfig::labelled("probe"),
            Box::new(probe),
            Box::new(BackloggedSource),
        )),
    );
    match kind.as_str() {
        "inelastic" => {
            net.add_flow(
                FlowConfig::cross("poisson", Time::from_millis(50), false),
                Box::new(Sender::new(
                    SenderConfig::labelled("poisson"),
                    CcKind::Unlimited.build(&PathInfo::new(MSS)),
                    Box::new(PoissonSource::new(48e6, 3)),
                )),
            );
        }
        _ => {
            net.add_flow(
                FlowConfig::cross("cubic", Time::from_millis(50), true),
                Box::new(Sender::new(
                    SenderConfig::labelled("cubic"),
                    CcKind::Cubic.build(&PathInfo::new(MSS)),
                    Box::new(BackloggedSource),
                )),
            );
        }
    }
    println!("cross traffic: {kind}");
    println!("  t(s)    eta   verdict");
    net.run();
    let tally = tally.lock().unwrap();
    let frac = if tally.in_window == 0 {
        0.0
    } else {
        tally.elastic as f64 / tally.in_window as f64
    };
    println!("fraction of verdicts judging the traffic elastic: {frac:.2}");
}
