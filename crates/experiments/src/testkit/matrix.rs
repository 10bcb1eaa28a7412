//! The paper-invariant matrix: the scenario-matrix table the harness runs.

use super::{cells, Cell, Invariants};

/// The paper-invariant matrix: one table of whole-cell strings and the
/// invariants each asserts, in six sections — single bottleneck, multi-hop
/// paths, spec combinations, µ-estimation strategies, fleet churn and ECN.
/// `tests/scenario_matrix.rs` runs it once and pins every cell's
/// fingerprint.  Kept short enough (~30 simulated seconds per cell) that
/// the whole matrix runs in well under two minutes of wall clock under
/// `cargo test`.
pub fn paper_invariant_matrix() -> Vec<Cell> {
    cells(&[
        // ---- Single bottleneck ----------------------------------------------
        // The headline claims of Figs. 1/8 and Appendix D.  These 18 cells
        // predate both the path engine and the `SchemeSpec` redesign; every
        // refactor of the scheme or engine layers has reproduced their
        // fingerprints byte for byte.
        //
        // Fig. 1a: Cubic fills the 100 ms buffer (bufferbloat) but also the link.
        (
            &[
                "cubic@48M vs alone seed=3 dur=30s steady=8s",
                "cubic@48M vs alone seed=11 dur=30s steady=8s",
            ],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        ),
        // Fig. 1b: Vegas keeps the queue nearly empty at full throughput.
        (
            &[
                "vegas@48M vs alone seed=3 dur=30s steady=8s",
                "vegas@48M vs alone seed=11 dur=30s steady=8s",
            ],
            Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(15.0),
                ..Invariants::default()
            },
        ),
        // The motivating failure: Vegas starved by an elastic Cubic competitor.
        (
            &[
                "vegas@96M vs cubic seed=5 dur=40s steady=15s",
                "vegas@96M vs cubic seed=13 dur=40s steady=15s",
            ],
            Invariants {
                max_throughput_mbps: Some(30.0),
                ..Invariants::default()
            },
        ),
        // Appendix D.1: Nimbus holds delay mode under 83% (5/6 of µ) CBR
        // cross traffic.
        (
            &[
                "nimbus@96M vs cbr@0.8333333333333334 seed=4 dur=40s steady=10s",
                "nimbus@96M vs cbr@0.8333333333333334 seed=12 dur=40s steady=10s",
            ],
            Invariants {
                min_throughput_mbps: Some(8.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.5),
                ..Invariants::default()
            },
        ),
        // Fig. 1c right half: Nimbus vs inelastic Poisson cross traffic — low
        // delay, near fair-share throughput, delay mode.
        (
            &[
                "nimbus@48M vs poisson@0.5 seed=1 dur=30s steady=8s",
                "nimbus@48M vs poisson@0.5 seed=9 dur=30s steady=8s",
            ],
            Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.6),
                ..Invariants::default()
            },
        ),
        // Fig. 1c left half: Nimbus vs an elastic Cubic competitor — must detect
        // elasticity, switch to competitive mode and hold a useful share.
        (
            &[
                "nimbus@48M vs cubic seed=2 dur=45s steady=15s",
                "nimbus@48M vs cubic seed=10 dur=45s steady=15s",
            ],
            Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // Nimbus alone: nothing elastic to compete with, so it must stay in
        // delay mode and keep the queue near its small target.
        (
            &[
                "nimbus@48M vs alone seed=6 dur=30s steady=8s",
                "nimbus@48M vs alone seed=14 dur=30s steady=8s",
            ],
            Invariants {
                min_throughput_mbps: Some(30.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        // Varying link, µ estimation (§4.2): a lone Nimbus flow learning µ from
        // its max receive rate must track a ±25% sinusoid within tolerance (the
        // 10-second max filter rides the upper envelope, so the mean relative
        // error against the instantaneous µ(t) stays bounded, not tiny).
        (
            &["nimbus(mu=learned)@48M sin(0.25,20s) vs alone seed=7 dur=40s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(20.0),
                max_mu_error: Some(0.35),
                ..Invariants::default()
            },
        ),
        // Varying link, detector stability: alone on a ±10% oscillating link
        // there is nothing elastic, and the oscillation (0.1 Hz) is far from the
        // pulse frequency (5 Hz) — Nimbus must hold delay mode.  (At ±25% the
        // µ-error leaks the flow's own pulse into ẑ and the detector degrades;
        // the `varying_detector` experiment quantifies that cliff.)
        (
            &["nimbus@48M sin(0.1,10s) vs alone seed=8 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(35.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        ),
        // Varying link, rate step: Cubic and Nimbus must both follow a 96→48
        // Mbit/s step — post-step throughput near the new µ, not the old one.
        (
            &[
                "cubic@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s",
                "nimbus@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s",
            ],
            Invariants {
                min_throughput_mbps: Some(35.0),
                max_throughput_mbps: Some(50.0),
                ..Invariants::default()
            },
        ),

        // ---- Multi-hop paths ------------------------------------------------
        // A fixed secondary bottleneck, a *moving* bottleneck (anti-phase
        // steps on hops 0 and 1), learned-µ tracking of the path minimum,
        // doubly-saturated hops, and elastic traffic on the non-bottleneck
        // hop.
        //
        // Fixed secondary bottleneck at 60% of the base rate: the path minimum
        // (28.8 Mbit/s) caps throughput for both schemes; Cubic bufferbloats the
        // tight hop's 100 ms buffer while Nimbus (alone, nothing elastic) must
        // keep the path queues low and hold delay mode.
        (
            &["nimbus@48M hop(0.6) vs alone seed=21 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(20.0),
                max_throughput_mbps: Some(30.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        ),
        (
            &["cubic@48M hop(0.6) vs alone seed=21 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(24.0),
                max_throughput_mbps: Some(30.0),
                min_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        ),
        // Moving bottleneck: hop 0 steps 48 → 24 Mbit/s at t = 15 s while hop 1
        // steps 24 → 48 Mbit/s — the path minimum is 24 Mbit/s throughout but the
        // hop imposing it swaps sides.  Throughput must track the (unchanged)
        // minimum across the swap, and Nimbus — alone, nothing elastic — must not
        // mistake the migrating queue for elastic cross traffic (measured stable:
        // delay-mode fraction 1.00, path queueing delay ~13 ms).
        (
            &["cubic@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(18.0),
                max_throughput_mbps: Some(26.0),
                ..Invariants::default()
            },
        ),
        (
            &["nimbus@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(18.0),
                max_throughput_mbps: Some(26.0),
                min_delay_mode_fraction: Some(0.85),
                max_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        ),
        // Learned µ on a two-hop path whose *non*-bottleneck first hop oscillates
        // ±10%: the estimate must track the constant 28.8 Mbit/s path minimum,
        // not the noisy 48 Mbit/s first hop (which would be a ~67% error).
        // Measured tracking error is ~0; the 0.15 ceiling leaves slack while
        // still ruling out any first-hop capture.
        (
            &["nimbus(mu=learned)@48M sin(0.1,10s) hop(0.6) vs alone seed=27 dur=40s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(18.0),
                max_mu_error: Some(0.15),
                ..Invariants::default()
            },
        ),
        // Two simultaneously near-saturated hops: an elastic Cubic competitor
        // confined to hop 0 contends with Nimbus for the 48 Mbit/s first hop,
        // while hop 1 at 50% (24 Mbit/s) caps whatever Nimbus wins there — at
        // the fair hop-0 split both hops carry a standing queue at once.
        // Nimbus must still recognize the hop-0 competition as elastic and
        // fight for (and hold) roughly the hop-1 cap.
        (
            &["nimbus@48M hop(0.5) vs cubic@hop0-0 seed=29 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(10.0),
                max_throughput_mbps: Some(26.0),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // Elastic cross traffic confined to the *non*-bottleneck hop: the
        // path's nominal bottleneck is hop 1 at 60% (28.8 Mbit/s), but a
        // backlogged Cubic on hop 0 pushes Nimbus's hop-0 share below that —
        // elasticity must be detected even though it never touches the
        // nominal bottleneck queue.
        (
            &["nimbus@48M hop(0.6) vs cubic@hop0-0 seed=31 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(10.0),
                max_throughput_mbps: Some(30.0),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),

        // ---- Spec combinations ----------------------------------------------
        // Wrapper compositions a closed scheme enum could not express — a
        // NewReno-competitive Nimbus, a Copa-delay wrapper with
        // runtime-learned µ, heterogeneous three-way competition, and curated
        // built-in rate traces.  Each asserts paper invariants, so the
        // compositional spec path is gated on behaviour, not just on
        // construction succeeding.
        //
        // nimbus(competitive=reno) vs an elastic Cubic competitor: the
        // wrapper must detect elasticity and the NewReno inner scheme must
        // hold a useful share of the 48 Mbit/s link.
        (
            &["nimbus(competitive=reno)@48M vs cubic seed=35 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(10.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // nimbus(delay=copa,mu=learned) alone: the learned µ must settle on
        // the true rate and the Copa delay mode must keep the queue near
        // empty at full throughput with nothing elastic around.  (On an
        // oscillating link every learned-µ wrapper currently loses delay
        // mode — the µ error leaks the pulse into ẑ; see ROADMAP.)
        (
            &["nimbus(delay=copa,mu=learned)@48M vs alone seed=36 dur=40s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                max_mu_error: Some(0.1),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        // Heterogeneous competition on one bottleneck: Nimbus vs standalone
        // Copa vs Cubic.  The Cubic competitor makes the mix elastic, so
        // Nimbus must switch and keep a useful share of the three-way split.
        (
            &["nimbus@96M vs copa+cubic seed=37 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(12.0),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // A curated built-in trace (Wi-Fi-like variation): Cubic must keep
        // filling the moving pipe.
        (
            &["cubic@48M trace-wifi vs alone seed=38 dur=30s steady=8s"],
            Invariants {
                min_throughput_mbps: Some(25.0),
                ..Invariants::default()
            },
        ),
        // The cellular-like trace with its deep fade: guards the
        // double-timeout go-back-N recovery (a wedged flow reads ~0 here;
        // see `tests/trace_links.rs` for the minimized repro).
        (
            &["cubic@48M trace-cellular vs alone seed=39 dur=30s steady=8s"],
            Invariants {
                min_throughput_mbps: Some(15.0),
                ..Invariants::default()
            },
        ),

        // ---- µ-estimation strategies ----------------------------------------
        // The two ROADMAP regimes where the hardwired max-filter learned µ
        // degrades, recovered under a non-default estimator/ẑ-filter, plus a
        // guard that the adaptive thresholds do not suppress *genuine*
        // elasticity.
        //
        // ROADMAP regime (b): on the cellular deep-fade trace the max-filter
        // learned µ collapses to the pacing floor and deadlocks (µ̂ ≈ recv
        // rate ≈ pace ≈ 120 kbit/s, 0.12 Mbit/s throughput while BBR gets
        // ~38).  Probe-up epochs plus the delivery-informed pace/window cap
        // break the fixed point: ≥ 10 Mbit/s required (measured 14.7).
        (
            &["nimbus(mu=learned(probe=1))@48M trace-cellular vs alone seed=44 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(10.0),
                ..Invariants::default()
            },
        ),
        // ROADMAP regime (a): learned-µ wrappers lose delay mode on a ±10%
        // sinusoid where configured µ is stable (delay-fraction 0.07–0.25 —
        // the µ̂ error leaks the flow's own pulse into ẑ well below the
        // configured-µ cliff).  The µ-error-aware adaptive thresholds hold
        // delay mode ≥ 0.9 (measured 1.00, queueing delay 3.5 ms vs 39).
        (
            &["nimbus(mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(35.0),
                min_delay_mode_fraction: Some(0.9),
                max_queue_delay_ms: Some(20.0),
                ..Invariants::default()
            },
        ),
        // Guard: the adaptive bars must rise only for the µ̂-error *leak* —
        // against a genuine elastic Cubic competitor (which fills ẑ itself,
        // damping the scaling) the wrapper must still detect and switch.
        (
            &["nimbus(mu=learned,zfilter=adaptive)@96M vs cubic seed=42 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // The probing-estimator residual, quantified: on a *stable* link the
        // 2× probe epochs repeatedly refill the bottleneck queue, so the
        // always-probing estimator pays ~73 ms of steady queueing delay
        // where plain `mu=learned` pays ~13 — delay mode's low-delay
        // objective is the price of a probe schedule the converged filter no
        // longer needs.  This cell pins that cost so the residual stays
        // visible.
        (
            &["nimbus(mu=learned(probe=1))@48M vs alone seed=45 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        // …and recovered: with the auto-quiesce floor the probes stop once
        // the max filter converges (µ̂ uncertainty under 0.4), so on the same
        // stable link the delay cost collapses back to ~15 ms, while against
        // a genuinely elastic Cubic competitor the uncertainty stays high
        // enough that detection still works — the flow must switch to
        // competitive mode and hold a fair share (un-quiesced probe=1 never
        // switches at all: the held ẑ blanks the detector's input).
        (
            &["nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs alone seed=45 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        (
            &["nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs cubic seed=45 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // The flip side of that recovery, pinned as an invariant (ROADMAP
        // residual 3): what does *un*-quiesced `mu=learned(probe=1)` give
        // up against the same elastic Cubic competitor?  Detection itself.
        // The probe epochs hold ẑ at its pre-probe value, blanking the
        // detector's input, so the wrapper never classifies the competitor
        // as elastic — it reports delay mode the whole run (fraction 1.00,
        // never a switch).  It doesn't starve: the endless 2× probe epochs
        // overdrive µ̂ and the pace until the flow bulldozes Cubic off the
        // link (measured 47.7 of 48 Mbit/s) behind a ~73 ms standing queue
        // — "delay mode" in name only, with neither the low-delay objective
        // nor honest competition.  Same seed/link as the quiesce pair above,
        // so the cells differ only in the quiesce floor.
        (
            &["nimbus(mu=learned(probe=1))@48M vs cubic seed=45 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        ),
        // Documented residual: the adaptive ẑ-filter rescue of learned µ on
        // the ±10% sinusoid (the second cell above) is *partial* when the
        // delay half is Copa instead of basic-delay — Copa's own rate
        // oscillation beats against the sinusoid and leaks through the
        // µ̂-error-scaled bars, so `nimbus(delay=copa, mu=learned,
        // zfilter=adaptive)` holds delay mode only ~0.74 of the run where
        // the basic-delay wrapper holds ≥ 0.9.  Pinned as a band (not a
        // floor) so the residual stays visible: an accidental fix would
        // trip the ceiling and upgrade the threshold deliberately.
        (
            &["nimbus(delay=copa,mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(35.0),
                min_delay_mode_fraction: Some(0.55),
                max_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),

        // ---- Fleet churn ----------------------------------------------------
        // §8.1 at population scale: a long-lived monitored flow shares the
        // bottleneck with a `fleet(…)` population that arrives, transfers
        // and retires continuously.  Does that churn *read as elastic* to a
        // long-lived Nimbus flow?  Measured answer: no, across every mixture
        // tried (loads 0.4–0.7, mean sizes 20 kB–2 MB, Poisson and bursty
        // arrivals, several seeds the delay-mode fraction stays 1.00).
        // Individual elephants are elastic while they last, but arrivals and
        // departures reshuffle the aggregate's share faster than the
        // detector's decision window, so the cross-correlation signature of
        // a backlogged competitor never accumulates — the paper's premise
        // that typical WAN cross traffic should be treated as inelastic
        // (§2).
        //
        // Detector stability: pure-mice churn (mean 20 kB — flows last a few
        // RTTs each) at 40% offered load.  Nothing in the population is
        // durably ACK-clocked, so Nimbus must hold delay mode and keep the
        // queue short while taking roughly the residual capacity.
        (
            &["nimbus@48M vs fleet(load=0.4,mean=20k) seed=51 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        ),
        // The same churn through bursty (Pareto) arrivals: batches of
        // simultaneous mice still must not read as a backlogged competitor.
        (
            &["nimbus@48M vs fleet(arrivals=bursty,load=0.4,mean=20k) seed=51 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.8),
                ..Invariants::default()
            },
        ),
        // Heavy-tailed churn (default CAIDA-like mixture, 50% load): even
        // with elephants regularly in flight the detector must NOT latch
        // onto any single one — the population churns underneath it, so the
        // long-lived flow holds delay mode (measured 1.00) and keeps its
        // residual share at low delay.
        (
            &["nimbus@48M vs fleet(load=0.5) seed=52 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(15.0),
                max_queue_delay_ms: Some(40.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        // The FCT-comparison partner cell: the same heavy-tailed churn
        // against a long-lived Cubic.  Churn loss keeps Cubic's window —
        // and the standing queue — far below its solo bufferbloat (measured
        // ~16 ms vs ~50+ alone), and its loss-based probing takes *less*
        // of the link than Nimbus's delay mode does under identical churn
        // (12.7 vs 23.5 Mbit/s).  `fleet_fct` quantifies the same pairing
        // from the fleet's side as FCT distributions.
        (
            &["cubic@48M vs fleet(load=0.5) seed=52 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(8.0),
                max_queue_delay_ms: Some(40.0),
                ..Invariants::default()
            },
        ),

        // ---- ECN ------------------------------------------------------------
        // Marking queues (`ecn=classic` and the shallow `ecn=l4s` step
        // profile), the DCTCP scalable reaction, and the Nimbus detector when
        // congestion is signalled by marks instead of drops or delay.  Three
        // ROADMAP questions, answered:
        // 1. Does the pulse survive a shallow-marking queue?  Yes — under
        //    the 1 ms L4S step marker the standing queue the pulses ride on
        //    is tiny, but the pulses live in the *rate* signal, so alone on
        //    an L4S hop the flow holds delay mode at full throughput.
        // 2. Can mark-rate cross-validate ẑ?  Yes — against an elastic
        //    competitor on a classic-ECN queue the persistent CE fraction
        //    agrees with ẑ and the controller flips to competitive well
        //    inside one FFT window (the timing assertion lives in
        //    `nimbus-core`'s controller tests).
        // 3. Does `nimbus(competitive=dctcp)` coexist on a classic-ECN
        //    queue?  Yes — against a DCTCP competitor it detects elasticity
        //    and takes a fair share with the same proportional law.
        //
        // DCTCP alone on an L4S step-marking hop: the scalable reaction
        // holds the queue near the 1 ms marking threshold — full link,
        // milliseconds of delay, zero drops (the l4s runner test pins the
        // zero-drop half).
        (
            &["dctcp@48M ecn=l4s vs alone seed=61 dur=30s steady=8s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(8.0),
                ..Invariants::default()
            },
        ),
        // The Prague-style fall-back: the same DCTCP flow on a plain drop
        // queue (no marking anywhere) must still work — marks never arrive,
        // so the Reno-like loss reaction governs and the flow fills the
        // link behind a droptail standing queue.
        (
            &["dctcp@48M vs alone seed=61 dur=30s steady=8s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(20.0),
                ..Invariants::default()
            },
        ),
        // Classic ECN (RFC 3168 semantics, marks at the AQM's drop point):
        // Cubic keeps the link full but the once-per-window β cut now fires
        // at half buffer instead of overflow, so the bloat sits at roughly
        // half its droptail level.
        (
            &["cubic@48M ecn=classic vs alone seed=61 dur=30s steady=8s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_queue_delay_ms: Some(20.0),
                max_queue_delay_ms: Some(70.0),
                ..Invariants::default()
            },
        ),
        // ROADMAP question 1 — pulse survival: Nimbus alone on the shallow
        // L4S marker.  The 1 ms step cuts the queueing-delay headroom the
        // pulses used to ride on by an order of magnitude; the detector
        // must still read its own reflection as inelastic (hold delay
        // mode) at full utilization.
        (
            &["nimbus@48M ecn=l4s vs alone seed=62 dur=40s steady=10s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                max_queue_delay_ms: Some(20.0),
                min_delay_mode_fraction: Some(0.9),
                ..Invariants::default()
            },
        ),
        // Documented finding — delay-mode Nimbus is not scalable-marking
        // compliant.  Its delay target (~12 ms of queue) sits an order of
        // magnitude above the L4S step threshold, so a DCTCP competitor
        // sees CE on every packet, cuts to its floor, and Nimbus takes the
        // link.  With the competitor crushed there is nothing elastic left
        // to detect (ẑ ≈ 0), so staying in delay mode is the *correct*
        // verdict — the unfairness is a compliance gap, not a detection
        // bug.  Pinned so a future Prague-style sub-threshold delay target
        // shows up as a deliberate threshold change.
        (
            &["nimbus@48M ecn=l4s vs dctcp seed=2 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(40.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        ),
        // ROADMAP questions 2 and 3 together — nimbus(competitive=dctcp)
        // vs DCTCP on a classic-ECN queue.  DCTCP parks the queue at the
        // marking threshold (~50 ms), far above Nimbus's delay target, so
        // the rate law yields and the FFT goes sample-starved — but unlike
        // the Cubic residual below, the marks here are *persistent*, and
        // the windowed mark fraction (counted over ACKed packets, so ACK
        // sparsity cannot masquerade as mark absence) cross-validates the
        // starved flow's own ẑ ≈ µ reading to flip the controller
        // competitive without a full FFT window.  Competitive
        // mode then speaks DCTCP's own proportional mark language and the
        // flows coexist.
        (
            &["nimbus(competitive=dctcp)@48M ecn=classic vs dctcp seed=2 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(12.0),
                max_delay_mode_fraction: Some(0.9),
                must_enter_competitive: true,
                ..Invariants::default()
            },
        ),
        // Documented residual: delay-mode Nimbus vs an ECT Cubic on a
        // *classic* marking queue starves and never detects.  The marking
        // point (half buffer) tames Cubic into a 35–50 ms sawtooth: deep
        // enough to sit above delay mode's operating point (so the rate law
        // yields), never deep enough for a sustained mark fraction, and the
        // starved flow's ACK stream is too sparse to fill the detector's
        // FFT window — the droptail escape hatch (the competitor's slow-
        // start overflow losses) never happens, because marks absorb them.
        // Pinned so the failure mode stays visible until detection under
        // sample starvation is addressed.
        (
            &["nimbus@48M ecn=classic vs cubic seed=2 dur=45s steady=15s"],
            Invariants {
                max_throughput_mbps: Some(5.0),
                min_delay_mode_fraction: Some(0.95),
                ..Invariants::default()
            },
        ),
        // DCTCP coexisting with Cubic on one classic-ECN queue: both see
        // the same marks, Cubic cuts by β while DCTCP cuts by α/2, and
        // neither starves.
        (
            &["dctcp@48M ecn=classic vs cubic seed=65 dur=45s steady=15s"],
            Invariants {
                min_throughput_mbps: Some(15.0),
                ..Invariants::default()
            },
        ),
    ])
}
