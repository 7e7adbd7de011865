//! The data-collection application layer.
//!
//! Implements the workload of the paper's evaluation: every source
//! generates Poisson traffic and sends it hop by hop along a static
//! routing tree to the sink, which accounts end-to-end PDR and delay.
//! All transmissions go through the contention MAC (primary traffic
//! over the CAP — the setting of §6.1 and §6.2).

use qma_netsim::{Address, AppInfo, Frame, NodeId, TxResult, UpperCtx, UpperLayer};

use crate::traffic::TrafficPattern;

/// Configuration of one node's [`CollectionApp`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionConfig {
    /// This node's traffic source.
    pub pattern: TrafficPattern,
    /// Next hop toward the sink (`None` for the sink itself).
    pub next_hop: Option<NodeId>,
    /// The sink (end-to-end accounting happens there).
    pub sink: NodeId,
    /// Application payload size in octets (drives airtime; the
    /// default 60 gives ≈ 2.6 ms frames — 2–3 subslots, as in the
    /// paper's "transmissions span over up to 3 subslots").
    pub payload_octets: u16,
}

impl CollectionConfig {
    /// A sink/forwarder with no own traffic.
    pub fn silent(next_hop: Option<NodeId>, sink: NodeId) -> Self {
        CollectionConfig {
            pattern: TrafficPattern::Silent,
            next_hop,
            sink,
            payload_octets: 60,
        }
    }
}

/// Timer tags.
const TAG_ARRIVAL: u64 = 1;

/// The data-collection upper layer.
#[derive(Debug)]
pub struct CollectionApp {
    cfg: CollectionConfig,
    generated: u64,
    seq: u32,
}

impl CollectionApp {
    /// Creates the app for one node.
    pub fn new(cfg: CollectionConfig) -> Self {
        CollectionApp {
            cfg,
            generated: 0,
            seq: 0,
        }
    }

    /// The app's configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.cfg
    }

    /// Packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn schedule_next_arrival(&mut self, ctx: &mut UpperCtx<'_>) {
        let now = ctx.now();
        if let Some(at) = self
            .cfg
            .pattern
            .next_arrival(now, self.generated, ctx.rng())
        {
            ctx.schedule(at.since(now), TAG_ARRIVAL);
        }
    }

    fn send_towards_sink(&mut self, ctx: &mut UpperCtx<'_>, app: AppInfo) {
        let Some(next) = self.cfg.next_hop else {
            return; // the sink does not forward
        };
        let node = ctx.node;
        self.seq = self.seq.wrapping_add(1);
        let frame = Frame::data(
            node,
            Address::Node(next),
            self.seq,
            self.cfg.payload_octets,
            true,
        )
        .with_app(app);
        ctx.enqueue_mac(frame);
    }
}

impl UpperLayer for CollectionApp {
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        self.schedule_next_arrival(ctx);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        if tag != TAG_ARRIVAL {
            return;
        }
        let node = ctx.node;
        let now = ctx.now();
        self.generated += 1;
        ctx.metrics().app_generated(node);
        let app = AppInfo {
            origin: node,
            id: self.generated,
            created_at: now,
            hops: 0,
        };
        self.send_towards_sink(ctx, app);
        self.schedule_next_arrival(ctx);
    }

    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        let Some(app) = frame.app else {
            return; // management traffic is not ours
        };
        let node = ctx.node;
        if node == self.cfg.sink {
            let delay = ctx.now().since(app.created_at).as_secs_f64();
            ctx.metrics().app_delivered(app.origin, delay);
        } else {
            // Forward along the tree.
            let hopped = AppInfo {
                hops: app.hops + 1,
                ..app
            };
            self.send_towards_sink(ctx, hopped);
        }
    }

    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        // Losses show up as missing deliveries in the PDR; we also
        // keep per-cause counters for the analysis sections.
        let name = match result {
            TxResult::Delivered => "app_mac_delivered",
            TxResult::RetryLimit => "app_mac_retry_drop",
            TxResult::ChannelAccessFailure => "app_mac_ca_drop",
        };
        ctx.metrics().count(name, 1.0);
        let _ = frame;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qma_des::{SimDuration, SimTime};
    use qma_mac::{CsmaConfig, CsmaMac};
    use qma_netsim::{FrameClock, SimBuilder};
    use qma_topo::Topology;

    fn collection_sim(
        topology: &Topology,
        rate: f64,
        limit: u64,
        seed: u64,
    ) -> qma_netsim::Sim<Box<CsmaMac>, Box<CollectionApp>> {
        let sink = NodeId(topology.sink as u32);
        let parents: Vec<Option<NodeId>> = topology
            .parent
            .iter()
            .map(|p| p.map(|i| NodeId(i as u32)))
            .collect();
        SimBuilder::new(topology.connectivity.clone(), seed)
            .clock(FrameClock::dsme_so3())
            .mac_factory(|_, clock| Box::new(CsmaMac::new(CsmaConfig::unslotted(), *clock)))
            .upper_factory(move |node, _| {
                let pattern = if node == sink {
                    TrafficPattern::Silent
                } else {
                    TrafficPattern::Poisson {
                        rate,
                        start: SimTime::from_secs(1),
                        limit: Some(limit),
                    }
                };
                Box::new(CollectionApp::new(CollectionConfig {
                    pattern,
                    next_hop: parents[node.index()],
                    sink,
                    payload_octets: 60,
                }))
            })
            .build()
    }

    #[test]
    fn single_hop_collection_delivers() {
        let topo = qma_topo::hidden_node();
        let mut sim = collection_sim(&topo, 2.0, 20, 3);
        sim.run_for(SimDuration::from_secs(40));
        let m = sim.metrics();
        // Light load: almost everything arrives despite hidden nodes.
        let pdr = m.pdr_of([NodeId(0), NodeId(2)]).unwrap();
        assert!(pdr > 0.8, "pdr {pdr}");
        assert!(m.mean_delay_of([NodeId(0), NodeId(2)]).unwrap() > 0.0);
    }

    #[test]
    fn multi_hop_forwarding_reaches_sink() {
        let topo = qma_topo::line(4, 10.0);
        let mut sim = collection_sim(&topo, 1.0, 10, 9);
        sim.run_for(SimDuration::from_secs(60));
        let m = sim.metrics();
        // The farthest node (3 hops) must still deliver most packets.
        let pdr = m.pdr(NodeId(3)).unwrap();
        assert!(pdr > 0.7, "3-hop pdr {pdr}");
        // Delay grows with distance.
        let d1 = m.mean_delay(NodeId(1)).unwrap();
        let d3 = m.mean_delay(NodeId(3)).unwrap();
        assert!(d3 > d1, "delay not increasing with hops: {d1} vs {d3}");
    }

    #[test]
    fn generation_budget_respected() {
        let topo = qma_topo::hidden_node();
        let mut sim = collection_sim(&topo, 50.0, 30, 5);
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(sim.metrics().generated(NodeId(0)), 30);
        assert_eq!(sim.metrics().generated(NodeId(2)), 30);
        assert_eq!(sim.metrics().generated(NodeId(1)), 0);
    }
}
