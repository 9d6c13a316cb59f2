//! Interconnection network between SMs and L2 banks.
//!
//! The paper's GPU connects 15 SM clusters to 6 L2 banks/memory partitions
//! through a butterfly network. For the memory-system effects the
//! evaluation measures, the network contributes (a) a traversal latency
//! and (b) finite per-port bandwidth; topology details beyond that do not
//! change who wins. [`Icnt`] models both: each request reserves its SM's
//! injection port (requests) or ejection port (responses) for a flit time
//! and then traverses with a fixed latency, so bursty SMs see queueing.

use sttgpu_cache::BankArbiter;

/// SM-to-L2 network with per-SM injection/ejection ports.
#[derive(Debug)]
pub(crate) struct Icnt {
    latency_ns: u64,
    flit_ns: u64,
    injection: BankArbiter,
    ejection: BankArbiter,
    /// Packets carried SM→L2.
    pub requests: u64,
    /// Packets carried L2→SM.
    pub responses: u64,
}

impl Icnt {
    /// Creates a network for `sms` endpoints with the given one-way
    /// traversal latency and per-port flit service time.
    ///
    /// # Panics
    ///
    /// Panics if `sms` is zero.
    pub(crate) fn new(sms: usize, latency_ns: u64, flit_ns: u64) -> Self {
        Icnt {
            latency_ns,
            flit_ns: flit_ns.max(1),
            injection: BankArbiter::new(sms),
            ejection: BankArbiter::new(sms),
            requests: 0,
            responses: 0,
        }
    }

    /// When a request injected by `sm` at `now_ns` arrives at the L2.
    pub(crate) fn request_arrival(&mut self, sm: u32, now_ns: u64) -> u64 {
        self.requests += 1;
        let start = self.injection.reserve(sm as usize, now_ns, self.flit_ns);
        start + self.latency_ns
    }

    /// When a response ready at the L2 at `ready_ns` reaches `sm`.
    pub(crate) fn response_arrival(&mut self, sm: u32, ready_ns: u64) -> u64 {
        self.responses += 1;
        let start = self.ejection.reserve(sm as usize, ready_ns, self.flit_ns);
        start + self.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_applies() {
        let mut net = Icnt::new(4, 10, 1);
        assert_eq!(net.request_arrival(2, 1_000), 1_010);
        assert_eq!(net.response_arrival(2, 2_000), 2_010);
    }

    #[test]
    fn ports_serialise_per_sm() {
        let mut net = Icnt::new(2, 10, 1);
        // Two back-to-back packets from SM 0 serialise on its port...
        let a = net.request_arrival(0, 100);
        let b = net.request_arrival(0, 100);
        assert_eq!(a, 110);
        assert_eq!(b, 111);
        // ...but SM 1's port is free.
        assert_eq!(net.request_arrival(1, 100), 110);
    }

    #[test]
    fn injection_port_serialises_bursts() {
        let mut net = Icnt::new(1, 10, 2);
        let t0 = net.request_arrival(0, 0);
        let t1 = net.request_arrival(0, 0);
        let t2 = net.request_arrival(0, 0);
        assert_eq!(t0, 10);
        assert_eq!(t1, 12);
        assert_eq!(t2, 14);
    }

    #[test]
    fn ports_are_independent_directions() {
        let mut net = Icnt::new(1, 10, 5);
        // Saturate injection; ejection unaffected.
        net.request_arrival(0, 0);
        net.request_arrival(0, 0);
        assert_eq!(net.response_arrival(0, 0), 10);
    }

    #[test]
    fn counters_track_traffic() {
        let mut net = Icnt::new(2, 10, 1);
        net.request_arrival(0, 0);
        net.request_arrival(1, 0);
        net.response_arrival(0, 50);
        assert_eq!(net.requests, 2);
        assert_eq!(net.responses, 1);
    }
}
