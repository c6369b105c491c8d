//! Network links: the WAN between the programmer's laptop and the cloud
//! region, and the cluster fabric between driver and workers.

use crate::des::{acquire, release, ResourceHandle, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// A point-to-point link characterized by bandwidth and propagation
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl Link {
    /// Link from megabits-per-second marketing units.
    pub fn from_mbps(mbps: f64, latency_s: f64) -> Link {
        Link {
            bandwidth_bps: mbps * 1e6 / 8.0,
            latency_s,
        }
    }

    /// Link from gigabits-per-second.
    pub fn from_gbps(gbps: f64, latency_s: f64) -> Link {
        Link::from_mbps(gbps * 1000.0, latency_s)
    }

    /// Time to move `bytes` over an otherwise idle link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.latency_s + bytes as f64 / self.bandwidth_bps
        }
    }
}

/// A link whose bandwidth is shared by concurrent transfers, modeled as a
/// single-server resource inside the DES — transfers serialize, which is
/// the store-and-forward behaviour of a saturated NIC.
pub struct SharedLink {
    link: Link,
    server: ResourceHandle,
    bytes_moved: Rc<RefCell<u64>>,
}

impl SharedLink {
    /// Wrap `link` for in-simulation use.
    pub fn new(link: Link) -> Self {
        SharedLink {
            link,
            server: crate::des::Resource::new(1),
            bytes_moved: Rc::new(RefCell::new(0)),
        }
    }

    /// The underlying link parameters.
    pub fn link(&self) -> Link {
        self.link
    }

    /// Total bytes that have completed transfer.
    pub fn bytes_moved(&self) -> u64 {
        *self.bytes_moved.borrow()
    }

    /// Start a transfer of `bytes`; `done` fires when it completes.
    pub fn transfer(&self, sim: &mut Sim, bytes: u64, done: impl FnOnce(&mut Sim) + 'static) {
        let duration = self.link.transfer_time(bytes);
        let server = Rc::clone(&self.server);
        let counter = Rc::clone(&self.bytes_moved);
        acquire(sim, &self.server, move |sim| {
            sim.schedule_in(duration, move |sim| {
                *counter.borrow_mut() += bytes;
                release(sim, &server);
                done(sim);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = Link::from_mbps(400.0, 0.05); // 50 MB/s
        assert!((l.transfer_time(50_000_000) - 1.05).abs() < 1e-9);
        assert_eq!(l.transfer_time(0), 0.0);
    }

    #[test]
    fn gbps_conversion() {
        let l = Link::from_gbps(10.0, 0.0);
        assert!((l.bandwidth_bps - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn shared_link_serializes_transfers() {
        // Two 1-second transfers on one shared link end at 1s and 2s.
        let mut sim = Sim::new();
        let link = SharedLink::new(Link {
            bandwidth_bps: 100.0,
            latency_s: 0.0,
        });
        let ends = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let ends2 = Rc::clone(&ends);
            link.transfer(&mut sim, 100, move |sim| ends2.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(*ends.borrow(), vec![1.0, 2.0]);
        assert_eq!(link.bytes_moved(), 200);
    }
}
