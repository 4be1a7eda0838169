//! The closed loop: every client issues its next query only after it has
//! verified the previous result.  Clients run concurrently on scoped
//! workers (through `secmed_pool::scope`, the structured-thread entry
//! point of the repository), next to the loopback server when the
//! workload has one.

use std::net::SocketAddr;
use std::sync::{Barrier, OnceLock};

use secmed_crypto::metrics::Snapshot;
use secmed_obs::metrics::MetricsSnapshot;
use secmed_server::Server;

use crate::sys;
use crate::workloads::{self, ClientState, Name, QueryCtx, QueryOut};

/// When a client stops issuing queries.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds of measured window.
    Seconds(f64),
    /// After this many queries per client.
    Queries(u64),
}

/// The state of the process when the measured window opened: taken
/// once every client has finished its warm-up, so nothing a warm-up did
/// (census bumps, pool calls, spans it left behind) counts.
pub struct Mark {
    /// Trace-clock ns.
    pub start_ns: u64,
    /// Process CPU ns.
    pub cpu_ns: u64,
    /// Trace-buffer checkpoint.
    pub trace: usize,
    /// Crypto census.
    pub census: Snapshot,
    /// Obs registry.
    pub obs: MetricsSnapshot,
}

impl Mark {
    fn take() -> Mark {
        Mark {
            trace: secmed_obs::trace::checkpoint(),
            census: Snapshot::capture(),
            obs: secmed_obs::metrics::snapshot(),
            cpu_ns: sys::process_cpu_ns(),
            start_ns: sys::now_ns(),
        }
    }
}

/// What one measured window produced.
pub struct Window<T> {
    /// Per-query records, client by client, in issue order.
    pub records: Vec<Vec<T>>,
    /// Where the window opened.
    pub mark: Mark,
    /// End of the last query of any client.
    pub end_ns: u64,
    /// Process CPU time consumed inside the window, ns.
    pub cpu_ns: u64,
}

impl<T> Window<T> {
    /// Wall ms from the window's start to its last query's end.
    pub fn wall_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.mark.start_ns) as f64 / 1e6
    }
}

/// Runs `f` while the workload's server (if any) accepts on a scope whose
/// workers are all joined before this returns.
pub fn with_server<R>(server: Option<&Server>, f: impl FnOnce(Option<SocketAddr>) -> R) -> R {
    secmed_pool::scope(|s| {
        let handle = server.map(|sv| sv.start(s));
        let out = f(server.map(Server::addr));
        if let Some(h) = handle {
            h.shutdown();
        }
        out
    })
}

/// Drives every client: `warmup` unmeasured queries each, then the
/// measured window until `stop`.  `keep` turns each query into the
/// record the caller wants (called on the client's own worker, with the
/// query's submit-to-verified latency in ms, `None` for a warm-up query).
pub fn run_clients<T: Send>(
    clients: &mut [ClientState],
    name: Name,
    traced: bool,
    addr: Option<SocketAddr>,
    warmup: u64,
    stop: Stop,
    keep: &(dyn Fn(QueryOut, Option<f64>) -> T + Sync),
) -> Window<T> {
    let ctx = QueryCtx { name, traced, addr };
    let warm = QueryCtx {
        traced: false,
        ..ctx
    };
    let barrier = Barrier::new(clients.len());
    let mark_cell = OnceLock::new();
    let (barrier, mark) = (&barrier, &mark_cell);
    let (records, end_ns) = secmed_pool::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for _ in 0..warmup {
                        records.push(keep(workloads::query(client, &warm), None));
                    }
                    if barrier.wait().is_leader() {
                        let _ = mark.set(Mark::take());
                    }
                    barrier.wait();
                    let t0 = mark.get().map_or(0, |m| m.start_ns);
                    let mut issued = 0u64;
                    loop {
                        let done = match stop {
                            Stop::Seconds(s) => sys::now_ns().saturating_sub(t0) as f64 >= s * 1e9,
                            Stop::Queries(n) => issued >= n,
                        };
                        if done {
                            break;
                        }
                        let q0 = sys::now_ns();
                        let out = workloads::query(client, &ctx);
                        records.push(keep(out, Some(sys::ms_since(q0))));
                        issued += 1;
                    }
                    (records, sys::now_ns())
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut end_ns = 0;
        for w in workers {
            let (r, end) = w.join().expect("a client worker panicked");
            records.push(r);
            end_ns = end_ns.max(end);
        }
        (records, end_ns)
    });
    let cpu_end = sys::process_cpu_ns();
    let mark = mark_cell.into_inner().unwrap_or_else(Mark::take);
    Window {
        records,
        cpu_ns: cpu_end.saturating_sub(mark.cpu_ns),
        mark,
        end_ns,
    }
}
