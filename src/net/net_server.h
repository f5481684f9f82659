// NetProxyServer — the server-side proxy of paper Fig. 2 on a real TCP
// socket instead of the in-process loopback.
//
// Threading model (two kinds of threads, one rule each):
//   - `exec_threads` executor threads all run the EventLoop. The executor
//     that takes a connection's one-shot readiness event owns that
//     connection until it re-arms the fd: it reads and decodes the frames,
//     runs each through HandleRequest (SQL through the per-session
//     TrackingProxy / DirectConnection), writes the reply frame to the
//     socket itself and re-arms. A statement therefore never changes
//     threads between its request bytes and its reply bytes. Accepts and
//     the idle sweep run on whichever executor takes them. A statement
//     blocked in a lock wait occupies one executor; other connections keep
//     being served by the rest.
//   - Callers' threads only use the thread-safe surface: Start/Stop,
//     stats(), ProxyStatsSnapshot(). Stop() drains on its own thread.
//
// Shared-state locking story (audited in tests/net_test.cc):
//   - each Conn has a mutex, held by the executor serving it (uncontended
//     on the hot path, since the fd is one-shot). The idle sweep try_locks
//     it (a connection being served is not idle); the drain locks it,
//     which waits out a running statement.
//   - conns_mu_ guards the connection table. Lock order: a Conn's mutex,
//     then conns_mu_; never the reverse.
//   - sessions_mu_ guards the wire-session registry (map, id counter,
//     closed-session stats fold).
//   - each ProtoSession has its own mutex serializing statement execution
//     against stats snapshots; executors take it WITHOUT holding
//     sessions_mu_, snapshots take sessions_mu_ THEN session mutexes, so
//     the order sessions_mu_ -> session is acyclic.
//   - engine access is concurrent: sessions run under the engine's own
//     lock manager and per-table latches (src/concurrency, DESIGN.md §5f),
//     so executors running statements for different wire sessions
//     genuinely interleave. Proxy txn ids come from the atomic
//     TxnIdAllocator, exactly as in the in-process deployments.
//
// Sessions are DECOUPLED from TCP connections: a wire session is created by
// CONNECT, addressed by id in every later request, and destroyed only by
// BYE or Stop(). A client whose TCP connection resets mid-transaction can
// reconnect and resume — which is what makes the PR 2 retry semantics
// (kUnavailable = request never reached the peer) carry over to real
// connection resets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "flavor/flavor_traits.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "proxy/tracking_proxy.h"
#include "wire/protocol.h"

namespace irdb::net {

struct NetServerOptions {
  uint16_t port = 0;      // 0 = pick an ephemeral port (see NetProxyServer::port)
  bool bind_any = false;  // default: loopback only (see socket.h)
  // true: each wire session gets a TrackingProxy over a DirectConnection
  // (server-side tracking, Fig. 2). false: raw DbServer semantics — the
  // engine without tracking, for client-side-proxy deployments.
  bool track = true;
  // Executor threads: each runs statements AND does the socket I/O of the
  // connections it serves (at least 1).
  int exec_threads = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Backpressure: when a session's queued reply bytes exceed the high
  // watermark the server stops reading its socket; reading resumes once the
  // outbox drains below the low watermark.
  size_t outbox_high_watermark = 256 * 1024;
  size_t outbox_low_watermark = 64 * 1024;
  // Connections with no traffic for this long are closed on the next sweep
  // (0 disables). Sessions survive — only the transport is dropped.
  double idle_timeout_seconds = 0.0;
  int tick_interval_ms = 50;  // idle-sweep cadence
  bool force_poll = false;    // use the poll(2) poller even on Linux
  FlavorTraits traits = FlavorTraits::Postgres();
  // When set, every wire session executes through a connection built by this
  // factory instead of the default TrackingProxy-over-DirectConnection pair
  // (ignores `track`). This is how the shard router fronts an N-engine
  // cluster on this event loop: the factory returns a RoutedSession whose
  // statement routing and two-phase commit live behind the ordinary
  // DbConnection interface (src/shard). Factory connections own their whole
  // stack; ProxyStatsSnapshot does not see them — the router keeps its own
  // counters. Called on executor threads; must be thread-safe.
  std::function<std::unique_ptr<DbConnection>()> session_factory;
};

// Aggregate transport counters, readable from any thread. The accounting
// identity checked by bench/bench_net_throughput: after a clean drain,
// frames_in == frames_out == requests_served.
struct NetServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t requests_served = 0;
  int64_t protocol_errors = 0;     // corrupt/oversized frames, bad requests
  int64_t idle_disconnects = 0;
  int64_t backpressure_stalls = 0; // read-side pauses due to a full outbox
  int64_t resets = 0;  // conns that died on EOF/error, not drain or post-BYE EOF
};

class NetProxyServer {
 public:
  NetProxyServer(Database* db, proxy::TxnIdAllocator* alloc,
                 NetServerOptions opts = {});
  ~NetProxyServer();

  NetProxyServer(const NetProxyServer&) = delete;
  NetProxyServer& operator=(const NetProxyServer&) = delete;

  // Binds and starts the executor threads. Idempotence: second Start
  // without Stop is an error.
  Status Start();

  // Clean shutdown: stop accepting, wait for in-flight statements, drain
  // outboxes (bounded), close everything, join every executor, fold session
  // stats. No server thread runs after it returns.
  void Stop();

  // The actually-bound port (after Start with opts.port == 0).
  uint16_t port() const { return port_; }

  // Creates the tracking side tables through a temporary tracked session.
  // Call once per fresh database when opts.track (no-op otherwise).
  Status Bootstrap();

  NetServerStats stats() const;

  // Combined tracking stats over closed and live sessions (track mode).
  proxy::ProxyStats ProxyStatsSnapshot() const;

  int64_t open_sessions() const;
  const char* poller_name() const { return loop_->poller_name(); }
  Database* db() { return db_; }

 private:
  // Per-TCP-connection state, guarded by mu. The executor that takes the
  // fd's event holds mu until it re-arms the fd.
  struct Conn {
    std::mutex mu;
    int64_t id = 0;
    Fd fd;                      // reset when closed: later events are dropped
    FrameDecoder decoder;
    std::deque<std::string> outbox;  // encoded frames awaiting write
    size_t outbox_bytes = 0;
    size_t write_off = 0;       // bytes of outbox.front() already written
    size_t gauged_bytes = 0;    // this conn's share of irdb_net_outbox_bytes
    bool reading = true;        // false while backpressured or draining
    bool draining = false;      // close as soon as the outbox empties
    bool said_bye = false;      // the last request served was a BYE
    int64_t last_activity_ms = 0;

    explicit Conn(size_t max_frame) : decoder(max_frame) {}
  };

  // A wire session: engine connection (+ tracking proxy in track mode).
  // Lives until BYE or Stop, independent of any TCP connection.
  struct ProtoSession {
    std::mutex mu;  // serializes execution vs. stats snapshots
    std::unique_ptr<DirectConnection> conn;
    std::unique_ptr<proxy::TrackingProxy> proxy;  // null when !track
    std::unique_ptr<DbConnection> custom;  // from opts.session_factory

    DbConnection* connection() {
      if (custom) return custom.get();
      return proxy ? static_cast<DbConnection*>(proxy.get()) : conn.get();
    }
  };

  // kClean: drained at Stop, or EOF after the connection's own BYE.
  enum class CloseWhy { kClean, kIdle, kReset, kProtocol };

  // --- executor threads (the connection's mutex held where it takes one) ---
  void OnEvent(uint64_t token, const PollEvents& ev);
  void OnListenerReadable();
  void OnConnEvent(int64_t conn_id, const PollEvents& ev);
  bool ServeFrames(Conn& c);
  bool ServeFrame(Conn& c, std::string_view payload);
  bool FlushConn(Conn& c);
  void CloseConn(Conn& c, CloseWhy why);
  void SweepIdle();
  std::string HandleRequest(std::string_view payload, bool* bye);
  std::shared_ptr<ProtoSession> FindSession(int64_t id) const;
  int64_t CreateSession();
  void DestroySession(int64_t id);

  // --- Stop() ---
  void StopAccepting();
  void BeginDrain();
  void ForceCloseAll();

  std::shared_ptr<Conn> FindConn(int64_t id) const;
  std::vector<std::shared_ptr<Conn>> SnapshotConns() const;

  Database* db_;
  proxy::TxnIdAllocator* alloc_;
  NetServerOptions opts_;

  std::unique_ptr<EventLoop> loop_;
  uint16_t port_ = 0;
  bool running_ = false;
  // Flipped by Stop() before the drain: executors take no frame after it.
  std::atomic<bool> accepting_work_{true};

  // The listening socket (token kListenerToken); closed by Stop().
  std::mutex listener_mu_;
  Fd listener_;
  int64_t next_conn_id_ = 1;  // under listener_mu_

  // The connection table. Stop() waits on drained_cv_ for it to empty.
  mutable std::mutex conns_mu_;
  std::condition_variable drained_cv_;
  std::map<int64_t, std::shared_ptr<Conn>> conns_;

  // Wire-session registry (executor threads + snapshots).
  mutable std::mutex sessions_mu_;
  std::map<int64_t, std::shared_ptr<ProtoSession>> sessions_;
  int64_t next_session_ = 1;
  proxy::ProxyStats closed_stats_;

  // Transport counters (atomics; snapshot via stats()).
  struct Counters;
  std::unique_ptr<Counters> counters_;

  // Declared last: they run the loop over everything above.
  std::vector<std::thread> executors_;
};

}  // namespace irdb::net
