#include "net/net_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/catalog.h"
#include "obs/journal.h"

namespace irdb::net {

namespace {

// The listener's poller token; connection ids, the other tokens, start at 1.
constexpr uint64_t kListenerToken = 0;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowMsF() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct NetProxyServer::Counters {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> connections_closed{0};
  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> frames_out{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> requests_served{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> idle_disconnects{0};
  std::atomic<int64_t> backpressure_stalls{0};
  std::atomic<int64_t> resets{0};
};

NetProxyServer::NetProxyServer(Database* db, proxy::TxnIdAllocator* alloc,
                               NetServerOptions opts)
    : db_(db),
      alloc_(alloc),
      opts_(opts),
      counters_(std::make_unique<Counters>()) {}

NetProxyServer::~NetProxyServer() { Stop(); }

Status NetProxyServer::Start() {
  IRDB_CHECK_MSG(!running_, "NetProxyServer already started");
  IRDB_ASSIGN_OR_RETURN(
      listener_, ListenTcp(opts_.port, /*backlog=*/128, &port_, opts_.bind_any));
  loop_ = std::make_unique<EventLoop>(
      opts_.force_poll,
      [this](uint64_t token, const PollEvents& ev) { OnEvent(token, ev); });
  accepting_work_.store(true);
  if (opts_.idle_timeout_seconds > 0) {
    loop_->SetTick([this] { SweepIdle(); }, opts_.tick_interval_ms);
  }
  IRDB_RETURN_IF_ERROR(loop_->Add(listener_.get(), kListenerToken,
                                  /*want_read=*/true, /*want_write=*/false));
  const int threads = std::max(1, opts_.exec_threads);
  for (int i = 0; i < threads; ++i) {
    executors_.emplace_back([this] { loop_->Run(); });
  }
  running_ = true;
  return Status::Ok();
}

void NetProxyServer::Stop() {
  if (!running_) return;
  // 1. Refuse new connections and new statements: an executor checks the
  //    gate before it takes each frame, so every frame is either answered
  //    or left unread.
  accepting_work_.store(false);
  StopAccepting();
  // 2. Drain: taking each connection's lock waits out its running statement;
  //    a connection closes once its outbox is flushed, bounded so a dead
  //    client cannot wedge shutdown.
  BeginDrain();
  bool drained;
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    drained = drained_cv_.wait_for(lock, std::chrono::seconds(2),
                                   [this] { return conns_.empty(); });
  }
  if (!drained) ForceCloseAll();
  // 3. Wake and join every executor: nothing of the server runs past here.
  loop_->Stop();
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  loop_.reset();
  // 4. Tear down surviving wire sessions (client never sent BYE), folding
  //    their tracking stats exactly like a BYE would.
  std::map<int64_t, std::shared_ptr<ProtoSession>> leftover;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    leftover.swap(sessions_);
  }
  for (auto& [id, sess] : leftover) {
    std::lock_guard<std::mutex> lock(sess->mu);
    if (sess->proxy) {
      std::lock_guard<std::mutex> reg(sessions_mu_);
      closed_stats_.Add(sess->proxy->stats());
    }
    obs::MetricsRegistry::Default().AddGauge(
        obs::Metrics::Get().net_sessions_active, -1);
  }
  running_ = false;
}

Status NetProxyServer::Bootstrap() {
  // Factory deployments own their backend stack (the shard cluster
  // bootstraps every shard itself); there is no single engine to prime.
  if (opts_.session_factory) return Status::Ok();
  if (!opts_.track) return Status::Ok();
  DirectConnection conn(db_);
  proxy::TrackingProxy proxy(&conn, alloc_, opts_.traits);
  return proxy.EnsureTrackingTables();
}

NetServerStats NetProxyServer::stats() const {
  NetServerStats s;
  s.connections_accepted = counters_->connections_accepted.load();
  s.connections_closed = counters_->connections_closed.load();
  s.frames_in = counters_->frames_in.load();
  s.frames_out = counters_->frames_out.load();
  s.bytes_in = counters_->bytes_in.load();
  s.bytes_out = counters_->bytes_out.load();
  s.requests_served = counters_->requests_served.load();
  s.protocol_errors = counters_->protocol_errors.load();
  s.idle_disconnects = counters_->idle_disconnects.load();
  s.backpressure_stalls = counters_->backpressure_stalls.load();
  s.resets = counters_->resets.load();
  return s;
}

proxy::ProxyStats NetProxyServer::ProxyStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  proxy::ProxyStats total = closed_stats_;
  for (const auto& [id, sess] : sessions_) {
    std::lock_guard<std::mutex> sess_lock(sess->mu);
    if (sess->proxy) total.Add(sess->proxy->stats());
  }
  return total;
}

int64_t NetProxyServer::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int64_t>(sessions_.size());
}

// --- executor threads: transport -------------------------------------------

void NetProxyServer::OnEvent(uint64_t token, const PollEvents& ev) {
  if (token == kListenerToken) {
    OnListenerReadable();
  } else {
    OnConnEvent(static_cast<int64_t>(token), ev);
  }
}

void NetProxyServer::OnListenerReadable() {
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (!listener_.valid()) return;  // Stop() closed it
  for (;;) {
    // EAGAIN ends the burst; other accept errors are transient and retried
    // on the next event.
    int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) break;
    Fd conn_fd(fd);
    if (!SetNonBlocking(fd).ok()) continue;  // conn_fd closes it
    (void)SetNoDelay(fd);

    auto conn = std::make_shared<Conn>(opts_.max_frame_bytes);
    conn->id = next_conn_id_++;
    conn->fd = std::move(conn_fd);
    conn->last_activity_ms = NowMs();
    {
      std::lock_guard<std::mutex> table(conns_mu_);
      conns_.emplace(conn->id, conn);
    }
    counters_->connections_accepted.fetch_add(1);
    obs::Count(obs::Metrics::Get().net_connections_accepted);
    obs::MetricsRegistry::Default().AddGauge(
        obs::Metrics::Get().net_connections_active, 1);
    // Armed last: from here on another executor may take its first event.
    if (!loop_->Add(conn->fd.get(), static_cast<uint64_t>(conn->id),
                    /*want_read=*/true, /*want_write=*/false)
             .ok()) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      CloseConn(*conn, CloseWhy::kReset);
    }
  }
  (void)loop_->Rearm(listener_.get(), kListenerToken, /*want_read=*/true,
                     /*want_write=*/false);
}

void NetProxyServer::OnConnEvent(int64_t conn_id, const PollEvents& ev) {
  std::shared_ptr<Conn> conn = FindConn(conn_id);
  if (!conn) return;  // closed while this event was in flight
  Conn& c = *conn;
  std::lock_guard<std::mutex> lock(c.mu);
  if (!c.fd.valid()) return;
  if (ev.error) return CloseConn(c, CloseWhy::kReset);
  if (ev.writable && !FlushConn(c)) return;
  if (!ServeFrames(c)) return;
  if (c.draining && c.outbox.empty()) return CloseConn(c, CloseWhy::kClean);
  if (!loop_->Rearm(c.fd.get(), static_cast<uint64_t>(c.id), c.reading,
                    /*want_write=*/!c.outbox.empty())
           .ok()) {
    CloseConn(c, CloseWhy::kReset);
  }
}

bool NetProxyServer::ServeFrames(Conn& c) {
  char buf[16 * 1024];
  bool socket_drained = false;  // the last read came back short
  while (c.reading) {
    if (!accepting_work_.load()) {
      // Stop() has begun: take no more frames, and stop reading so the fd
      // is not re-armed for bytes nobody will take.
      c.draining = true;
      c.reading = false;
      return true;
    }
    std::string payload;
    auto popped = c.decoder.Next(&payload);
    if (!popped.ok()) {
      counters_->protocol_errors.fetch_add(1);
      obs::Count(obs::Metrics::Get().net_protocol_errors);
      CloseConn(c, CloseWhy::kProtocol);
      return false;
    }
    if (*popped) {
      if (!ServeFrame(c, payload)) return false;
      continue;
    }
    // No complete frame buffered. A short read most likely emptied the
    // socket; bytes that arrive after it fire the re-armed fd.
    if (socket_drained) return true;
    IoResult r = ReadSome(c.fd.get(), buf, sizeof buf);
    if (r.state == IoState::kWouldBlock) return true;
    if (r.state != IoState::kOk) {
      // EOF right after this connection's own BYE is a clean exit. Any
      // other EOF or error: the peer is gone, and its wire session survives
      // for a reconnecting client.
      CloseConn(c, r.state == IoState::kEof && c.said_bye ? CloseWhy::kClean
                                                          : CloseWhy::kReset);
      return false;
    }
    c.last_activity_ms = NowMs();
    counters_->bytes_in.fetch_add(static_cast<int64_t>(r.bytes));
    obs::Count(obs::Metrics::Get().net_bytes_in, static_cast<int64_t>(r.bytes));
    c.decoder.Feed(std::string_view(buf, r.bytes));
    socket_drained = r.bytes < sizeof buf;
  }
  return true;
}

bool NetProxyServer::ServeFrame(Conn& c, std::string_view payload) {
  counters_->frames_in.fetch_add(1);
  obs::Count(obs::Metrics::Get().net_frames_in);
  const double start_ms = NowMsF();
  std::string reply = EncodeFrame(HandleRequest(payload, &c.said_bye));
  counters_->requests_served.fetch_add(1);
  obs::Count(obs::Metrics::Get().net_requests);
  obs::Observe(obs::Metrics::Get().net_frame_latency, NowMsF() - start_ms);
  c.last_activity_ms = NowMs();
  c.outbox_bytes += reply.size();
  c.outbox.push_back(std::move(reply));
  counters_->frames_out.fetch_add(1);
  obs::Count(obs::Metrics::Get().net_frames_out);

  // Backpressure: a client pipelining faster than it reads replies gets its
  // read side paused until the outbox drains below the low watermark.
  if (c.reading && c.outbox_bytes > opts_.outbox_high_watermark) {
    c.reading = false;
    counters_->backpressure_stalls.fetch_add(1);
    obs::Count(obs::Metrics::Get().net_backpressure_stalls);
  }
  return FlushConn(c);
}

bool NetProxyServer::FlushConn(Conn& c) {
  while (!c.outbox.empty()) {
    const std::string& front = c.outbox.front();
    IoResult r = WriteSome(c.fd.get(), front.data() + c.write_off,
                           front.size() - c.write_off);
    if (r.state == IoState::kOk) {
      counters_->bytes_out.fetch_add(static_cast<int64_t>(r.bytes));
      obs::Count(obs::Metrics::Get().net_bytes_out,
                 static_cast<int64_t>(r.bytes));
      c.write_off += r.bytes;
      if (c.write_off == front.size()) {
        c.outbox_bytes -= front.size();
        c.outbox.pop_front();
        c.write_off = 0;
      }
      continue;
    }
    if (r.state == IoState::kWouldBlock) break;
    CloseConn(c, CloseWhy::kReset);
    return false;
  }
  // The gauge sums what stays queued after a write attempt, so a reply
  // written whole never touches it.
  if (c.gauged_bytes != c.outbox_bytes) {
    obs::MetricsRegistry::Default().AddGauge(
        obs::Metrics::Get().net_outbox_bytes,
        static_cast<int64_t>(c.outbox_bytes) -
            static_cast<int64_t>(c.gauged_bytes));
    c.gauged_bytes = c.outbox_bytes;
  }
  if (!c.reading && !c.draining &&
      c.outbox_bytes <= opts_.outbox_low_watermark) {
    c.reading = true;  // the serving loop takes frames again
  }
  return true;
}

void NetProxyServer::CloseConn(Conn& c, CloseWhy why) {
  switch (why) {
    case CloseWhy::kIdle:
      counters_->idle_disconnects.fetch_add(1);
      obs::Count(obs::Metrics::Get().net_idle_disconnects);
      obs::EventJournal::Default().Append(
          obs::event::kNetIdleDisconnect, {{"conn", std::to_string(c.id)}});
      break;
    case CloseWhy::kReset:
    case CloseWhy::kProtocol:
      counters_->resets.fetch_add(1);
      obs::Count(obs::Metrics::Get().net_session_resets);
      obs::EventJournal::Default().Append(
          obs::event::kNetSessionReset, {{"conn", std::to_string(c.id)}});
      break;
    case CloseWhy::kClean:
      break;
  }
  counters_->connections_closed.fetch_add(1);
  obs::MetricsRegistry::Default().AddGauge(
      obs::Metrics::Get().net_connections_active, -1);
  if (c.gauged_bytes != 0) {
    obs::MetricsRegistry::Default().AddGauge(
        obs::Metrics::Get().net_outbox_bytes,
        -static_cast<int64_t>(c.gauged_bytes));
    c.gauged_bytes = 0;
  }
  loop_->Remove(c.fd.get());
  c.fd.reset();
  std::lock_guard<std::mutex> table(conns_mu_);
  conns_.erase(c.id);
  if (conns_.empty()) drained_cv_.notify_all();
}

void NetProxyServer::SweepIdle() {
  const int64_t now = NowMs();
  const int64_t limit_ms =
      static_cast<int64_t>(opts_.idle_timeout_seconds * 1000.0);
  for (const std::shared_ptr<Conn>& conn : SnapshotConns()) {
    // A connection being served is not idle.
    std::unique_lock<std::mutex> lock(conn->mu, std::try_to_lock);
    if (!lock.owns_lock() || !conn->fd.valid()) continue;
    if (conn->outbox.empty() && now - conn->last_activity_ms >= limit_ms) {
      CloseConn(*conn, CloseWhy::kIdle);
    }
  }
}

std::shared_ptr<NetProxyServer::Conn> NetProxyServer::FindConn(
    int64_t id) const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<NetProxyServer::Conn>>
NetProxyServer::SnapshotConns() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<std::shared_ptr<Conn>> out;
  out.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) out.push_back(conn);
  return out;
}

// --- Stop() -----------------------------------------------------------------

void NetProxyServer::StopAccepting() {
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (!listener_.valid()) return;
  loop_->Remove(listener_.get());
  listener_.reset();
}

void NetProxyServer::BeginDrain() {
  for (const std::shared_ptr<Conn>& conn : SnapshotConns()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->fd.valid()) continue;
    conn->draining = true;
    conn->reading = false;
    // A non-empty outbox is flushed by the executor that takes the fd's
    // next writable event, which then closes the connection.
    if (conn->outbox.empty()) CloseConn(*conn, CloseWhy::kClean);
  }
}

void NetProxyServer::ForceCloseAll() {
  for (const std::shared_ptr<Conn>& conn : SnapshotConns()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd.valid()) CloseConn(*conn, CloseWhy::kReset);
  }
}

// --- executor threads: wire sessions ----------------------------------------

std::shared_ptr<NetProxyServer::ProtoSession> NetProxyServer::FindSession(
    int64_t id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

int64_t NetProxyServer::CreateSession() {
  auto sess = std::make_shared<ProtoSession>();
  if (opts_.session_factory) {
    sess->custom = opts_.session_factory();
  } else {
    sess->conn = std::make_unique<DirectConnection>(db_);
    if (opts_.track) {
      sess->proxy = std::make_unique<proxy::TrackingProxy>(
          sess->conn.get(), alloc_, opts_.traits);
    }
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  int64_t id = next_session_++;
  sessions_.emplace(id, std::move(sess));
  obs::MetricsRegistry::Default().AddGauge(
      obs::Metrics::Get().net_sessions_active, 1);
  return id;
}

void NetProxyServer::DestroySession(int64_t id) {
  std::shared_ptr<ProtoSession> sess;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    sess = std::move(it->second);
    sessions_.erase(it);
  }
  // Wait out any concurrent statement on this session (another connection
  // could be using the same id), then fold its stats.
  std::lock_guard<std::mutex> sess_lock(sess->mu);
  if (sess->proxy) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    closed_stats_.Add(sess->proxy->stats());
  }
  obs::MetricsRegistry::Default().AddGauge(
      obs::Metrics::Get().net_sessions_active, -1);
}

std::string NetProxyServer::HandleRequest(std::string_view payload,
                                          bool* bye) {
  WireResponse resp;
  auto req = DecodeRequest(payload);
  *bye = req.ok() && req->kind == WireRequest::Kind::kDisconnect;
  if (!req.ok()) {
    counters_->protocol_errors.fetch_add(1);
    obs::Count(obs::Metrics::Get().net_protocol_errors);
    resp.ok = false;
    resp.error_code = req.status().code();
    resp.error_reason = ErrorReasonFromStatus(req.status());
    resp.error_message = req.status().message();
    return EncodeResponse(resp);
  }
  switch (req->kind) {
    case WireRequest::Kind::kConnect:
      resp.ok = true;
      resp.session = CreateSession();
      break;
    case WireRequest::Kind::kDisconnect:
      DestroySession(req->session);
      resp.ok = true;
      resp.session = req->session;
      break;
    case WireRequest::Kind::kAnnotate: {
      auto sess = FindSession(req->session);
      if (!sess) {
        resp.ok = false;
        resp.error_code = StatusCode::kInvalidArgument;
        resp.error_message = "unknown wire session";
        break;
      }
      std::lock_guard<std::mutex> lock(sess->mu);
      sess->connection()->SetAnnotation(req->sql);
      resp.ok = true;
      resp.session = req->session;
      break;
    }
    case WireRequest::Kind::kExec: {
      auto sess = FindSession(req->session);
      if (!sess) {
        resp.ok = false;
        resp.error_code = StatusCode::kInvalidArgument;
        resp.error_message = "unknown wire session";
        break;
      }
      std::lock_guard<std::mutex> lock(sess->mu);
      auto result = sess->connection()->Execute(req->sql);
      if (result.ok()) {
        resp.ok = true;
        resp.session = req->session;
        resp.result = std::move(result).value();
      } else {
        resp.ok = false;
        resp.error_code = result.status().code();
        resp.error_reason = ErrorReasonFromStatus(result.status());
        resp.error_message = result.status().message();
      }
      break;
    }
  }
  return EncodeResponse(resp);
}

}  // namespace irdb::net
