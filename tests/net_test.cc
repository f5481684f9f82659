// Networked front-end tests (src/net): frame codec hardening, the shared
// Channel contract over loopback and TCP, concurrent sessions through
// NetProxyServer, serial-vs-concurrent tracking/repair equivalence,
// backpressure, idle timeouts, reconnect-preserving sessions, and the
// degraded-commit path under injected connection resets.
//
// Labelled `net` in ctest; tools/run_chaos.sh also runs this binary under
// TSan, which is what audits the server's locking story.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/resilient_db.h"
#include "engine/database.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "proxy/dual_proxy.h"
#include "proxy/tracking_proxy.h"
#include "repair/repair_engine.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "wire/channel.h"
#include "wire/client.h"
#include "wire/server.h"

namespace irdb {
namespace {

using net::NetProxyServer;
using net::NetServerOptions;
using net::NetServerStats;
using net::TcpChannel;
using net::TcpChannelOptions;

ResultSet Must(DbConnection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet{};
}

// --------------------------------------------------------------------------
// Frame codec: round trips, hostile input, exact consumption.

TEST(FrameCodecTest, RoundTripThroughRandomSplits) {
  Rng rng(77);
  std::vector<std::string> payloads;
  std::string stream;
  for (int i = 0; i < 64; ++i) {
    std::string p = rng.AlnumString(0, 300);
    if (i % 7 == 0) p.push_back('\0');  // binary-safe payloads
    stream += EncodeFrame(p);
    payloads.push_back(std::move(p));
  }
  FrameDecoder dec;
  std::vector<std::string> got;
  size_t pos = 0;
  while (pos < stream.size()) {
    size_t n = std::min<size_t>(1 + rng.Next() % 37, stream.size() - pos);
    dec.Feed(std::string_view(stream).substr(pos, n));
    pos += n;
    for (;;) {
      std::string payload;
      auto popped = dec.Next(&payload);
      ASSERT_TRUE(popped.ok());
      if (!*popped) break;
      got.push_back(std::move(payload));
    }
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  EXPECT_FALSE(dec.poisoned());
}

TEST(FrameCodecTest, TruncatedFrameWaitsForMoreBytes) {
  const std::string frame = EncodeFrame("hello world");
  FrameDecoder dec;
  std::string payload;
  for (size_t cut = 0; cut + 1 < frame.size(); ++cut) {
    FrameDecoder fresh;
    fresh.Feed(std::string_view(frame).substr(0, cut));
    auto popped = fresh.Next(&payload);
    ASSERT_TRUE(popped.ok()) << "cut=" << cut;
    EXPECT_FALSE(*popped);
  }
  dec.Feed(std::string_view(frame).substr(0, 3));
  ASSERT_FALSE(*dec.Next(&payload));
  dec.Feed(std::string_view(frame).substr(3));
  ASSERT_TRUE(*dec.Next(&payload));
  EXPECT_EQ(payload, "hello world");
}

TEST(FrameCodecTest, BadMagicPoisonsTheStream) {
  FrameDecoder dec;
  dec.Feed("GET / HTTP/1.1\r\n");  // a browser pointed at the port
  std::string payload;
  auto popped = dec.Next(&payload);
  ASSERT_FALSE(popped.ok());
  EXPECT_EQ(popped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dec.poisoned());
  // Poison is sticky: even valid bytes afterwards cannot resurrect it.
  dec.Feed(EncodeFrame("valid"));
  EXPECT_FALSE(dec.Next(&payload).ok());
}

TEST(FrameCodecTest, BadVersionPoisonsTheStream) {
  std::string frame = EncodeFrame("x");
  frame[1] = 0x7f;
  FrameDecoder dec;
  dec.Feed(frame);
  std::string payload;
  auto popped = dec.Next(&payload);
  ASSERT_FALSE(popped.ok());
  EXPECT_EQ(popped.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, OversizedLengthRejectedFromHeaderAlone) {
  // A hostile 16 MiB length against a 1 KiB cap must fail from the 6 header
  // bytes, before any body arrives (no unbounded allocation).
  std::string frame = EncodeFrame(std::string(16, 'x'));
  frame[2] = 0x01;  // length = 0x01000010
  FrameDecoder dec(/*max_frame_bytes=*/1024);
  dec.Feed(std::string_view(frame).substr(0, kFrameHeaderBytes));
  std::string payload;
  auto popped = dec.Next(&payload);
  ASSERT_FALSE(popped.ok());
  EXPECT_EQ(popped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dec.poisoned());
}

TEST(FrameCodecTest, ExactLengthConsumption) {
  // Two whole frames plus a partial third: exactly the first two pop, and
  // the partial tail stays buffered byte-for-byte.
  const std::string a = EncodeFrame("alpha"), b = EncodeFrame("beta");
  const std::string c = EncodeFrame("gamma");
  FrameDecoder dec;
  dec.Feed(a + b + c.substr(0, c.size() - 2));
  std::string payload;
  ASSERT_TRUE(*dec.Next(&payload));
  EXPECT_EQ(payload, "alpha");
  ASSERT_TRUE(*dec.Next(&payload));
  EXPECT_EQ(payload, "beta");
  ASSERT_FALSE(*dec.Next(&payload));
  EXPECT_EQ(dec.buffered_bytes(), c.size() - 2);
  dec.Feed(std::string_view(c).substr(c.size() - 2));
  ASSERT_TRUE(*dec.Next(&payload));
  EXPECT_EQ(payload, "gamma");
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(ProtocolHardeningTest, HostileOkHeaderCountsRejected) {
  // Counts that cannot fit the remaining body must fail before any
  // count-sized reserve can run.
  for (const char* hostile : {
           "OK 1 0 0 0 2147483647 2147483647\n",
           "OK 1 0 0 0 1 99999999\nonly_one_line\n",
           "OK 1 0 0 0 -1 0\n",
           "OK 1 0 0 0 0 -5\n",
           "OK 1 0 0 0 0 7\n",  // 7 rows, 0 columns, 0 body bytes
       }) {
    auto resp = DecodeResponse(hostile);
    ASSERT_FALSE(resp.ok()) << hostile;
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << hostile;
  }
  // Legitimate responses still decode.
  WireResponse ok;
  ok.ok = true;
  ok.session = 1;
  ok.result.columns = {"a"};
  ok.result.rows = {{Value::Int(7)}};
  auto back = DecodeResponse(EncodeResponse(ok));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->result.rows[0][0].as_int(), 7);
}

// --------------------------------------------------------------------------
// Shared Channel contract: LoopbackChannel and TcpChannel must behave
// identically through RemoteConnection — including retry-on-kUnavailable.

// Runs the contract against `channel`; `reset_site` is the failpoint that
// drops one round trip before it reaches the peer.
void RunChannelContract(Channel* channel, const char* reset_site) {
  auto conn_r = RemoteConnection::Connect(channel);
  ASSERT_TRUE(conn_r.ok()) << conn_r.status().ToString();
  RemoteConnection& conn = **conn_r;

  Must(&conn, "CREATE TABLE contract (k INTEGER, v VARCHAR(20))");
  Must(&conn, "INSERT INTO contract VALUES (1, 'one')");

  // One dropped round trip: the request never reached the peer, the client
  // retries, and the statement takes effect exactly once.
  fail::Registry::Instance().Seed(1);
  fail::Registry::Instance().Arm(reset_site, fail::Trigger::OneShot());
  auto r = conn.Execute("INSERT INTO contract VALUES (2, 'two')");
  fail::Registry::Instance().DisarmAll();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(conn.retries(), 1);

  ResultSet rs = Must(&conn, "SELECT k FROM contract");
  EXPECT_EQ(rs.rows.size(), 2u);

  // Exhausting every attempt surfaces the retryable error to the caller.
  RetryPolicy two;
  two.max_attempts = 2;
  conn.set_retry_policy(two);
  fail::Registry::Instance().Arm(reset_site, fail::Trigger::Always());
  auto dead = conn.Execute("INSERT INTO contract VALUES (3, 'three')");
  fail::Registry::Instance().DisarmAll();
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsRetryable());
  EXPECT_TRUE(fail::IsInjected(dead.status()));
  conn.set_retry_policy(RetryPolicy());

  rs = Must(&conn, "SELECT k FROM contract");
  EXPECT_EQ(rs.rows.size(), 2u);  // the dropped insert never executed
}

TEST(ChannelContractTest, Loopback) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  LoopbackChannel channel(
      [&server](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &db.io_model().clock());
  RunChannelContract(&channel, "wire.roundtrip");
}

TEST(ChannelContractTest, Tcp) {
  Database db(FlavorTraits::Postgres());
  NetServerOptions opts;
  opts.track = false;  // mirror the raw DbServer the loopback contract uses
  NetProxyServer server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions copts;
  copts.port = server.port();
  TcpChannel channel(copts);
  RunChannelContract(&channel, net::kSendFailpoint);
  EXPECT_GT(channel.reconnects(), 0);  // each injected reset tore the socket
  server.Stop();
}

// --------------------------------------------------------------------------
// NetProxyServer behaviour.

TEST(NetServerTest, ConnectExecByeOverRealSocket) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetProxyServer server(&db, &alloc, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Bootstrap().ok());
  EXPECT_NE(server.port(), 0);
#ifdef __linux__
  EXPECT_STREQ(server.poller_name(), "epoll");
#endif

  TcpChannelOptions copts;
  copts.port = server.port();
  auto client = net::NetClient::Dial(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  DbConnection& conn = (*client)->connection();
  Must(&conn, "CREATE TABLE t (a INTEGER)");
  Must(&conn, "INSERT INTO t VALUES (41)");
  Must(&conn, "UPDATE t SET a = a + 1");
  ResultSet rs = Must(&conn, "SELECT a FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 42);
  client->reset();  // BYE

  EXPECT_EQ(server.open_sessions(), 0);
  server.Stop();
  NetServerStats s = server.stats();
  EXPECT_EQ(s.connections_accepted, 1);
  EXPECT_EQ(s.connections_closed, 1);
  EXPECT_GT(s.frames_in, 0);
  EXPECT_EQ(s.frames_in, s.frames_out);
  EXPECT_EQ(s.frames_in, s.requests_served);
  EXPECT_EQ(s.protocol_errors, 0);
  EXPECT_EQ(s.resets, 0);
}

TEST(NetServerTest, PollFallbackServesTraffic) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions opts;
  opts.force_poll = true;
  NetProxyServer server(&db, &alloc, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Bootstrap().ok());
  EXPECT_STREQ(server.poller_name(), "poll");

  TcpChannelOptions copts;
  copts.port = server.port();
  auto client = net::NetClient::Dial(copts);
  ASSERT_TRUE(client.ok());
  Must(&(*client)->connection(), "CREATE TABLE p (a INTEGER)");
  Must(&(*client)->connection(), "INSERT INTO p VALUES (1)");
  EXPECT_EQ(Must(&(*client)->connection(), "SELECT a FROM p").rows.size(), 1u);
  client->reset();
  server.Stop();
}

TEST(NetServerTest, MaxFrameSizeGuardClosesConnection) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions opts;
  opts.max_frame_bytes = 1024;
  NetProxyServer server(&db, &alloc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  // Header declaring a 2 MiB frame: the guard must fire from the header,
  // reply with nothing, and drop the connection.
  const uint32_t len = 2 * 1024 * 1024;
  char header[kFrameHeaderBytes] = {
      static_cast<char>(kFrameMagic), static_cast<char>(kFrameVersion),
      static_cast<char>(len >> 24),   static_cast<char>((len >> 16) & 0xff),
      static_cast<char>((len >> 8) & 0xff), static_cast<char>(len & 0xff)};
  ASSERT_EQ(net::WriteSome(fd->get(), header, sizeof header).state,
            net::IoState::kOk);
  char buf[16];
  net::IoResult r = net::ReadSome(fd->get(), buf, sizeof buf);  // blocking fd
  EXPECT_EQ(r.state, net::IoState::kEof);
  server.Stop();
  EXPECT_GE(server.stats().protocol_errors, 1);
  EXPECT_GE(server.stats().resets, 1);
}

TEST(NetServerTest, IdleConnectionsAreSweptButSessionsSurvive) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions opts;
  opts.idle_timeout_seconds = 0.08;
  opts.tick_interval_ms = 10;
  NetProxyServer server(&db, &alloc, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Bootstrap().ok());

  TcpChannelOptions copts;
  copts.port = server.port();
  TcpChannel channel(copts);
  auto conn_r = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn_r.ok());
  Must(conn_r->get(), "CREATE TABLE idle_t (a INTEGER)");

  // Let the sweep close the quiet TCP connection out from under the client.
  for (int i = 0; i < 100 && server.stats().idle_disconnects == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().idle_disconnects, 1);

  // The wire session survived: the next statement rides a transparent
  // reconnect (first round trip sees the dead socket -> kUnavailable ->
  // CallWithRetry) and still addresses the same session.
  EXPECT_EQ(server.open_sessions(), 1);
  Must(conn_r->get(), "INSERT INTO idle_t VALUES (5)");
  EXPECT_EQ(Must(conn_r->get(), "SELECT a FROM idle_t").rows.size(), 1u);
  EXPECT_GE(channel.reconnects(), 1);
  conn_r->reset();
  server.Stop();
}

TEST(NetServerTest, SessionSurvivesMidTransactionReconnect) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetProxyServer server(&db, &alloc, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Bootstrap().ok());

  TcpChannelOptions copts;
  copts.port = server.port();
  TcpChannel channel(copts);
  auto conn_r = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn_r.ok());
  DbConnection* conn = conn_r->get();

  Must(conn, "CREATE TABLE reconnect_t (a INTEGER)");
  Must(conn, "BEGIN");
  Must(conn, "INSERT INTO reconnect_t VALUES (1)");
  // The transport dies mid-transaction; the wire session (and its open
  // engine transaction) must survive for the reconnecting client.
  channel.Drop();
  Must(conn, "INSERT INTO reconnect_t VALUES (2)");
  Must(conn, "COMMIT");
  EXPECT_EQ(channel.reconnects(), 1);

  ResultSet rs = Must(conn, "SELECT a FROM reconnect_t");
  EXPECT_EQ(rs.rows.size(), 2u);
  conn_r->reset();
  server.Stop();
  EXPECT_GE(server.stats().resets, 1);
}

TEST(NetServerTest, BackpressureWatermarksStallAndResumeReads) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions opts;
  opts.track = false;
  // Zero watermarks: every enqueued reply crosses "high", so the stall /
  // resume cycle runs deterministically without having to fill real kernel
  // socket buffers.
  opts.outbox_high_watermark = 0;
  opts.outbox_low_watermark = 0;
  NetProxyServer server(&db, &alloc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  // Pipeline a burst of requests without reading a single reply.
  std::string burst;
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) burst += EncodeFrame("CONNECT\n");
  size_t off = 0;
  while (off < burst.size()) {
    auto w = net::WriteSome(fd->get(), burst.data() + off, burst.size() - off);
    ASSERT_EQ(w.state, net::IoState::kOk);
    off += w.bytes;
  }
  // Now read all replies; every one must arrive despite the stalls.
  FrameDecoder dec;
  char buf[4096];
  int got = 0;
  while (got < kBurst) {
    auto r = net::ReadSome(fd->get(), buf, sizeof buf);
    ASSERT_EQ(r.state, net::IoState::kOk);
    dec.Feed(std::string_view(buf, r.bytes));
    for (;;) {
      std::string payload;
      auto popped = dec.Next(&payload);
      ASSERT_TRUE(popped.ok());
      if (!*popped) break;
      auto resp = DecodeResponse(payload);
      ASSERT_TRUE(resp.ok());
      EXPECT_TRUE(resp->ok);
      ++got;
    }
  }
  fd->reset();
  server.Stop();
  NetServerStats s = server.stats();
  EXPECT_GE(s.backpressure_stalls, 1);
  EXPECT_EQ(s.frames_in, kBurst);
  EXPECT_EQ(s.frames_out, kBurst);
  EXPECT_EQ(s.requests_served, kBurst);
}

// Reads n whole reply frames from a blocking socket; `dec` keeps any bytes
// of later frames for the next call.
std::vector<WireResponse> ReadReplies(int fd, FrameDecoder* dec, size_t n) {
  std::vector<WireResponse> out;
  char buf[16 * 1024];
  while (out.size() < n) {
    std::string payload;
    auto popped = dec->Next(&payload);
    if (!popped.ok()) {
      ADD_FAILURE() << popped.status().ToString();
      break;
    }
    if (*popped) {
      auto resp = DecodeResponse(payload);
      if (!resp.ok()) {
        ADD_FAILURE() << resp.status().ToString();
        break;
      }
      out.push_back(std::move(resp).value());
      continue;
    }
    net::IoResult r = net::ReadSome(fd, buf, sizeof buf);
    if (r.state != net::IoState::kOk) {
      ADD_FAILURE() << "server closed the socket after " << out.size()
                    << " of " << n << " replies";
      break;
    }
    dec->Feed(std::string_view(buf, r.bytes));
  }
  return out;
}

std::string ExecFrame(int64_t session, const std::string& sql) {
  WireRequest req;
  req.kind = WireRequest::Kind::kExec;
  req.session = session;
  req.sql = sql;
  return EncodeFrame(EncodeRequest(req));
}

void WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    net::IoResult w = net::WriteSome(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_EQ(w.state, net::IoState::kOk);
    off += w.bytes;
  }
}

// A raw client with a small receive buffer, so replies it does not read
// overflow the kernel's socket buffers and stay queued in the server.
struct StalledClient {
  net::Fd fd;
  FrameDecoder dec;
  int64_t session = -1;

  void Connect(uint16_t port) {
    fd = net::Fd(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(fd.valid());
    const int rcvbuf = 4096;
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof rcvbuf),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    WriteAll(fd.get(), EncodeFrame("CONNECT\n"));
    std::vector<WireResponse> hello = ReadReplies(fd.get(), &dec, 1);
    ASSERT_EQ(hello.size(), 1u);
    session = hello[0].session;
  }
};

TEST(NetServerTest, OutboxGaugeSumsQueuedReplyBytes) {
  const obs::Metrics& m = obs::Metrics::Get();
  const int64_t gauge_before = obs::CounterValue(m.net_outbox_bytes);
  auto queued = [&] {
    return obs::CounterValue(m.net_outbox_bytes) - gauge_before;
  };
  Database db(FlavorTraits::Postgres());
  {
    DirectConnection setup(&db);
    Must(&setup, "CREATE TABLE wide (k INTEGER, pad VARCHAR(255))");
    const std::string pad(200, 'x');
    for (int i = 0; i < 500; ++i) {
      Must(&setup, "INSERT INTO wide VALUES (" + std::to_string(i) + ", '" +
                       pad + "')");
    }
  }
  NetServerOptions opts;
  opts.track = false;
  NetProxyServer server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  // Two clients pipeline ~8 MiB of ~100 KiB replies each and stop reading:
  // each connection stalls with bytes queued past its kernel buffers.
  constexpr int kSelects = 80;
  StalledClient x, y;
  ASSERT_NO_FATAL_FAILURE(x.Connect(server.port()));
  ASSERT_NO_FATAL_FAILURE(y.Connect(server.port()));
  for (StalledClient* c : {&x, &y}) {
    std::string burst;
    for (int i = 0; i < kSelects; ++i) {
      burst += ExecFrame(c->session, "SELECT k, pad FROM wide");
    }
    WriteAll(c->fd.get(), burst);
  }
  for (int i = 0; i < 500 && server.stats().backpressure_stalls < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.stats().backpressure_stalls, 2);
  EXPECT_GT(queued(), 0);

  // Once x drains, the gauge still holds y's backlog: it sums connections
  // instead of reporting whichever connection flushed last.
  std::vector<WireResponse> replies = ReadReplies(x.fd.get(), &x.dec, kSelects);
  ASSERT_EQ(replies.size(), static_cast<size_t>(kSelects));
  for (const WireResponse& r : replies) EXPECT_EQ(r.result.rows.size(), 500u);
  EXPECT_GT(queued(), 0);

  EXPECT_EQ(ReadReplies(y.fd.get(), &y.dec, kSelects).size(),
            static_cast<size_t>(kSelects));
  x.fd.reset();
  y.fd.reset();
  server.Stop();
  EXPECT_EQ(queued(), 0);
}

// --------------------------------------------------------------------------
// Executors own the connections they serve: a statement's frame is read,
// run and answered on one thread. Each case runs under both pollers.

class NetHandoffTest : public ::testing::TestWithParam<bool> {
 protected:
  NetServerOptions Options() const {
    NetServerOptions opts;
    opts.force_poll = GetParam();
    return opts;
  }
};

TEST_P(NetHandoffTest, LockWaitOnOneConnectionDoesNotStallOthers) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions opts = Options();
  opts.exec_threads = 2;
  NetProxyServer server(&db, &alloc, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Bootstrap().ok());

  TcpChannelOptions copts;
  copts.port = server.port();
  auto a = net::NetClient::Dial(copts);
  auto b = net::NetClient::Dial(copts);
  auto c = net::NetClient::Dial(copts);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  DbConnection& ca = (*a)->connection();
  DbConnection& cb = (*b)->connection();
  DbConnection& cc = (*c)->connection();
  Must(&ca, "CREATE TABLE acct (id INTEGER, bal INTEGER, PRIMARY KEY(id))");
  Must(&ca, "INSERT INTO acct VALUES (1, 100)");
  Must(&cc, "CREATE TABLE side (k INTEGER)");

  // A holds row 1's X lock in an open transaction.
  Must(&ca, "BEGIN");
  Must(&ca, "UPDATE acct SET bal = bal + 1 WHERE id = 1");

  // B's UPDATE of the same row parks in a lock wait, occupying one of the
  // two executors.
  const obs::Metrics& m = obs::Metrics::Get();
  const int64_t waits_before = obs::CounterValue(m.engine_lock_waits);
  Must(&cb, "BEGIN");
  std::atomic<bool> b_updated{false};
  std::thread b_thread([&] {
    Must(&cb, "UPDATE acct SET bal = bal + 10 WHERE id = 1");
    b_updated = true;
  });
  for (int i = 0; i < 500 && obs::CounterValue(m.engine_lock_waits) ==
                                 waits_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(obs::CounterValue(m.engine_lock_waits), waits_before);

  // C is answered by the other executor while B waits.
  for (int i = 0; i < 20; ++i) {
    Must(&cc, "INSERT INTO side VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(Must(&cc, "SELECT k FROM side").rows.size(), 20u);
  EXPECT_FALSE(b_updated.load());

  // A's COMMIT releases B, which commits.
  Must(&ca, "COMMIT");
  b_thread.join();
  EXPECT_TRUE(b_updated.load());
  Must(&cb, "COMMIT");
  ResultSet rs = Must(&cc, "SELECT bal FROM acct WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 111);

  a->reset();
  b->reset();
  c->reset();
  server.Stop();
  NetServerStats s = server.stats();
  EXPECT_GT(s.frames_in, 0);
  EXPECT_EQ(s.frames_in, s.frames_out);
  EXPECT_EQ(s.frames_in, s.requests_served);
}

TEST_P(NetHandoffTest, PipelinedRequestsAnsweredInOrder) {
  Database db(FlavorTraits::Postgres());
  constexpr int kFrames = 24;
  {
    DirectConnection setup(&db);
    Must(&setup, "CREATE TABLE pipe_t (a INTEGER)");
    for (int i = 0; i < kFrames; ++i) {
      Must(&setup, "INSERT INTO pipe_t VALUES (" + std::to_string(i) + ")");
    }
  }
  NetServerOptions opts = Options();
  opts.track = false;
  NetProxyServer server(&db, nullptr, opts);
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  FrameDecoder dec;
  WriteAll(fd->get(), EncodeFrame("CONNECT\n"));
  std::vector<WireResponse> hello = ReadReplies(fd->get(), &dec, 1);
  ASSERT_EQ(hello.size(), 1u);
  const int64_t session = hello[0].session;

  // One write carries every frame; each reply names its own row.
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    burst += ExecFrame(session,
                       "SELECT a FROM pipe_t WHERE a = " + std::to_string(i));
  }
  net::IoResult w = net::WriteSome(fd->get(), burst.data(), burst.size());
  ASSERT_EQ(w.state, net::IoState::kOk);
  ASSERT_EQ(w.bytes, burst.size());
  std::vector<WireResponse> replies = ReadReplies(fd->get(), &dec, kFrames);
  ASSERT_EQ(replies.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(replies[i].ok) << replies[i].error_message;
    ASSERT_EQ(replies[i].result.rows.size(), 1u) << "reply " << i;
    EXPECT_EQ(replies[i].result.rows[0][0].as_int(), i);
  }

  // Exactly once: the next frame is BYE's own reply, not a repeat.
  WireRequest bye;
  bye.kind = WireRequest::Kind::kDisconnect;
  bye.session = session;
  WriteAll(fd->get(), EncodeFrame(EncodeRequest(bye)));
  std::vector<WireResponse> farewell = ReadReplies(fd->get(), &dec, 1);
  ASSERT_EQ(farewell.size(), 1u);
  EXPECT_TRUE(farewell[0].ok);
  EXPECT_TRUE(farewell[0].result.rows.empty());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  fd->reset();
  server.Stop();
  NetServerStats s = server.stats();
  EXPECT_EQ(s.frames_in, kFrames + 2);
  EXPECT_EQ(s.frames_out, kFrames + 2);
  EXPECT_EQ(s.requests_served, kFrames + 2);
}

INSTANTIATE_TEST_SUITE_P(Pollers, NetHandoffTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

// --------------------------------------------------------------------------
// Concurrency: many threads x many connections, tracking completeness, and
// ProxyStats == obs registry at exit.

TEST(NetConcurrencyTest, ConcurrentSessionsTrackCompletely) {
  constexpr int kThreads = 8;
  constexpr int kConnsPerThread = 4;  // 32 connections total
  constexpr int kTxnsPerConn = 5;

  DeploymentOptions dopts;
  ResilientDb rdb(dopts);
  ASSERT_TRUE(rdb.Bootstrap().ok());
  auto server_r = rdb.ServeTcp();
  ASSERT_TRUE(server_r.ok()) << server_r.status().ToString();
  NetProxyServer& server = **server_r;

  // Per-connection tables, created through tracked sessions so they carry
  // the injected tracking columns.
  obs::MetricsRegistry::Default().Reset();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kConnsPerThread; ++c) {
        const int conn_id = t * kConnsPerThread + c;
        TcpChannelOptions copts;
        copts.port = server.port();
        auto client = net::NetClient::Dial(copts);
        if (!client.ok()) {
          ++failures;
          return;
        }
        DbConnection& conn = (*client)->connection();
        const std::string table = "ct" + std::to_string(conn_id);
        auto run = [&](const std::string& sql) {
          auto r = conn.Execute(sql);
          if (!r.ok()) ++failures;
          return r;
        };
        run("CREATE TABLE " + table + " (k INTEGER, v INTEGER)");
        for (int j = 0; j < kTxnsPerConn; ++j) {
          run("BEGIN");
          run("INSERT INTO " + table + " VALUES (" + std::to_string(j) + ", " +
              std::to_string(conn_id * 1000 + j) + ")");
          if (j > 0) run("SELECT v FROM " + table);  // intra-conn dependency
          conn.SetAnnotation("c" + std::to_string(conn_id) + "_t" +
                             std::to_string(j));
          run("COMMIT");
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const proxy::ProxyStats proxy_stats = server.ProxyStatsSnapshot();
  server.Stop();

  // Tracking completeness: every annotated commit has trans_dep rows.
  DbConnection* admin = rdb.Admin();
  std::set<int64_t> dep_trids;
  for (const auto& row : Must(admin, "SELECT tr_id FROM trans_dep").rows) {
    dep_trids.insert(row[0].as_int());
  }
  ResultSet annot_rs = Must(admin, "SELECT tr_id, descr FROM annot");
  EXPECT_EQ(annot_rs.rows.size(),
            static_cast<size_t>(kThreads * kConnsPerThread * kTxnsPerConn));
  for (const auto& row : annot_rs.rows) {
    EXPECT_TRUE(dep_trids.count(row[0].as_int()) > 0)
        << "committed txn " << row[0].as_int() << " ("
        << row[1].as_string() << ") has no trans_dep row";
  }

  // ProxyStats must agree exactly with the obs registry (both were zeroed
  // together and fed by the same code paths).
  const obs::Metrics& m = obs::Metrics::Get();
  EXPECT_EQ(proxy_stats.client_statements,
            obs::CounterValue(m.proxy_client_statements));
  EXPECT_EQ(proxy_stats.backend_statements,
            obs::CounterValue(m.proxy_backend_statements));
  EXPECT_EQ(proxy_stats.dep_fetches, obs::CounterValue(m.proxy_dep_fetches));
  EXPECT_EQ(proxy_stats.trans_dep_inserts,
            obs::CounterValue(m.proxy_trans_dep_inserts));
  EXPECT_EQ(proxy_stats.deps_recorded,
            obs::CounterValue(m.proxy_deps_recorded));
  EXPECT_EQ(proxy_stats.retries, obs::CounterValue(m.proxy_retries));
  EXPECT_EQ(proxy_stats.deadlock_retries,
            obs::CounterValue(m.proxy_deadlock_retries));
  EXPECT_EQ(proxy_stats.degraded_commits,
            obs::CounterValue(m.proxy_degraded_commits));
  EXPECT_EQ(proxy_stats.tracking_gap_txns,
            obs::CounterValue(m.proxy_tracking_gap_txns));
  EXPECT_EQ(proxy_stats.degraded_commits, 0);
  EXPECT_EQ(proxy_stats.tracking_gap_txns, 0);

  // Transport counters: the obs mirrors match the server's atomics, and the
  // clean-drain identity holds.
  NetServerStats s = server.stats();
  EXPECT_EQ(s.frames_in, obs::CounterValue(m.net_frames_in));
  EXPECT_EQ(s.frames_out, obs::CounterValue(m.net_frames_out));
  EXPECT_EQ(s.requests_served, obs::CounterValue(m.net_requests));
  EXPECT_EQ(s.bytes_in, obs::CounterValue(m.net_bytes_in));
  EXPECT_EQ(s.bytes_out, obs::CounterValue(m.net_bytes_out));
  EXPECT_EQ(s.connections_accepted,
            obs::CounterValue(m.net_connections_accepted));
  EXPECT_EQ(s.frames_in, s.frames_out);
  EXPECT_EQ(s.frames_in, s.requests_served);
  EXPECT_EQ(s.connections_accepted, kThreads * kConnsPerThread);
  EXPECT_EQ(s.connections_accepted, s.connections_closed);
  EXPECT_EQ(obs::CounterValue(m.net_connections_active), 0);
  EXPECT_EQ(obs::CounterValue(m.net_sessions_active), 0);
}

// --------------------------------------------------------------------------
// Serial loopback vs concurrent TCP: identical tracking tables (in
// annotation-label space) and identical repair results for the same seeded
// workload.

struct CanonicalTracking {
  // label -> sorted set of (table, dependency label)
  std::map<std::string, std::set<std::pair<std::string, std::string>>> deps;
  std::map<std::string, int64_t> trid_by_label;
};

CanonicalTracking Canonicalize(DbConnection* admin) {
  CanonicalTracking out;
  std::map<int64_t, std::string> label_by_trid;
  for (const auto& row : Must(admin, "SELECT tr_id, descr FROM annot").rows) {
    label_by_trid[row[0].as_int()] = row[1].as_string();
    out.trid_by_label[row[1].as_string()] = row[0].as_int();
  }
  std::map<int64_t, std::string> payloads;  // chunks reassembled in row order
  for (const auto& row :
       Must(admin, "SELECT tr_id, dep_tr_ids FROM trans_dep").rows) {
    std::string& p = payloads[row[0].as_int()];
    const std::string chunk = row[1].as_string();
    if (!p.empty() && !chunk.empty()) p += ' ';
    p += chunk;
  }
  for (const auto& [trid, payload] : payloads) {
    auto lit = label_by_trid.find(trid);
    if (lit == label_by_trid.end()) continue;  // unannotated (setup) txn
    auto deps = proxy::ParseDepTokens(payload);
    EXPECT_TRUE(deps.ok());
    auto& slot = out.deps[lit->second];
    for (const auto& [table, dep_trid] : *deps) {
      auto dl = label_by_trid.find(dep_trid);
      // Every dependency in this workload points at an annotated txn.
      EXPECT_TRUE(dl != label_by_trid.end()) << "dep on unlabelled txn";
      if (dl != label_by_trid.end()) slot.insert({table, dl->second});
    }
  }
  return out;
}

constexpr int kEqConns = 32;
constexpr int kEqTxns = 4;

// Per-connection data flow stays intra-connection, so those edges are
// schedule-independent; the shared read-only eqref table adds one
// deterministic CROSS-connection edge to every transaction (a read
// dependency on the annotated seeding txn), proving the lock manager's
// shared-mode grants do not perturb tracking.
std::vector<std::string> EqTableNames() {
  std::vector<std::string> names;
  names.push_back("eqref");
  for (int i = 0; i < kEqConns; ++i) names.push_back("eq" + std::to_string(i));
  return names;
}

// Creates and seeds the shared reference table through a tracked, annotated
// transaction so every later reader records a dependency on label "eqseed".
void SeedEqRef(DbConnection* conn) {
  Must(conn, "CREATE TABLE eqref (k INTEGER, v INTEGER)");
  Must(conn, "BEGIN");
  Must(conn, "INSERT INTO eqref VALUES (1, 7)");
  conn->SetAnnotation("eqseed");
  Must(conn, "COMMIT");
}

void RunEqScript(DbConnection* conn, int conn_id) {
  const std::string table = "eq" + std::to_string(conn_id);
  Must(conn, "CREATE TABLE " + table + " (k INTEGER, v INTEGER)");
  for (int j = 0; j < kEqTxns; ++j) {
    Must(conn, "BEGIN");
    Must(conn, "SELECT v FROM eqref");  // cross-connection dep on eqseed
    Must(conn, "INSERT INTO " + table + " VALUES (" + std::to_string(j) +
                   ", " + std::to_string(conn_id * 100 + j) + ")");
    if (j > 0) {
      Must(conn, "SELECT v FROM " + table);
      Must(conn, "UPDATE " + table + " SET v = v + 1 WHERE k = " +
                     std::to_string(j - 1));
    }
    conn->SetAnnotation("c" + std::to_string(conn_id) + "_t" +
                        std::to_string(j));
    Must(conn, "COMMIT");
  }
}

struct EqRunResult {
  CanonicalTracking tracking;
  uint64_t pre_repair_hash = 0;
  uint64_t post_repair_hash = 0;
  std::set<std::string> undo_labels;
};

// Repairs from the seed txn labelled c0_t1 and canonicalizes everything
// into label space.
EqRunResult FinishEqRun(ResilientDb& rdb) {
  EqRunResult out;
  // No faults, so the concurrent run must be exactly as well-tracked as the
  // serial one: zero tracking gaps.
  EXPECT_TRUE(Must(rdb.Admin(), "SELECT tr_id FROM tracking_gaps").rows.empty());
  out.tracking = Canonicalize(rdb.Admin());
  out.pre_repair_hash = rdb.db().StateHash(EqTableNames(), {"trid"});
  auto seed_it = out.tracking.trid_by_label.find("c0_t1");
  EXPECT_TRUE(seed_it != out.tracking.trid_by_label.end());
  auto report = rdb.repair().Repair({seed_it->second},
                                    repair::DbaPolicy::TrackEverything());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    std::map<int64_t, std::string> label_by_trid;
    for (const auto& [label, trid] : out.tracking.trid_by_label) {
      label_by_trid[trid] = label;
    }
    for (int64_t trid : report->undo_set) {
      auto it = label_by_trid.find(trid);
      EXPECT_TRUE(it != label_by_trid.end()) << "undid unlabelled txn " << trid;
      if (it != label_by_trid.end()) out.undo_labels.insert(it->second);
    }
  }
  out.post_repair_hash = rdb.db().StateHash(EqTableNames(), {"trid"});
  return out;
}

TEST(NetEquivalenceTest, SerialLoopbackMatchesConcurrentTcp) {
  // Run 1: serial, in-process loopback through the dual-proxy stack.
  EqRunResult serial;
  {
    DeploymentOptions dopts;
    dopts.arch = ProxyArch::kDualProxy;
    ResilientDb rdb(dopts);
    ASSERT_TRUE(rdb.Bootstrap().ok());
    {
      auto seeder = rdb.Connect();
      ASSERT_TRUE(seeder.ok());
      SeedEqRef(seeder->get());
    }
    for (int i = 0; i < kEqConns; ++i) {
      auto conn = rdb.Connect();
      ASSERT_TRUE(conn.ok());
      RunEqScript(conn->get(), i);
    }
    serial = FinishEqRun(rdb);
  }

  // Run 2: 8 client threads x 32 TCP connections against NetProxyServer.
  EqRunResult tcp;
  {
    DeploymentOptions dopts;
    ResilientDb rdb(dopts);
    ASSERT_TRUE(rdb.Bootstrap().ok());
    NetServerOptions sopts;
    sopts.exec_threads = 8;
    auto server_r = rdb.ServeTcp(sopts);
    ASSERT_TRUE(server_r.ok());
    {
      TcpChannelOptions copts;
      copts.port = (*server_r)->port();
      auto seeder = net::NetClient::Dial(copts);
      ASSERT_TRUE(seeder.ok());
      SeedEqRef(&(*seeder)->connection());
    }
    std::atomic<int> next_conn{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int i = next_conn.fetch_add(1); i < kEqConns;
             i = next_conn.fetch_add(1)) {
          TcpChannelOptions copts;
          copts.port = (*server_r)->port();
          auto client = net::NetClient::Dial(copts);
          ASSERT_TRUE(client.ok());
          RunEqScript(&(*client)->connection(), i);
        }
      });
    }
    for (auto& th : threads) th.join();
    (*server_r)->Stop();
    tcp = FinishEqRun(rdb);
  }

  // Identical tracking tables in label space, identical data, identical
  // repair decisions and repaired state.
  EXPECT_EQ(serial.tracking.deps, tcp.tracking.deps);
  EXPECT_EQ(serial.pre_repair_hash, tcp.pre_repair_hash);
  EXPECT_EQ(serial.undo_labels, tcp.undo_labels);
  EXPECT_EQ(serial.post_repair_hash, tcp.post_repair_hash);
  // The seeded repair must actually undo something: the seed plus the
  // dependent tail of connection 0's chain.
  EXPECT_GE(serial.undo_labels.size(), 2u);
  EXPECT_TRUE(serial.undo_labels.count("c0_t1") == 1);
  // Every workload txn recorded its deterministic cross-connection read
  // dependency on the shared reference table's seeding txn.
  for (const auto& [label, deps] : serial.tracking.deps) {
    if (label == "eqseed") continue;
    EXPECT_EQ(deps.count({"eqref", "eqseed"}), 1u) << label;
  }
}

// --------------------------------------------------------------------------
// Injected connection resets mid-transaction: the client-side tracking
// proxy must fall back to the PR 2 degraded-commit / tracking-gap path
// instead of hanging or aborting the whole run.

TEST(NetFaultTest, ResetStormAtCommitTriggersDegradedPath) {
  Database db(FlavorTraits::Postgres());
  proxy::TxnIdAllocator alloc;
  NetServerOptions sopts;
  sopts.track = false;  // tracking lives on the client for this deployment
  NetProxyServer server(&db, &alloc, sopts);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions copts;
  copts.port = server.port();
  TcpChannel channel(copts);
  // No transport-level retries: the tracking proxy's own bounded retry is
  // the layer under test.
  auto remote = RemoteConnection::Connect(&channel, RetryPolicy::None());
  ASSERT_TRUE(remote.ok());
  proxy::TrackingProxy proxy(remote->get(), &alloc, FlavorTraits::Postgres());
  proxy.set_degraded_mode(proxy::DegradedMode::kCommitUntracked);
  ASSERT_TRUE(proxy.EnsureTrackingTables().ok());

  Must(&proxy, "CREATE TABLE storm (a INTEGER)");
  Must(&proxy, "BEGIN");
  Must(&proxy, "INSERT INTO storm VALUES (1)");
  // Exactly enough resets to exhaust the proxy's trans_dep retry budget
  // (max_attempts = 3); the gap record and COMMIT afterwards go through.
  fail::Registry::Instance().Seed(9);
  fail::Registry::Instance().Arm(net::kSendFailpoint, fail::Trigger::Always(3));
  auto commit = proxy.Execute("COMMIT");
  fail::Registry::Instance().DisarmAll();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();

  EXPECT_EQ(proxy.stats().degraded_commits, 1);
  EXPECT_EQ(proxy.stats().tracking_gap_txns, 1);
  EXPECT_GE(proxy.stats().injected_faults_hit, 1);

  // The committed data is present, and the txn id is quarantined.
  EXPECT_EQ(Must(&proxy, "SELECT a FROM storm").rows.size(), 1u);
  ResultSet gaps = Must(&proxy, "SELECT tr_id FROM tracking_gaps");
  EXPECT_EQ(gaps.rows.size(), 1u);
  remote->reset();
  server.Stop();
}

}  // namespace
}  // namespace irdb
