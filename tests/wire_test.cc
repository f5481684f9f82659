// Wire-layer tests: text protocol codecs, the latency-modelled channel,
// and RemoteConnection semantics over a live server.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "wire/channel.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace irdb {
namespace {

TEST(ProtocolTest, ValueCodecRoundTrip) {
  Rng rng(5);
  std::vector<Value> values = {Value::Null(), Value::Int(0),
                               Value::Int(-123456789), Value::Double(2.5),
                               Value::Double(-1.0 / 3.0), Value::Str(""),
                               Value::Str("with\nnewline and \\slash"),
                               Value::Str("unicode-ish \xc3\xa9")};
  for (int i = 0; i < 200; ++i) {
    values.push_back(Value::Str(rng.AlnumString(0, 40)));
    values.push_back(Value::Int(static_cast<int64_t>(rng.Next())));
  }
  for (const Value& v : values) {
    auto back = DecodeValue(EncodeValue(v));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    if (v.is_double()) {
      EXPECT_EQ(back->as_double(), v.as_double());
    }
  }
}

TEST(ProtocolTest, RequestRoundTrip) {
  WireRequest req;
  req.kind = WireRequest::Kind::kExec;
  req.session = 42;
  req.sql = "SELECT a FROM t WHERE s = 'multi\nline'";
  auto back = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, req.kind);
  EXPECT_EQ(back->session, 42);
  EXPECT_EQ(back->sql, req.sql);

  req.kind = WireRequest::Kind::kAnnotate;
  req.sql = "Order_1_2_3_4";
  back = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, WireRequest::Kind::kAnnotate);
  EXPECT_EQ(back->sql, "Order_1_2_3_4");
}

TEST(ProtocolTest, ResponseRoundTrip) {
  WireResponse resp;
  resp.ok = true;
  resp.session = 3;
  resp.result.columns = {"a", "weird\ncol"};
  resp.result.rows = {{Value::Int(1), Value::Str("x\ny")},
                      {Value::Null(), Value::Double(0.25)}};
  resp.result.affected = 5;
  resp.result.last_rowid = 77;
  resp.result.last_identity = 8;
  auto back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->result.columns, resp.result.columns);
  ASSERT_EQ(back->result.rows.size(), 2u);
  EXPECT_EQ(back->result.rows[0][1].as_string(), "x\ny");
  EXPECT_EQ(back->result.affected, 5);
  EXPECT_EQ(back->result.last_rowid, 77);
  EXPECT_EQ(back->result.last_identity, 8);
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  WireResponse resp;
  resp.ok = false;
  resp.error_code = StatusCode::kConstraint;
  resp.error_message = "column x is NOT NULL";
  auto back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error_code, StatusCode::kConstraint);
  EXPECT_EQ(back->error_message, resp.error_message);
}

TEST(ProtocolTest, MalformedInputsRejected) {
  EXPECT_FALSE(DecodeRequest("").ok());
  EXPECT_FALSE(DecodeRequest("NONSENSE 1\n").ok());
  EXPECT_FALSE(DecodeRequest("EXEC abc\nSELECT").ok());
  EXPECT_FALSE(DecodeResponse("").ok());
  EXPECT_FALSE(DecodeResponse("OK 1 2\n").ok());        // wrong field count
  EXPECT_FALSE(DecodeResponse("OK 1 2 3 4 1 1\n").ok());  // truncated body
  EXPECT_FALSE(DecodeValue("").ok());
  EXPECT_FALSE(DecodeValue("Z99").ok());
  EXPECT_FALSE(DecodeValue("Iabc").ok());
}

TEST(ChannelTest, ChargesRttAndBytes) {
  VirtualClock clock;
  LatencyParams params;
  params.rtt_seconds = 1e-3;
  params.bytes_per_second = 1000;  // 1 byte per ms
  LoopbackChannel channel([](std::string_view) { return std::string(10, 'x'); },
                          params, &clock);
  auto resp = channel.RoundTrip("12345");  // 5 out + 10 back
  ASSERT_TRUE(resp.ok());
  EXPECT_NEAR(clock.seconds(), 1e-3 + 15.0 / 1000, 1e-9);
  EXPECT_EQ(channel.bytes_sent(), 5);
  EXPECT_EQ(channel.bytes_received(), 10);
  EXPECT_EQ(channel.round_trips(), 1);
}

TEST(RemoteConnectionTest, ExecutesAndIsolatesSessions) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);

  auto c1 = RemoteConnection::Connect(&channel);
  auto c2 = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)->Execute("CREATE TABLE t (a INTEGER)").ok());

  // c1 opens a transaction; c2 must not be inside it.
  ASSERT_TRUE((*c1)->Execute("BEGIN").ok());
  ASSERT_TRUE((*c1)->Execute("INSERT INTO t(a) VALUES (1)").ok());
  auto r2 = (*c2)->Execute("COMMIT");
  EXPECT_FALSE(r2.ok());  // no txn open on c2's session
  ASSERT_TRUE((*c1)->Execute("COMMIT").ok());

  auto rows = (*c2)->Execute("SELECT a FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST(ChannelTest, FaultHookDropsRequestBeforeHandler) {
  VirtualClock clock;
  int handled = 0;
  LoopbackChannel channel(
      [&](std::string_view) {
        ++handled;
        return "resp";
      },
      LatencyParams::Local(), &clock);
  bool drop = true;
  channel.set_fault_hook([&](std::string_view) {
    return drop ? Status::Unavailable("lost") : Status::Ok();
  });
  auto r1 = channel.RoundTrip("req");
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(handled, 0);  // the peer never saw the request
  EXPECT_EQ(channel.dropped_round_trips(), 1);
  EXPECT_GT(clock.seconds(), 0);  // the lost round trip still costs an RTT

  drop = false;
  auto r2 = channel.RoundTrip("req");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "resp");
  EXPECT_EQ(handled, 1);
}

TEST(RetryTest, TransientFaultsAreRetriedToSuccess) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);
  int failures_left = 0;
  channel.set_fault_hook([&](std::string_view) {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("lost");
    }
    return Status::Ok();
  });

  auto conn = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->Execute("CREATE TABLE t (a INTEGER)").ok());

  // Default policy allows 4 attempts: 3 drops still succeed.
  failures_left = 3;
  const double before = clock.seconds();
  auto r = (*conn)->Execute("INSERT INTO t(a) VALUES (1)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*conn)->retries(), 3);
  // Backoff (0.5ms + 1ms + 2ms) was charged to the virtual clock on top of
  // the four RTTs.
  EXPECT_GT(clock.seconds() - before, 3.5e-3);

  auto rows = (*conn)->Execute("SELECT a FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);  // no duplicate insert from the retries
}

TEST(RetryTest, ExhaustionSurfacesUnavailable) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);
  auto conn = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn.ok());

  channel.set_fault_hook(
      [](std::string_view) { return Status::Unavailable("lost"); });
  const int64_t trips_before = channel.round_trips();
  auto r = (*conn)->Execute("SELECT 1 FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(channel.round_trips() - trips_before, 4);  // all attempts used
  EXPECT_EQ((*conn)->retries(), 3);
  channel.set_fault_hook(nullptr);
}

TEST(RetryTest, NonRetryableErrorsAreNotRetried) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);
  auto conn = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn.ok());
  const int64_t trips_before = channel.round_trips();
  auto r = (*conn)->Execute("SELECT a FROM missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(channel.round_trips() - trips_before, 1);
  EXPECT_EQ((*conn)->retries(), 0);
}

TEST(RetryTest, FailpointInjectsRetryableWireFaults) {
  fail::Registry::Instance().DisarmAll();
  fail::Registry::Instance().Seed(99);
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);
  auto conn = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn.ok());

  fail::Registry::Instance().Arm("wire.roundtrip", fail::Trigger::OneShot());
  auto r = (*conn)->Execute("CREATE TABLE t (a INTEGER)");
  fail::Registry::Instance().DisarmAll();
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // one drop, one retry
  EXPECT_EQ((*conn)->retries(), 1);
  EXPECT_EQ(channel.dropped_round_trips(), 1);
}

TEST(RemoteConnectionTest, ErrorsCrossTheWire) {
  Database db(FlavorTraits::Postgres());
  DbServer server(&db);
  VirtualClock clock;
  LoopbackChannel channel(
      [&](std::string_view req) { return server.Handle(req); },
      LatencyParams::Local(), &clock);
  auto conn = RemoteConnection::Connect(&channel);
  ASSERT_TRUE(conn.ok());
  auto r = (*conn)->Execute("SELECT a FROM missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  auto p = (*conn)->Execute("SELEKT");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace irdb
