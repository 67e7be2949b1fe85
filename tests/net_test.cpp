// Unit tests for the network substrate: links, routing, flows, WiFi, USB,
// Bluetooth, VPN, speedtest, DNS, SSH.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/bluetooth.hpp"
#include "net/dns.hpp"
#include "net/flow.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/speedtest.hpp"
#include "net/ssh.hpp"
#include "net/usb.hpp"
#include "net/vpn.hpp"
#include "net/wifi.hpp"
#include "sim/simulator.hpp"

namespace blab::net {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------- link ----

constexpr Direction kAB = Direction::kAtoB;
constexpr Direction kBA = Direction::kBtoA;

TEST(LinkTest, SerializationTime) {
  // 1 MB at 8 Mbps = 1 second.
  EXPECT_NEAR(serialization_time(1'000'000, 8.0).to_seconds(), 1.0, 1e-9);
  EXPECT_EQ(serialization_time(100, 0.0), Duration::max());
}

TEST(LinkTest, TransitIncludesLatencyAndSerialization) {
  util::Rng rng{1};
  Link link{"a", "b", LinkSpec::symmetric(Duration::millis(10), 8.0)};
  const auto t = link.send(kAB, 1'000'000, TimePoint::epoch(), rng);
  EXPECT_FALSE(t.dropped);
  EXPECT_NEAR(t.delay.to_seconds(), 1.010, 1e-3);
}

TEST(LinkTest, BackToBackSendsQueue) {
  util::Rng rng{1};
  Link link{"a", "b", LinkSpec::symmetric(Duration::millis(0), 8.0)};
  const auto first = link.send(kAB, 1'000'000, TimePoint::epoch(), rng);
  const auto second = link.send(kAB, 1'000'000, TimePoint::epoch(), rng);
  EXPECT_NEAR(second.delay.to_seconds(), first.delay.to_seconds() + 1.0, 1e-3);
}

TEST(LinkTest, DirectionsQueueIndependently) {
  util::Rng rng{1};
  Link link{"a", "b", LinkSpec::symmetric(Duration::millis(0), 8.0)};
  (void)link.send(kAB, 1'000'000, TimePoint::epoch(), rng);
  const auto reverse = link.send(kBA, 1'000'000, TimePoint::epoch(), rng);
  EXPECT_NEAR(reverse.delay.to_seconds(), 1.0, 1e-3);
}

TEST(LinkTest, AsymmetricBandwidth) {
  util::Rng rng{1};
  LinkSpec spec;
  spec.latency = Duration::zero();
  spec.bandwidth_ab_mbps = 8.0;
  spec.bandwidth_ba_mbps = 80.0;
  Link link{"a", "b", spec};
  EXPECT_NEAR(link.send(kAB, 1'000'000, TimePoint::epoch(), rng)
                  .delay.to_seconds(),
              1.0, 1e-3);
  EXPECT_NEAR(link.send(kBA, 1'000'000, TimePoint::epoch(), rng)
                  .delay.to_seconds(),
              0.1, 1e-3);
}

TEST(LinkTest, LossDropsPackets) {
  util::Rng rng{1};
  LinkSpec spec = LinkSpec::symmetric(Duration::millis(1), 100.0);
  spec.loss_rate = 0.5;
  Link link{"a", "b", spec};
  int drops = 0;
  for (int i = 0; i < 1000; ++i) {
    if (link.send(kAB, 100, TimePoint::epoch(), rng).dropped) ++drops;
  }
  EXPECT_NEAR(drops, 500, 60);
  EXPECT_EQ(link.drops(), static_cast<std::uint64_t>(drops));
}

TEST(LinkTest, ByteCountersPerDirection) {
  util::Rng rng{1};
  Link link{"a", "b", LinkSpec::symmetric(Duration::millis(1), 100.0)};
  (void)link.send(kAB, 100, TimePoint::epoch(), rng);
  (void)link.send(kBA, 50, TimePoint::epoch(), rng);
  EXPECT_EQ(link.bytes_ab(), 100u);
  EXPECT_EQ(link.bytes_ba(), 50u);
}

// ------------------------------------------------------------- network ----

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Network net{sim, 7};
};

TEST_F(NetworkTest, DeliversToListener) {
  net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(5), 100.0));
  std::string got;
  net.listen({"b", 80}, [&](const Message& m) { got = m.payload; });
  Message m;
  m.src = {"a", 1000};
  m.dst = {"b", 80};
  m.tag = "test";
  m.payload = "hello";
  ASSERT_TRUE(net.send(std::move(m)).ok());
  sim.run_all();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(net.delivered(), 1u);
}

TEST_F(NetworkTest, SendFailsWithoutRoute) {
  net.add_host("a");
  net.add_host("z");
  net.listen({"z", 80}, [](const Message&) {});
  Message m;
  m.src = {"a", 1};
  m.dst = {"z", 80};
  EXPECT_FALSE(net.send(std::move(m)).ok());
}

TEST_F(NetworkTest, SendFailsWithoutListener) {
  net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 100.0));
  Message m;
  m.src = {"a", 1};
  m.dst = {"b", 80};
  const auto st = net.send(std::move(m));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::ErrorCode::kNotFound);
}

TEST_F(NetworkTest, MultiHopRouting) {
  net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(5), 100.0));
  net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(5), 100.0));
  const auto path = net.path("a", "b");
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], "m");
  TimePoint delivered_at;
  net.listen({"b", 80}, [&](const Message&) { delivered_at = sim.now(); });
  Message m;
  m.src = {"a", 1};
  m.dst = {"b", 80};
  m.wire_bytes = 64;
  ASSERT_TRUE(net.send(std::move(m)).ok());
  sim.run_all();
  EXPECT_GE((delivered_at - TimePoint::epoch()).to_millis(), 10.0);
}

TEST_F(NetworkTest, HopCostSteersRouting) {
  // Direct expensive link vs two cheap hops.
  LinkSpec direct = LinkSpec::symmetric(Duration::millis(1), 10.0);
  direct.hop_cost = 5;
  net.add_link("a", "b", direct);
  net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  const auto path = net.path("a", "b");
  ASSERT_EQ(path.size(), 3u) << "should avoid the cost-5 direct link";
}

TEST_F(NetworkTest, DisabledLinkInvisibleToRouting) {
  auto& link = net.add_link("a", "b",
                            LinkSpec::symmetric(Duration::millis(1), 10.0));
  EXPECT_EQ(net.path("a", "b").size(), 2u);
  link.set_enabled(false);
  EXPECT_TRUE(net.path("a", "b").empty());
  link.set_enabled(true);
  EXPECT_EQ(net.path("a", "b").size(), 2u);
}

TEST_F(NetworkTest, ParallelLinksSelectedByLabelAndCost) {
  LinkSpec usb = LinkSpec::symmetric(Duration::micros(100), 480.0);
  usb.hop_cost = 1;
  LinkSpec wifi = LinkSpec::symmetric(Duration::millis(2), 36.0);
  wifi.hop_cost = 2;
  auto& usb_link = net.add_link("ctrl", "dev", usb, "usb");
  net.add_link("ctrl", "dev", wifi, "wifi");
  EXPECT_EQ(net.find_link("ctrl", "dev", "usb"), &usb_link);
  EXPECT_NE(net.find_link("ctrl", "dev", "wifi"), nullptr);
  EXPECT_EQ(net.find_link("ctrl", "dev", "bt"), nullptr);

  // With USB up, messages ride it (sub-ms delivery).
  TimePoint at;
  net.listen({"dev", 1}, [&](const Message&) { at = sim.now(); });
  Message m;
  m.src = {"ctrl", 9};
  m.dst = {"dev", 1};
  m.wire_bytes = 64;
  ASSERT_TRUE(net.send(std::move(m)).ok());
  sim.run_all();
  EXPECT_LT((at - TimePoint::epoch()).to_millis(), 1.0);

  // Cut USB: traffic falls over to WiFi (≥2 ms latency).
  usb_link.set_enabled(false);
  const TimePoint before = sim.now();
  Message m2;
  m2.src = {"ctrl", 9};
  m2.dst = {"dev", 1};
  m2.wire_bytes = 64;
  ASSERT_TRUE(net.send(std::move(m2)).ok());
  sim.run_all();
  EXPECT_GE((at - before).to_millis(), 1.5);
}

TEST_F(NetworkTest, GatewayForcesPathThroughVpnNode) {
  net.add_link("ctrl", "vpn", LinkSpec::symmetric(Duration::millis(50), 10.0));
  net.add_link("ctrl", "internet",
               LinkSpec::symmetric(Duration::millis(5), 100.0));
  net.add_link("vpn", "internet",
               LinkSpec::symmetric(Duration::millis(3), 10.0));
  ASSERT_TRUE(net.set_gateway("ctrl", "vpn").ok());
  const auto path = net.path("ctrl", "internet");
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], "vpn");
  ASSERT_TRUE(net.set_gateway("ctrl", "").ok());
  EXPECT_EQ(net.path("ctrl", "internet").size(), 2u);
}

TEST_F(NetworkTest, GatewayToUnknownHostFails) {
  net.add_host("a");
  EXPECT_FALSE(net.set_gateway("a", "nope").ok());
}

TEST_F(NetworkTest, HostStatsAccumulate) {
  net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 100.0));
  net.listen({"b", 80}, [](const Message&) {});
  Message m;
  m.src = {"a", 1};
  m.dst = {"b", 80};
  m.wire_bytes = 500;
  ASSERT_TRUE(net.send(std::move(m)).ok());
  sim.run_all();
  EXPECT_EQ(net.stats("a").bytes_tx, 500u);
  EXPECT_EQ(net.stats("b").bytes_rx, 500u);
  EXPECT_EQ(net.stats("a").msgs_tx, 1u);
  net.reset_stats();
  EXPECT_EQ(net.stats("a").bytes_tx, 0u);
}

TEST_F(NetworkTest, PathBandwidthIsBottleneck) {
  net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(1), 100.0));
  net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(1), 7.0));
  auto bw = net.path_bandwidth_mbps("a", "b");
  ASSERT_TRUE(bw.ok());
  EXPECT_DOUBLE_EQ(bw.value(), 7.0);
}

// ---------------------------------------------------------------- flow ----

class FlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net.add_link("src", "dst", LinkSpec::symmetric(Duration::millis(5), 10.0));
  }
  sim::Simulator sim;
  Network net{sim, 11};
};

TEST_F(FlowTest, TransfersAllBytes) {
  FlowResult result;
  Flow flow{net, "src", "dst", 2 * 1024 * 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  ASSERT_TRUE(flow.done());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.bytes, 2u * 1024 * 1024);
  EXPECT_GT(result.throughput_mbps, 5.0);
  EXPECT_LE(result.throughput_mbps, 10.5);
}

TEST_F(FlowTest, ThroughputApproachesBottleneck) {
  FlowResult result;
  Flow flow{net, "src", "dst", 10 * 1024 * 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  EXPECT_NEAR(result.throughput_mbps, 10.0, 1.2);
}

TEST_F(FlowTest, SurvivesPacketLoss) {
  net.find_link("src", "dst")->set_spec([&] {
    LinkSpec spec = LinkSpec::symmetric(Duration::millis(5), 10.0);
    spec.loss_rate = 0.05;
    return spec;
  }());
  FlowResult result;
  Flow flow{net, "src", "dst", 4 * 1024 * 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.retransmissions, 0);
}

TEST_F(FlowTest, FailsWithoutRoute) {
  net.add_host("island");
  FlowResult result;
  Flow flow{net, "src", "island", 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  EXPECT_TRUE(flow.done());
  EXPECT_FALSE(result.success);
}

TEST_F(FlowTest, EstimateMatchesSimulationOrder) {
  const auto est = Flow::estimate(10 * 1024 * 1024, Duration::millis(10), 10.0);
  FlowResult result;
  Flow flow{net, "src", "dst", 10 * 1024 * 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  // Estimate and simulation should agree within a factor of two.
  EXPECT_GT(result.elapsed.to_seconds() / est.to_seconds(), 0.5);
  EXPECT_LT(result.elapsed.to_seconds() / est.to_seconds(), 2.0);
}

// Property: flow options (segment size, window) never break correctness —
// all bytes arrive over a mildly lossy path for every configuration.
struct FlowOptionCase {
  std::size_t segment_bytes;
  std::size_t init_cwnd;
};

class FlowOptionSweep : public ::testing::TestWithParam<FlowOptionCase> {};

TEST_P(FlowOptionSweep, CompletesUnderLoss) {
  sim::Simulator sim;
  Network net{sim, 9};
  LinkSpec spec = LinkSpec::symmetric(Duration::millis(10), 25.0);
  spec.loss_rate = 0.01;
  net.add_link("s", "d", spec);
  FlowOptions options;
  options.segment_bytes = GetParam().segment_bytes;
  options.init_cwnd_segments = GetParam().init_cwnd;
  FlowResult result;
  Flow flow{net, "s", "d", 2 * 1024 * 1024, options,
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  EXPECT_TRUE(result.success)
      << "segment=" << GetParam().segment_bytes
      << " cwnd=" << GetParam().init_cwnd;
  EXPECT_EQ(result.bytes, 2u * 1024 * 1024);
}

INSTANTIATE_TEST_SUITE_P(
    Options, FlowOptionSweep,
    ::testing::Values(FlowOptionCase{4 * 1024, 2},
                      FlowOptionCase{16 * 1024, 10},
                      FlowOptionCase{64 * 1024, 10},
                      FlowOptionCase{256 * 1024, 4},
                      FlowOptionCase{1440, 10}));

// Property: flows of many sizes all complete and never exceed link capacity.
class FlowSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowSizeSweep, CompletesWithinCapacity) {
  sim::Simulator sim;
  Network net{sim, 3};
  net.add_link("s", "d", LinkSpec::symmetric(Duration::millis(8), 20.0));
  FlowResult result;
  Flow flow{net, "s", "d", GetParam(), {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  EXPECT_TRUE(result.success);
  EXPECT_LE(result.throughput_mbps, 21.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowSizeSweep,
                         ::testing::Values(1, 1000, 64 * 1024, 100 * 1024,
                                           1024 * 1024, 5 * 1024 * 1024));

TEST_F(FlowTest, ByteAccountingConserved) {
  FlowResult result;
  Flow flow{net, "src", "dst", 3 * 1024 * 1024, {},
            [&](const FlowResult& r) { result = r; }};
  flow.start();
  sim.run_all();
  ASSERT_TRUE(result.success);
  // Everything src sent (payload + headers) was received by dst, and the
  // ack stream flows the other way — conservation at the host counters.
  EXPECT_EQ(net.stats("src").bytes_tx, net.stats("dst").bytes_rx);
  EXPECT_EQ(net.stats("dst").bytes_tx, net.stats("src").bytes_rx);
  EXPECT_GE(net.stats("src").bytes_tx, 3u * 1024 * 1024);
  // Header + ack overhead stays below 1%.
  EXPECT_LT(static_cast<double>(net.stats("src").bytes_tx),
            3.0 * 1024 * 1024 * 1.01);
}

TEST_F(NetworkTest, TwoTunneledHostsRouteThroughBothGateways) {
  // Both endpoints behind (different) VPN exits: the path must traverse
  // both gateways, in order.
  for (const char* h : {"a", "b", "gw-a", "gw-b", "core"}) net.add_host(h);
  net.add_link("a", "gw-a", LinkSpec::symmetric(Duration::millis(5), 50.0));
  net.add_link("b", "gw-b", LinkSpec::symmetric(Duration::millis(5), 50.0));
  net.add_link("gw-a", "core", LinkSpec::symmetric(Duration::millis(5), 50.0));
  net.add_link("gw-b", "core", LinkSpec::symmetric(Duration::millis(5), 50.0));
  net.add_link("a", "core", LinkSpec::symmetric(Duration::millis(1), 50.0));
  net.add_link("b", "core", LinkSpec::symmetric(Duration::millis(1), 50.0));
  ASSERT_TRUE(net.set_gateway("a", "gw-a").ok());
  ASSERT_TRUE(net.set_gateway("b", "gw-b").ok());
  const auto path = net.path("a", "b");
  ASSERT_GE(path.size(), 4u);
  EXPECT_EQ(path[1], "gw-a");
  EXPECT_NE(std::find(path.begin(), path.end(), "gw-b"), path.end());
}

// --------------------------------------------------------- route cache ----
//
// send() and path() read a route resolved once per topology epoch. Each
// mutation kind below sends, mutates, then sends again: the second send must
// take the new route, so dropping that mutation's epoch bump fails its test.
// (set_enabled is covered by ParallelLinksSelectedByLabelAndCost.)

/// Sends `bytes` from `from` to `to`, port 1, which must be listened on.
void send_bytes(Network& net, const std::string& from, const std::string& to,
                std::size_t bytes = 100) {
  Message m;
  m.src = {from, 2};
  m.dst = {to, 1};
  m.wire_bytes = bytes;
  ASSERT_TRUE(net.send(std::move(m)).ok());
}

TEST_F(NetworkTest, RouteCacheSeesHopCostChange) {
  auto& direct =
      net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  auto& am =
      net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(1), 10.0));
  auto& mb =
      net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.listen({"b", 1}, [](const Message&) {});
  send_bytes(net, "a", "b");
  EXPECT_EQ(direct.bytes_ab(), 100u);

  LinkSpec expensive = direct.spec();
  expensive.hop_cost = 5;
  direct.set_spec(expensive);
  send_bytes(net, "a", "b");
  EXPECT_EQ(direct.bytes_ab(), 100u);
  EXPECT_EQ(am.bytes_ab(), 100u);
  EXPECT_EQ(mb.bytes_ab(), 100u);
  EXPECT_EQ(net.path("a", "b"), (std::vector<std::string>{"a", "m", "b"}));
}

TEST_F(NetworkTest, RouteCacheSeesAddedLink) {
  auto& am =
      net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.listen({"b", 1}, [](const Message&) {});
  send_bytes(net, "a", "b");
  EXPECT_EQ(am.bytes_ab(), 100u);

  auto& direct =
      net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  send_bytes(net, "a", "b");
  EXPECT_EQ(am.bytes_ab(), 100u);
  EXPECT_EQ(direct.bytes_ab(), 100u);
  EXPECT_EQ(net.path("a", "b"), (std::vector<std::string>{"a", "b"}));
}

TEST_F(NetworkTest, RouteCacheSeesGatewaySetAndClear) {
  auto& direct =
      net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  auto& ag =
      net.add_link("a", "g", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.add_link("g", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.listen({"b", 1}, [](const Message&) {});
  send_bytes(net, "a", "b");
  EXPECT_EQ(direct.bytes_ab(), 100u);

  ASSERT_TRUE(net.set_gateway("a", "g").ok());
  send_bytes(net, "a", "b");
  EXPECT_EQ(direct.bytes_ab(), 100u);
  EXPECT_EQ(ag.bytes_ab(), 100u);

  ASSERT_TRUE(net.set_gateway("a", "").ok());
  send_bytes(net, "a", "b");
  EXPECT_EQ(direct.bytes_ab(), 200u);
  EXPECT_EQ(ag.bytes_ab(), 100u);
}

TEST_F(NetworkTest, RouteQueriesReadTheCurrentRoute) {
  auto& direct =
      net.add_link("a", "b", LinkSpec::symmetric(Duration::millis(1), 10.0));
  net.add_link("a", "m", LinkSpec::symmetric(Duration::millis(2), 100.0));
  net.add_link("m", "b", LinkSpec::symmetric(Duration::millis(3), 50.0));
  EXPECT_DOUBLE_EQ(net.path_bandwidth_mbps("a", "b").value(), 10.0);
  direct.set_enabled(false);
  EXPECT_DOUBLE_EQ(net.path_bandwidth_mbps("a", "b").value(), 50.0);
  EXPECT_EQ(net.path_delay("a", "b", 0).value(), Duration::millis(5));
  // Hosts the network has never seen have no route, and asking for one
  // leaves nothing behind: a later add_host routes to itself.
  EXPECT_TRUE(net.path("z", "z").empty());
  EXPECT_FALSE(net.path_delay("a", "z", 0).ok());
  net.add_host("z");
  EXPECT_EQ(net.path("z", "z"), (std::vector<std::string>{"z"}));
}

/// A network's routing state, replayable into a fresh twin: links in
/// creation order (routing breaks ties by that order) and gateways.
struct TopologyState {
  struct LinkState {
    std::string a, b, label;
    LinkSpec spec;
    bool enabled = true;
  };
  std::vector<LinkState> links;
  std::map<std::string, std::string> gateways;
};

/// Builds `state` into `net`, whose route cache is therefore cold. Gateways
/// go in while every link is up: each was reachable when it was set, over
/// a subset of these links.
std::vector<Link*> build_twin(Network& net, const TopologyState& state) {
  std::vector<Link*> links;
  for (const auto& l : state.links) {
    links.push_back(&net.add_link(l.a, l.b, l.spec, l.label));
  }
  for (const auto& [host, gateway] : state.gateways) {
    EXPECT_TRUE(net.set_gateway(host, gateway).ok());
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i]->set_enabled(state.links[i].enabled);
  }
  return links;
}

/// Per-link (bytes_ab, bytes_ba), minus `since` when given.
using LinkBytes = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
LinkBytes link_bytes(const std::vector<Link*>& links,
                     const LinkBytes& since = {}) {
  LinkBytes out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    out.emplace_back(links[i]->bytes_ab(), links[i]->bytes_ba());
    if (!since.empty()) {
      out[i].first -= since[i].first;
      out[i].second -= since[i].second;
    }
  }
  return out;
}

TEST(RouteCacheProperty, NeverServesAStaleRoute) {
  const std::vector<std::string> hosts{"h0", "h1", "h2", "h3", "h4", "h5"};
  const std::vector<std::string> labels{"", "usb", "wifi"};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng{seed};
    sim::Simulator sim;
    Network net{sim, seed};
    TopologyState state;
    std::vector<Link*> links;
    const auto random_host = [&] { return rng.pick(hosts); };
    const auto random_spec = [&] {
      LinkSpec spec = LinkSpec::symmetric(Duration::millis(1), 10.0);
      spec.hop_cost = static_cast<int>(rng.uniform_int(1, 4));
      return spec;
    };
    const auto add_link = [&] {
      const std::string a = random_host();
      std::string b = random_host();
      while (b == a) b = random_host();
      const TopologyState::LinkState l{a, b, rng.pick(labels), random_spec()};
      links.push_back(&net.add_link(l.a, l.b, l.spec, l.label));
      state.links.push_back(l);
    };
    for (int i = 0; i < 4; ++i) add_link();
    for (const auto& h : hosts) net.listen({h, 1}, [](const Message&) {});

    for (int step = 0; step < 40; ++step) {
      switch (rng.uniform_int(0, 4)) {
        case 0: {
          const std::size_t i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1));
          state.links[i].enabled = rng.chance(0.5);
          links[i]->set_enabled(state.links[i].enabled);
          break;
        }
        case 1: {
          const std::size_t i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1));
          state.links[i].spec = random_spec();
          links[i]->set_spec(state.links[i].spec);
          break;
        }
        case 2:
          add_link();
          break;
        case 3: {
          const std::string host = random_host();
          const std::string gateway = random_host();
          if (gateway != host && net.set_gateway(host, gateway).ok()) {
            state.gateways[host] = gateway;
          }
          break;
        }
        case 4: {
          const std::string host = random_host();
          ASSERT_TRUE(net.set_gateway(host, "").ok());
          state.gateways.erase(host);
          break;
        }
      }
      SCOPED_TRACE("step " + std::to_string(step));
      sim::Simulator twin_sim;
      Network twin{twin_sim, seed};
      const std::vector<Link*> twin_links = build_twin(twin, state);
      for (const auto& h : hosts) twin.listen({h, 1}, [](const Message&) {});
      for (const auto& from : hosts) {
        for (const auto& to : hosts) {
          const std::vector<std::string> path = twin.path(from, to);
          ASSERT_EQ(net.path(from, to), path) << from << " -> " << to;
          if (path.empty()) continue;
          // The send loads exactly the links the twin's send loads, each in
          // its direction, and each of them joins two consecutive hosts of
          // the path.
          const auto net_before = link_bytes(links);
          const auto twin_before = link_bytes(twin_links);
          send_bytes(net, from, to);
          send_bytes(twin, from, to);
          const auto net_load = link_bytes(links, net_before);
          ASSERT_EQ(net_load, link_bytes(twin_links, twin_before));
          std::uint64_t loaded = 0;
          for (std::size_t i = 0; i < links.size(); ++i) {
            const auto [ab, ba] = net_load[i];
            loaded += ab + ba;
            bool on_path = ab + ba == 0;
            for (std::size_t h = 0; h + 1 < path.size(); ++h) {
              on_path |= links[i]->connects(path[h], path[h + 1]);
            }
            EXPECT_TRUE(on_path) << "link " << i;
          }
          EXPECT_EQ(loaded, 100u * (path.size() - 1));
        }
      }
    }
  }
}

// ---------------------------------------------------------------- wifi ----

TEST(WifiTest, AssociateCreatesLinkAndForwarding) {
  sim::Simulator sim;
  Network net{sim};
  net.add_host("ctrl");
  WifiAccessPoint ap{net, "ctrl", "ctrl", ApMode::kNat};
  ASSERT_TRUE(ap.associate("dev").ok());
  EXPECT_TRUE(ap.is_associated("dev"));
  EXPECT_NE(net.find_link("ctrl", "dev", "wifi"), nullptr);
  EXPECT_FALSE(ap.inbound_allowed("dev", 5555));
  ap.forward_port("dev", 5555);
  EXPECT_TRUE(ap.inbound_allowed("dev", 5555));
}

TEST(WifiTest, BridgeModeIsTransparent) {
  sim::Simulator sim;
  Network net{sim};
  net.add_host("ctrl");
  WifiAccessPoint ap{net, "ctrl", "ctrl", ApMode::kBridge};
  ASSERT_TRUE(ap.associate("dev").ok());
  EXPECT_TRUE(ap.inbound_allowed("dev", 12345));
}

TEST(WifiTest, DoubleAssociateRejected) {
  sim::Simulator sim;
  Network net{sim};
  net.add_host("ctrl");
  WifiAccessPoint ap{net, "ctrl", "ctrl"};
  ASSERT_TRUE(ap.associate("dev").ok());
  EXPECT_FALSE(ap.associate("dev").ok());
  ASSERT_TRUE(ap.disassociate("dev").ok());
  EXPECT_FALSE(ap.disassociate("dev").ok());
}

// ----------------------------------------------------------------- usb ----

TEST(UsbTest, AttachDetachAndPower) {
  sim::Simulator sim;
  Network net{sim};
  UsbHub hub{net, "ctrl", 2};
  auto port = hub.attach("dev1");
  ASSERT_TRUE(port.ok());
  EXPECT_EQ(hub.charge_current_ma("dev1"), kUsbChargeCurrentMa);
  EXPECT_TRUE(hub.data_path_up("dev1"));

  ASSERT_TRUE(hub.set_port_power_for("dev1", false).ok());
  EXPECT_EQ(hub.charge_current_ma("dev1"), 0.0);
  EXPECT_FALSE(hub.data_path_up("dev1"));
  EXPECT_TRUE(net.path("ctrl", "dev1").empty())
      << "powered-off port must drop the data link";

  ASSERT_TRUE(hub.set_port_power_for("dev1", true).ok());
  EXPECT_EQ(net.path("ctrl", "dev1").size(), 2u);
  ASSERT_TRUE(hub.detach("dev1").ok());
  EXPECT_EQ(hub.charge_current_ma("dev1"), 0.0);
}

TEST(UsbTest, PortExhaustion) {
  sim::Simulator sim;
  Network net{sim};
  UsbHub hub{net, "ctrl", 1};
  ASSERT_TRUE(hub.attach("dev1").ok());
  EXPECT_FALSE(hub.attach("dev2").ok());
  EXPECT_FALSE(hub.attach("dev1").ok()) << "double attach";
}

// ----------------------------------------------------------- bluetooth ----

TEST(BluetoothTest, PairingCreatesSlowExpensiveLink) {
  sim::Simulator sim;
  Network net{sim};
  BluetoothAdapter ctrl{net, "ctrl"};
  BluetoothAdapter dev{net, "dev"};
  ASSERT_TRUE(ctrl.pair(dev, BtProfile::kHid).ok());
  EXPECT_TRUE(ctrl.paired_with("dev"));
  EXPECT_TRUE(dev.paired_with("ctrl"));
  Link* link = net.find_link("ctrl", "dev", "bt");
  ASSERT_NE(link, nullptr);
  EXPECT_GT(link->spec().hop_cost, 1);
  EXPECT_LT(link->spec().bandwidth_ab_mbps, 3.0);
  EXPECT_FALSE(ctrl.pair(dev, BtProfile::kHid).ok()) << "double pair";
}

// ----------------------------------------------------------------- vpn ----

TEST(VpnTest, TableTwoProfilesPresent) {
  const auto& locations = proton_vpn_locations();
  ASSERT_EQ(locations.size(), 5u);
  const auto* japan = find_vpn_location("Japan");
  ASSERT_NE(japan, nullptr);
  EXPECT_EQ(japan->city, "Bunkyo");
  EXPECT_NEAR(japan->down_mbps, 9.68, 1e-9);
  EXPECT_NEAR(japan->rtt_ms, 239.38, 1e-9);
  EXPECT_EQ(find_vpn_location("Atlantis"), nullptr);
}

TEST(VpnTest, ConnectInstallsGatewayAndDisconnectRemoves) {
  sim::Simulator sim;
  Network net{sim};
  net.add_host("ctrl");
  net.add_link("ctrl", "internet",
               LinkSpec::symmetric(Duration::millis(5), 100.0));
  VpnProvider vpn{net, "internet"};
  ASSERT_TRUE(vpn.connect("ctrl", "Japan").ok());
  EXPECT_EQ(vpn.active_location("ctrl"), "Japan");
  const auto path = net.path("ctrl", "internet");
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], "vpn.Bunkyo");
  ASSERT_TRUE(vpn.disconnect("ctrl").ok());
  EXPECT_EQ(net.path("ctrl", "internet").size(), 2u);
  EXPECT_FALSE(vpn.disconnect("ctrl").ok());
}

TEST(VpnTest, UnknownLocationRejected) {
  sim::Simulator sim;
  Network net{sim};
  net.add_host("ctrl");
  VpnProvider vpn{net, "internet"};
  EXPECT_FALSE(vpn.connect("ctrl", "Atlantis").ok());
}

// ----------------------------------------------------------- speedtest ----

TEST(SpeedTestTest, RecoversDirectLinkCharacteristics) {
  sim::Simulator sim;
  Network net{sim};
  net.add_link("client", "server",
               LinkSpec::symmetric(Duration::millis(25), 20.0));
  SpeedTestConfig config;
  config.download_bytes = 6 * 1024 * 1024;
  config.upload_bytes = 6 * 1024 * 1024;
  SpeedTest st{net, "client", "server", config};
  auto result = st.run();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().rtt_ms, 50.0, 8.0);
  EXPECT_NEAR(result.value().download_mbps, 20.0, 3.0);
  EXPECT_NEAR(result.value().upload_mbps, 20.0, 3.0);
}

TEST(SpeedTestTest, AsymmetricLinkMeasuredPerDirection) {
  sim::Simulator sim;
  Network net{sim};
  LinkSpec spec;
  spec.latency = Duration::millis(10);
  spec.bandwidth_ab_mbps = 5.0;   // client -> server (upload)
  spec.bandwidth_ba_mbps = 15.0;  // server -> client (download)
  net.add_link("client", "server", spec);
  SpeedTestConfig config;
  config.download_bytes = 4 * 1024 * 1024;
  config.upload_bytes = 4 * 1024 * 1024;
  SpeedTest st{net, "client", "server", config};
  auto result = st.run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().download_mbps, result.value().upload_mbps * 2.0);
}

// ----------------------------------------------------------------- dns ----

TEST(DnsTest, RegisterResolveDeregister) {
  DnsRegistry dns;
  ASSERT_TRUE(dns.register_node("node1", "ctrl.node1").ok());
  auto host = dns.resolve("node1.batterylab.dev");
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(host.value(), "ctrl.node1");
  EXPECT_FALSE(dns.register_node("node1", "other").ok());
  ASSERT_TRUE(dns.deregister_node("node1").ok());
  EXPECT_FALSE(dns.resolve("node1.batterylab.dev").ok());
}

TEST(DnsTest, RejectsBadLabelsAndForeignZones) {
  DnsRegistry dns;
  EXPECT_FALSE(dns.register_node("", "h").ok());
  EXPECT_FALSE(dns.register_node("a.b", "h").ok());
  EXPECT_FALSE(dns.resolve("node1.evil.example").ok());
}

TEST(DnsTest, WildcardCoversSingleLabel) {
  DnsRegistry dns;
  EXPECT_TRUE(dns.wildcard_covers("node1.batterylab.dev"));
  EXPECT_TRUE(dns.wildcard_covers("anything.batterylab.dev"));
  EXPECT_FALSE(dns.wildcard_covers("a.b.batterylab.dev"));
  EXPECT_FALSE(dns.wildcard_covers("batterylab.dev"));
}

// ----------------------------------------------------------------- ssh ----

class SshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net.add_link("server-host", "client-host",
                 LinkSpec::symmetric(Duration::millis(10), 100.0));
  }
  sim::Simulator sim;
  Network net{sim, 5};
};

TEST_F(SshTest, AuthorizedKeyExecutes) {
  SshServer server{net, "server-host"};
  server.set_command_handler([](const std::string& cmd) {
    return SshCommandResult{0, "ran: " + cmd};
  });
  const auto key = SshKeyPair::generate("alice");
  server.authorize_key(key.public_key);
  SshClient client{net, "client-host", key};
  auto result = client.exec_sync(server.address(), "uptime");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().exit_code, 0);
  EXPECT_EQ(result.value().output, "ran: uptime");
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST_F(SshTest, UnauthorizedKeyDenied) {
  SshServer server{net, "server-host"};
  const auto good = SshKeyPair::generate("alice");
  const auto bad = SshKeyPair::generate("mallory");
  server.authorize_key(good.public_key);
  SshClient client{net, "client-host", bad};
  auto result = client.exec_sync(server.address(), "uptime");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.stats().rejected_key, 1u);
}

TEST_F(SshTest, IpWhitelistEnforced) {
  SshServer server{net, "server-host"};
  const auto key = SshKeyPair::generate("alice");
  server.authorize_key(key.public_key);
  server.whitelist_source("somewhere-else");
  SshClient client{net, "client-host", key};
  auto result = client.exec_sync(server.address(), "uptime");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(server.stats().rejected_ip, 1u);

  server.whitelist_source("client-host");
  auto retry = client.exec_sync(server.address(), "uptime");
  EXPECT_TRUE(retry.ok());
}

TEST_F(SshTest, RevokedKeyDenied) {
  SshServer server{net, "server-host"};
  const auto key = SshKeyPair::generate("alice");
  server.authorize_key(key.public_key);
  server.revoke_key(key.public_key);
  SshClient client{net, "client-host", key};
  EXPECT_FALSE(client.exec_sync(server.address(), "id").ok());
}

TEST_F(SshTest, NonZeroExitCodePropagates) {
  SshServer server{net, "server-host"};
  server.set_command_handler([](const std::string&) {
    return SshCommandResult{3, "boom"};
  });
  const auto key = SshKeyPair::generate("alice");
  server.authorize_key(key.public_key);
  SshClient client{net, "client-host", key};
  auto result = client.exec_sync(server.address(), "false");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().exit_code, 3);
}

TEST(SshKeyTest, FingerprintsStable) {
  const auto a = SshKeyPair::generate("alice");
  const auto b = SshKeyPair::generate("alice");
  const auto c = SshKeyPair::generate("bob");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

}  // namespace
}  // namespace blab::net
