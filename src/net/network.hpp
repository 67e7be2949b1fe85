// Network graph: hosts, links, message routing and delivery.
//
// Messages route over the path of least total hop cost (a uniform-cost
// search over enabled links); each hop adds the link's queueing +
// serialization + propagation delay. Per-host byte counters feed the paper's
// traffic accounting (§4.2: 32 MB upload per ~7 min mirroring session). A
// host may be forced to route via a gateway — that is how VPN tunnels are
// modeled (§4.3).
//
// Routes are resolved once per topology change, not once per message: each
// (from, to) route is kept as its resolved hops (link + direction) and
// stays valid while the topology epoch it was resolved at is current.
// add_link, set_gateway (set and clear) and every Link::set_enabled /
// Link::set_spec on a link of this network bump the epoch, so a mutation
// through any of them is seen by the next send. Routes touching a host the
// network does not know are never kept, so add_host needs no bump.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace blab::obs {
class Counter;
}  // namespace blab::obs

namespace blab::net {

struct Message {
  Address src;
  Address dst;
  std::string tag;      ///< protocol discriminator, e.g. "ssh.exec"
  std::string payload;  ///< protocol body (opaque to the network)
  std::size_t wire_bytes = 0;  ///< size on the wire; defaults to payload size
  std::uint64_t id = 0;

  std::size_t size() const {
    return wire_bytes > 0 ? wire_bytes : payload.size() + 64;  // 64B header
  }
};

using MessageHandler = std::function<void(const Message&)>;

struct HostStats {
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim, std::uint64_t seed = 42);
  // Links keep a pointer to topology_epoch_.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& simulator() { return sim_; }

  void add_host(const std::string& name);
  bool has_host(const std::string& name) const;
  Link& add_link(const std::string& a, const std::string& b,
                 const LinkSpec& spec, const std::string& label = {});
  /// First link between a and b; with a non-empty label, the label must
  /// match (parallel media between the same host pair are distinct links).
  Link* find_link(const std::string& a, const std::string& b,
                  const std::string& label = {});

  /// Bind a handler to an address; replaces any previous binding.
  void listen(const Address& addr, MessageHandler handler);
  void unlisten(const Address& addr);
  bool is_listening(const Address& addr) const;

  /// Route and deliver asynchronously. Fails fast when no path or no
  /// listener exists; per-packet loss surfaces as a silent drop, like UDP.
  util::Status send(Message msg);

  /// Force all traffic from `host` through `gateway` (VPN-style). Pass an
  /// empty gateway to restore direct routing.
  util::Status set_gateway(const std::string& host, const std::string& gateway);
  std::string gateway_of(const std::string& host) const;

  /// Routed path (list of hosts, inclusive) or empty when unreachable.
  /// path, path_delay, path_bandwidth_mbps and send all read the same
  /// resolved route.
  std::vector<std::string> path(const std::string& from,
                                const std::string& to) const;
  /// One-way propagation + serialization delay estimate for `bytes` along the
  /// current path, without mutating link queues.
  util::Result<Duration> path_delay(const std::string& from,
                                    const std::string& to,
                                    std::size_t bytes) const;
  /// Min bandwidth along the routed path, in Mbps, in the from->to direction.
  util::Result<double> path_bandwidth_mbps(const std::string& from,
                                           const std::string& to) const;

  const HostStats& stats(const std::string& host) const;
  void reset_stats();

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  /// One resolved hop: the link a message crosses, and which way.
  struct Hop {
    Link* link;
    Direction dir;
  };
  /// A resolved route; current while `epoch` equals topology_epoch_.
  struct Route {
    std::uint64_t epoch = 0;
    bool reachable = false;
    std::vector<Hop> hops;  ///< empty for a host's route to itself
  };
  static const Route kNoRoute;

  /// The current route from `from` to `to`, resolved on first use after a
  /// topology change. A hit allocates nothing.
  const Route& route(const std::string& from, const std::string& to) const;
  /// Lowest-hop-cost enabled link between adjacent hosts.
  Link* best_link(const std::string& from, const std::string& to) const;
  std::vector<std::string> bfs_path(const std::string& from,
                                    const std::string& to) const;
  std::vector<std::string> routed_path(const std::string& from,
                                       const std::string& to) const;

  sim::Simulator& sim_;
  util::Rng rng_;
  std::unordered_map<std::string, std::vector<std::size_t>> adjacency_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<Address, MessageHandler> listeners_;
  std::unordered_map<std::string, std::string> gateways_;
  /// Starts above Route::epoch's default, so a new entry resolves first.
  std::uint64_t topology_epoch_ = 1;
  /// Route cache, keyed from -> to.
  mutable std::unordered_map<std::string,
                             std::unordered_map<std::string, Route>>
      routes_;
  mutable std::unordered_map<std::string, HostStats> stats_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  /// Registry instruments (sim_.metrics()), cached at construction.
  struct Metrics {
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* bytes_delivered = nullptr;
  };
  Metrics metrics_;
};

}  // namespace blab::net
