// Point-to-point link model: latency, asymmetric bandwidth, jitter, loss,
// and per-direction serialization (a busy link queues subsequent packets).
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace blab::net {

using util::Duration;
using util::TimePoint;

struct LinkSpec {
  Duration latency = Duration::millis(1);
  double bandwidth_ab_mbps = 100.0;  ///< a -> b direction
  double bandwidth_ba_mbps = 100.0;  ///< b -> a direction
  double jitter_fraction = 0.0;      ///< +/- fraction of latency, uniform
  double loss_rate = 0.0;            ///< probability a packet is dropped
  /// Routing cost: paths minimize total hop cost, so a slow direct link
  /// (Bluetooth, cost 3) loses to a two-hop WiFi path (cost 2).
  int hop_cost = 1;

  static LinkSpec symmetric(Duration latency, double mbps) {
    LinkSpec spec;
    spec.latency = latency;
    spec.bandwidth_ab_mbps = mbps;
    spec.bandwidth_ba_mbps = mbps;
    return spec;
  }
};

/// Which way a transfer crosses a link.
enum class Direction : std::uint8_t { kAtoB, kBtoA };

/// Directed transfer outcome computed by the link.
struct Transit {
  bool dropped = false;
  Duration delay = Duration::zero();  ///< queueing + serialization + latency
};

class Link {
 public:
  /// `topology_epoch`, when given, is the owning Network's route-cache
  /// epoch (Network::add_link passes it): set_spec and set_enabled bump it,
  /// so no cached route outlives the link state it was resolved from. It
  /// must outlive the link. A standalone link passes none.
  Link(std::string host_a, std::string host_b, LinkSpec spec,
       std::string label = {}, std::uint64_t* topology_epoch = nullptr);

  const std::string& host_a() const { return host_a_; }
  const std::string& host_b() const { return host_b_; }
  /// Medium label ("usb", "wifi", "bt", ...) distinguishing parallel links
  /// between the same host pair.
  const std::string& label() const { return label_; }
  const LinkSpec& spec() const { return spec_; }
  /// Changes latency, bandwidth, loss and hop cost; a new hop cost may
  /// reroute, so this bumps the owning Network's topology epoch.
  void set_spec(const LinkSpec& spec) {
    spec_ = spec;
    bump_epoch();
  }

  /// Disabled links carry no traffic and are invisible to routing (e.g. a
  /// USB port whose power was cut with uhubctl). Bumps the owning
  /// Network's topology epoch.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    bump_epoch();
  }

  bool connects(const std::string& x, const std::string& y) const;
  /// The host on the other end, or empty if `x` is not an endpoint.
  std::string peer_of(const std::string& x) const;
  /// Direction of a transfer sent from `from` (kBtoA unless it is host_a).
  Direction direction_from(const std::string& from) const {
    return from == host_a_ ? Direction::kAtoB : Direction::kBtoA;
  }
  /// The host a transfer in `dir` arrives at.
  const std::string& head(Direction dir) const {
    return dir == Direction::kAtoB ? host_b_ : host_a_;
  }

  /// Compute the delivery delay for `bytes` sent in `dir` at time `now`.
  /// Updates the directional queue so back-to-back sends serialize.
  Transit send(Direction dir, std::size_t bytes, TimePoint now,
               util::Rng& rng);

  double bandwidth_mbps(Direction dir) const {
    return dir == Direction::kAtoB ? spec_.bandwidth_ab_mbps
                                   : spec_.bandwidth_ba_mbps;
  }

  std::uint64_t bytes_ab() const { return bytes_ab_; }
  std::uint64_t bytes_ba() const { return bytes_ba_; }
  std::uint64_t drops() const { return drops_; }

 private:
  void bump_epoch() {
    if (topology_epoch_ != nullptr) ++*topology_epoch_;
  }

  std::string host_a_;
  std::string host_b_;
  LinkSpec spec_;
  std::string label_;
  bool enabled_ = true;
  TimePoint free_ab_ = TimePoint::epoch();
  TimePoint free_ba_ = TimePoint::epoch();
  TimePoint last_arrival_ab_ = TimePoint::epoch();
  TimePoint last_arrival_ba_ = TimePoint::epoch();
  std::uint64_t bytes_ab_ = 0;
  std::uint64_t bytes_ba_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t* topology_epoch_ = nullptr;
};

/// Serialization time of `bytes` at `mbps` megabits per second.
Duration serialization_time(std::size_t bytes, double mbps);

}  // namespace blab::net
