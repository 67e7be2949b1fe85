#include "net/link.hpp"

#include <algorithm>
#include <cassert>

namespace blab::net {

Duration serialization_time(std::size_t bytes, double mbps) {
  if (mbps <= 0.0) return Duration::max();
  const double seconds =
      static_cast<double>(bytes) * 8.0 / (mbps * 1e6);
  return Duration::seconds(seconds);
}

Link::Link(std::string host_a, std::string host_b, LinkSpec spec,
           std::string label, std::uint64_t* topology_epoch)
    : host_a_{std::move(host_a)},
      host_b_{std::move(host_b)},
      spec_{spec},
      label_{std::move(label)},
      topology_epoch_{topology_epoch} {
  assert(host_a_ != host_b_);
}

bool Link::connects(const std::string& x, const std::string& y) const {
  return (x == host_a_ && y == host_b_) || (x == host_b_ && y == host_a_);
}

std::string Link::peer_of(const std::string& x) const {
  if (x == host_a_) return host_b_;
  if (x == host_b_) return host_a_;
  return {};
}

Transit Link::send(Direction dir, std::size_t bytes, TimePoint now,
                   util::Rng& rng) {
  Transit t;
  if (spec_.loss_rate > 0.0 && rng.chance(spec_.loss_rate)) {
    t.dropped = true;
    ++drops_;
    return t;
  }
  const bool ab = dir == Direction::kAtoB;
  TimePoint& free_at = ab ? free_ab_ : free_ba_;
  (ab ? bytes_ab_ : bytes_ba_) += bytes;

  const Duration ser = serialization_time(bytes, bandwidth_mbps(dir));
  Duration prop = spec_.latency;
  if (spec_.jitter_fraction > 0.0) {
    prop = prop * (1.0 + rng.uniform(-spec_.jitter_fraction,
                                     spec_.jitter_fraction));
  }
  // Queue behind in-flight serializations in this direction.
  const TimePoint start = std::max(free_at, now);
  const TimePoint tx_done = start + ser;
  free_at = tx_done;
  // The medium is ordered (L2CAP / TCP-like framing): jitter may stretch a
  // packet's latency but never lets it overtake an earlier one.
  TimePoint arrival = tx_done + prop;
  TimePoint& last = ab ? last_arrival_ab_ : last_arrival_ba_;
  if (arrival < last) arrival = last;
  last = arrival;
  t.delay = arrival - now;
  return t;
}

}  // namespace blab::net
