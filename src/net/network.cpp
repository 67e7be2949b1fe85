#include "net/network.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace blab::net {

Network::Network(sim::Simulator& sim, std::uint64_t seed)
    : sim_{sim}, rng_{seed} {
  obs::MetricsRegistry& m = sim_.metrics();
  metrics_.delivered = &m.counter("blab_net_messages_delivered_total");
  metrics_.dropped = &m.counter("blab_net_messages_dropped_total");
  metrics_.bytes_delivered = &m.counter("blab_net_bytes_delivered_total");
}

void Network::add_host(const std::string& name) {
  adjacency_.try_emplace(name);
  stats_.try_emplace(name);
}

bool Network::has_host(const std::string& name) const {
  return adjacency_.contains(name);
}

Link& Network::add_link(const std::string& a, const std::string& b,
                        const LinkSpec& spec, const std::string& label) {
  add_host(a);
  add_host(b);
  links_.push_back(
      std::make_unique<Link>(a, b, spec, label, &topology_epoch_));
  const std::size_t idx = links_.size() - 1;
  adjacency_[a].push_back(idx);
  adjacency_[b].push_back(idx);
  ++topology_epoch_;
  return *links_.back();
}

Link* Network::find_link(const std::string& a, const std::string& b,
                         const std::string& label) {
  for (auto& link : links_) {
    if (!link->connects(a, b)) continue;
    if (!label.empty() && link->label() != label) continue;
    return link.get();
  }
  return nullptr;
}

void Network::listen(const Address& addr, MessageHandler handler) {
  listeners_[addr] = std::move(handler);
}

void Network::unlisten(const Address& addr) { listeners_.erase(addr); }

bool Network::is_listening(const Address& addr) const {
  return listeners_.contains(addr);
}

Link* Network::best_link(const std::string& from,
                         const std::string& to) const {
  Link* best = nullptr;
  for (std::size_t idx : adjacency_.at(from)) {
    Link* link = links_[idx].get();
    if (!link->enabled() || link->peer_of(from) != to) continue;
    if (best == nullptr || link->spec().hop_cost < best->spec().hop_cost) {
      best = link;
    }
  }
  return best;
}

std::vector<std::string> Network::bfs_path(const std::string& from,
                                           const std::string& to) const {
  // Uniform-cost search over enabled links, minimizing total hop cost.
  if (!adjacency_.contains(from) || !adjacency_.contains(to)) return {};
  if (from == to) return {from};
  std::unordered_map<std::string, int> dist;
  std::unordered_map<std::string, std::string> parent;
  using Entry = std::pair<int, std::string>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  dist[from] = 0;
  frontier.emplace(0, from);
  while (!frontier.empty()) {
    const auto [d, cur] = frontier.top();
    frontier.pop();
    if (d > dist[cur]) continue;
    if (cur == to) break;
    for (std::size_t idx : adjacency_.at(cur)) {
      const auto& link = *links_[idx];
      if (!link.enabled()) continue;
      const std::string next = link.peer_of(cur);
      const int nd = d + link.spec().hop_cost;
      const auto it = dist.find(next);
      if (it == dist.end() || nd < it->second) {
        dist[next] = nd;
        parent[next] = cur;
        frontier.emplace(nd, next);
      }
    }
  }
  if (!parent.contains(to)) return {};
  std::vector<std::string> path{to};
  std::string p = to;
  while (p != from) {
    p = parent[p];
    path.push_back(p);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::string> Network::routed_path(const std::string& from,
                                              const std::string& to) const {
  // A tunneled host sends through its gateway, and — because its public
  // address *is* the exit node's — traffic toward it returns through the
  // same gateway. Collect the forced waypoints in order.
  std::vector<std::string> waypoints;
  if (const auto gw = gateways_.find(from);
      gw != gateways_.end() && gw->second != to && gw->second != from) {
    waypoints.push_back(gw->second);
  }
  if (const auto gw = gateways_.find(to);
      gw != gateways_.end() && gw->second != from && gw->second != to &&
      (waypoints.empty() || waypoints.back() != gw->second)) {
    waypoints.push_back(gw->second);
  }
  std::vector<std::string> path{from};
  std::string cursor = from;
  waypoints.push_back(to);
  for (const auto& next : waypoints) {
    auto leg = bfs_path(cursor, next);
    if (leg.empty()) return {};
    path.insert(path.end(), leg.begin() + 1, leg.end());
    cursor = next;
  }
  return path;
}

const Network::Route Network::kNoRoute{};

const Network::Route& Network::route(const std::string& from,
                                     const std::string& to) const {
  auto row = routes_.find(from);
  if (row == routes_.end()) {
    if (!has_host(from)) return kNoRoute;
    row = routes_.try_emplace(from).first;
  }
  auto cell = row->second.find(to);
  if (cell == row->second.end()) {
    if (!has_host(to)) return kNoRoute;
    cell = row->second.try_emplace(to).first;
  }
  Route& r = cell->second;
  if (r.epoch == topology_epoch_) return r;
  // Resolve through the search and best_link, so ties and hop costs fall
  // exactly as they would for an uncached route.
  const std::vector<std::string> hosts = routed_path(from, to);
  r.epoch = topology_epoch_;
  r.reachable = !hosts.empty();
  r.hops.clear();
  for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
    // Never null: the search only crosses enabled links.
    Link* link = best_link(hosts[i], hosts[i + 1]);
    r.hops.push_back({link, link->direction_from(hosts[i])});
  }
  return r;
}

util::Status Network::send(Message msg) {
  msg.id = next_msg_id_++;
  const Route& route = this->route(msg.src.host, msg.dst.host);
  if (!route.reachable) {
    return util::make_error(util::ErrorCode::kUnavailable,
                            "no route from " + msg.src.host + " to " +
                                msg.dst.host);
  }
  if (!listeners_.contains(msg.dst)) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "no listener on " + msg.dst.str());
  }
  const std::size_t bytes = msg.size();
  Duration total = Duration::zero();
  for (const Hop& hop : route.hops) {
    const Transit transit =
        hop.link->send(hop.dir, bytes, sim_.now() + total, rng_);
    if (transit.dropped) {
      ++dropped_;
      metrics_.dropped->inc();
      return util::Status::ok_status();  // lost in transit, like UDP
    }
    total += transit.delay;
  }
  auto& tx = stats_[msg.src.host];
  tx.bytes_tx += bytes;
  ++tx.msgs_tx;

  sim_.schedule_after(total, [this, msg = std::move(msg), bytes] {
    const auto it = listeners_.find(msg.dst);
    if (it == listeners_.end()) return;  // listener went away in flight
    auto& rx = stats_[msg.dst.host];
    rx.bytes_rx += bytes;
    ++rx.msgs_rx;
    ++delivered_;
    metrics_.delivered->inc();
    metrics_.bytes_delivered->inc(bytes);
    // Copy before invoking: handlers may unlisten (destroy) themselves.
    const MessageHandler handler = it->second;
    handler(msg);
  }, "net.deliver");
  return util::Status::ok_status();
}

util::Status Network::set_gateway(const std::string& host,
                                  const std::string& gateway) {
  if (gateway.empty()) {
    gateways_.erase(host);
    ++topology_epoch_;
    return util::Status::ok_status();
  }
  if (!has_host(gateway)) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "unknown gateway host " + gateway);
  }
  if (bfs_path(host, gateway).empty()) {
    return util::make_error(util::ErrorCode::kUnavailable,
                            "gateway " + gateway + " unreachable from " + host);
  }
  gateways_[host] = gateway;
  ++topology_epoch_;
  return util::Status::ok_status();
}

std::string Network::gateway_of(const std::string& host) const {
  const auto it = gateways_.find(host);
  return it == gateways_.end() ? std::string{} : it->second;
}

std::vector<std::string> Network::path(const std::string& from,
                                       const std::string& to) const {
  const Route& r = route(from, to);
  if (!r.reachable) return {};
  std::vector<std::string> hosts{from};
  for (const Hop& hop : r.hops) hosts.push_back(hop.link->head(hop.dir));
  return hosts;
}

util::Result<Duration> Network::path_delay(const std::string& from,
                                           const std::string& to,
                                           std::size_t bytes) const {
  const Route& r = route(from, to);
  if (!r.reachable) {
    return util::make_error(util::ErrorCode::kUnavailable, "no route");
  }
  Duration total = Duration::zero();
  for (const Hop& hop : r.hops) {
    total += hop.link->spec().latency;
    total += serialization_time(bytes, hop.link->bandwidth_mbps(hop.dir));
  }
  return total;
}

util::Result<double> Network::path_bandwidth_mbps(const std::string& from,
                                                  const std::string& to) const {
  const Route& r = route(from, to);
  if (!r.reachable) {
    return util::make_error(util::ErrorCode::kUnavailable, "no route");
  }
  double mbps = 1e12;
  for (const Hop& hop : r.hops) {
    mbps = std::min(mbps, hop.link->bandwidth_mbps(hop.dir));
  }
  return mbps;
}

const HostStats& Network::stats(const std::string& host) const {
  return stats_[host];
}

void Network::reset_stats() {
  for (auto& [_, s] : stats_) s = HostStats{};
}

}  // namespace blab::net
