#include "apps/key_value.hpp"

#include <deque>
#include <limits>

#include "cluster/intercluster.hpp"

namespace now::apps {

namespace {

/// Stateless mix for rendezvous weights.
std::uint64_t weight(std::uint64_t key, ClusterId cluster) {
  std::uint64_t x = key ^ (cluster.value() * 0x9E3779B97F4A7C15ULL);
  return splitmix64(x);
}

}  // namespace

ClusterId KeyValueService::key_home(std::uint64_t key) const {
  ClusterId best = ClusterId::invalid();
  std::uint64_t best_weight = 0;
  for (const ClusterId id : system_.state().cluster_ids()) {
    const std::uint64_t w = weight(key, id);
    if (!best.valid() || w > best_weight) {
      best = id;
      best_weight = w;
    }
  }
  return best;
}

std::size_t KeyValueService::charge_route(ClusterId from, ClusterId to,
                                          std::uint64_t units) {
  const auto& state = system_.state();
  if (from == to) return 0;
  // BFS parents toward `to`.
  std::map<ClusterId, ClusterId> parent;
  std::deque<ClusterId> frontier{from};
  parent[from] = from;
  while (!frontier.empty() && !parent.contains(to)) {
    const ClusterId c = frontier.front();
    frontier.pop_front();
    for (const ClusterId nb : state.overlay().neighbors(c)) {
      if (parent.try_emplace(nb, c).second) frontier.push_back(nb);
    }
  }
  if (!parent.contains(to)) return std::numeric_limits<std::size_t>::max();
  // Walk back to count hops, charging each inter-cluster transfer.
  std::size_t hops = 0;
  ClusterId cursor = to;
  while (cursor != from) {
    const ClusterId prev = parent.at(cursor);
    cluster::cluster_send(state.cluster_at(prev), state.cluster_at(cursor),
                          units, state.byzantine_count(prev),
                          system_.metrics());
    cursor = prev;
    ++hops;
  }
  return hops;
}

KeyValueService::PutResult KeyValueService::put(std::uint64_t key,
                                                std::uint64_t value) {
  OpScope scope(system_.metrics(), "kv.put");
  PutResult result;
  result.home = key_home(key);
  if (!result.home.valid()) return result;

  const auto& state = system_.state();
  const ClusterId contact = state.random_cluster_uniform(system_.rng());
  const std::size_t hops = charge_route(contact, result.home, /*units=*/2);
  if (hops == std::numeric_limits<std::size_t>::max()) return result;

  // The home quorum certifies the write back to the client's contact.
  const auto ack =
      charge_route(result.home, contact, /*units=*/1) !=
      std::numeric_limits<std::size_t>::max();
  const std::size_t byz = state.byzantine_count(result.home);
  result.certified = ack && 2 * byz < state.cluster_at(result.home).size();
  shards_[result.home][key] = value;
  result.stored = true;
  system_.metrics().add_rounds(2 * hops + 1);
  result.cost = scope.cost();
  return result;
}

KeyValueService::GetResult KeyValueService::get(std::uint64_t key) {
  OpScope scope(system_.metrics(), "kv.get");
  GetResult result;
  result.home = key_home(key);
  if (!result.home.valid()) return result;

  const auto& state = system_.state();
  const ClusterId contact = state.random_cluster_uniform(system_.rng());
  const std::size_t hops = charge_route(contact, result.home, /*units=*/1);
  if (hops == std::numeric_limits<std::size_t>::max()) return result;
  charge_route(result.home, contact, /*units=*/2);  // response

  const auto shard = shards_.find(result.home);
  if (shard != shards_.end()) {
    const auto entry = shard->second.find(key);
    if (entry != shard->second.end()) {
      result.found = true;
      result.value = entry->second;
    }
  }
  const std::size_t byz = state.byzantine_count(result.home);
  result.authentic = 2 * byz < state.cluster_at(result.home).size();
  system_.metrics().add_rounds(2 * hops);
  result.cost = scope.cost();
  return result;
}

std::size_t KeyValueService::repair() {
  OpScope scope(system_.metrics(), "kv.repair");
  const auto& state = system_.state();
  std::size_t moved = 0;

  std::map<ClusterId, std::map<std::uint64_t, std::uint64_t>> next;
  for (const auto& [cluster, entries] : shards_) {
    const bool cluster_alive = state.has_cluster(cluster);
    for (const auto& [key, value] : entries) {
      const ClusterId home = key_home(key);
      if (!home.valid()) continue;
      if (home == cluster) {
        next[cluster].emplace(key, value);
        continue;
      }
      // Migrate: the old quorum transfers the entry (or, if it dissolved,
      // the new quorum reconstructs it from the re-joined members).
      if (cluster_alive) {
        charge_route(cluster, home, /*units=*/2);
      } else {
        system_.metrics().add_messages(state.cluster_at(home).size());
      }
      next[home][key] = value;
      ++moved;
    }
  }
  shards_ = std::move(next);
  if (moved > 0) system_.metrics().add_rounds(1);
  return moved;
}

std::size_t KeyValueService::stored_entries() const {
  std::size_t total = 0;
  for (const auto& [cluster, entries] : shards_) total += entries.size();
  return total;
}

}  // namespace now::apps
