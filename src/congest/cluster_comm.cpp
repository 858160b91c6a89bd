#include "congest/cluster_comm.hpp"

#include <algorithm>

#include "congest/trace.hpp"
#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace dcl {

cluster_comm::cluster_comm(network& net, std::vector<vertex> vertices,
                           edge_list edges, std::string phase_prefix,
                           int num_trees)
    : net_(&net), phase_prefix_(std::move(phase_prefix)) {
  DCL_EXPECTS(!vertices.empty(), "empty cluster");
  DCL_EXPECTS(std::is_sorted(vertices.begin(), vertices.end()) &&
                  std::adjacent_find(vertices.begin(), vertices.end()) ==
                      vertices.end(),
              "cluster vertices must be sorted and unique");
  to_parent_ = std::move(vertices);
  parent_to_local_.assign(size_t(net.topology().num_vertices()), -1);
  for (vertex l = 0; l < vertex(to_parent_.size()); ++l)
    parent_to_local_[size_t(to_parent_[size_t(l)])] = l;

  edge_list local_edges;
  local_edges.reserve(edges.size());
  for (const auto& e : edges) {
    const vertex lu = parent_to_local_[size_t(e.u)];
    const vertex lv = parent_to_local_[size_t(e.v)];
    DCL_EXPECTS(lu != -1 && lv != -1, "cluster edge endpoint not in cluster");
    DCL_EXPECTS(net.topology().has_edge(e.u, e.v),
                "cluster edge absent from parent graph");
    local_edges.push_back(make_edge(lu, lv));
  }
  std::sort(local_edges.begin(), local_edges.end());
  local_edges.erase(std::unique(local_edges.begin(), local_edges.end()),
                    local_edges.end());
  local_ = graph(vertex(to_parent_.size()), local_edges);
  router_ = std::make_unique<cluster_router>(local_, num_trees,
                                             &net.shared_transport());
}

vertex cluster_comm::to_local(vertex parent) const {
  DCL_EXPECTS(parent >= 0 &&
                  parent < vertex(parent_to_local_.size()),
              "parent vertex out of range");
  return parent_to_local_[size_t(parent)];
}

std::string cluster_comm::phase(std::string_view sub) const {
  std::string out = phase_prefix_;
  out += '/';
  out += sub;
  return out;
}

route_stats cluster_comm::route_discard(message_batch& io,
                                        std::string_view sub) {
  trace_batch_shape shape;
  std::int64_t batch_size = 0;
  auto* rec = net_->recorder();
  if (rec != nullptr) {
    // route_discard clears its input in place; extract the density shape
    // before the batch is consumed.
    shape = rec->shape_scratch().compute(io.span(), size());
    batch_size = std::int64_t(io.size());
  }
  last_stats_ = router_->route_discard(io);
  const std::string ph = phase(sub);
  net_->ledger().charge(ph, last_stats_.rounds, last_stats_.messages);
  if (rec != nullptr)
    rec->record_route(ph, shape, batch_size, size(), last_stats_,
                      router_->tree_depth());
  return last_stats_;
}

void cluster_comm::charge_broadcast_from_leader(std::int64_t num_words,
                                                std::string_view sub) {
  if (num_words <= 0 || size() <= 1) return;
  const std::int64_t rounds = num_words + router_->tree_depth() - 1;
  const std::int64_t messages = num_words * (std::int64_t(size()) - 1);
  const std::string ph = phase(sub);
  net_->ledger().charge(ph, rounds, messages);
  if (auto* rec = net_->recorder()) rec->record_charge(ph, rounds, messages);
}

void cluster_comm::charge_convergecast(std::int64_t num_words,
                                       std::string_view sub) {
  if (num_words <= 0 || size() <= 1) return;
  const std::int64_t rounds = num_words + router_->tree_depth() - 1;
  const std::int64_t messages = num_words * (std::int64_t(size()) - 1);
  const std::string ph = phase(sub);
  net_->ledger().charge(ph, rounds, messages);
  if (auto* rec = net_->recorder()) rec->record_charge(ph, rounds, messages);
}

std::int64_t cluster_comm::allgather(
    const std::vector<std::int64_t>& items_per_vertex, std::string_view sub) {
  DCL_EXPECTS(vertex(items_per_vertex.size()) == size(),
              "items_per_vertex size mismatch");
  // outbox(1): leaves outbox(0) to any producer staging around this call.
  message_batch& to_leader = outbox(1);
  to_leader.clear();
  std::int64_t total = 0;
  for (vertex v = 0; v < size(); ++v) {
    total += items_per_vertex[size_t(v)];
    for (std::int64_t i = 0; i < items_per_vertex[size_t(v)]; ++i)
      to_leader.emplace(v, /*dst=*/0, 0, std::uint64_t(i));  // leader = 0
  }
  route_discard(to_leader, sub);
  charge_broadcast_from_leader(total, sub);
  return total;
}

}  // namespace dcl
