// Nodes (routers, hosts) and the Network container that owns topology.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/link.h"
#include "sim/packet.h"
#include "sim/simulation.h"

namespace fobs::sim {

/// Base class for addressable topology elements.
class Node : public PacketSink {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  NodeId id_;
  std::string name_;
};

/// Store-and-forward router with a static routing table. Queueing and
/// serialization happen in the egress Link, so the router itself
/// forwards in zero simulated time.
class Router final : public Node {
 public:
  Router(NodeId id, std::string name) : Node(id, std::move(name)) {}

  void add_route(NodeId dst, PacketSink* next_hop) { routes_[dst] = next_hop; }

  void deliver(Packet packet) override {
    auto it = routes_.find(packet.dst);
    if (it == routes_.end()) {
      ++no_route_drops_;
      return;
    }
    it->second->deliver(std::move(packet));
  }

  [[nodiscard]] std::uint64_t no_route_drops() const { return no_route_drops_; }

 private:
  std::unordered_map<NodeId, PacketSink*> routes_;
  std::uint64_t no_route_drops_ = 0;
};

/// Terminal sink that discards and counts traffic (used as the
/// destination for cross-traffic flows).
class BlackholeNode final : public Node {
 public:
  BlackholeNode(NodeId id, std::string name) : Node(id, std::move(name)) {}

  void deliver(Packet packet) override {
    ++packets_;
    bytes_ += packet.size_bytes;
  }

  [[nodiscard]] std::uint64_t packets_received() const { return packets_; }
  [[nodiscard]] std::int64_t bytes_received() const { return bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::int64_t bytes_ = 0;
};

/// Owns the simulation's nodes and links and allocates node/packet ids.
/// Topology shape (who connects to whom) is expressed by Link sinks and
/// Router routing tables; Network is the owner, not the router.
class Network {
 public:
  explicit Network(Simulation& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Simulation& sim() { return sim_; }

  /// Registers a node built elsewhere (e.g. a host::Host). The node's id
  /// must come from `next_node_id()`.
  template <typename NodeT>
  NodeT& adopt(std::unique_ptr<NodeT> node) {
    NodeT& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  Router& add_router(const std::string& name) {
    return adopt(std::make_unique<Router>(next_node_id(), name));
  }

  BlackholeNode& add_blackhole(const std::string& name) {
    return adopt(std::make_unique<BlackholeNode>(next_node_id(), name));
  }

  Link& add_link(LinkConfig config) {
    links_.push_back(std::make_unique<Link>(sim_, std::move(config)));
    return *links_.back();
  }

  [[nodiscard]] NodeId next_node_id() { return next_node_id_++; }
  [[nodiscard]] std::uint64_t next_packet_uid() { return next_packet_uid_++; }

  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  Simulation& sim_;
  NodeId next_node_id_ = 1;
  std::uint64_t next_packet_uid_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace fobs::sim
