#include "sim/network.h"

#include <cassert>

namespace hpcc::sim {

Network::Network(std::uint32_t num_nodes, NetworkConfig config)
    : config_(config), wan_("wan-uplink", 1) {
  nics_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    nics_.emplace_back("nic-" + std::to_string(i), 1);
  }
}

SimTime Network::transfer(SimTime now, NodeId src, NodeId dst,
                          std::uint64_t bytes) {
  // stretch = 1.0 multiplies through exactly: byte-identical to the
  // pre-fault-layer arithmetic.
  return transfer_impl(now, src, dst, bytes, 1.0, 0);
}

SimTime Network::transfer_impl(SimTime now, NodeId src, NodeId dst,
                               std::uint64_t bytes, double stretch,
                               SimDuration extra_latency) {
  assert(src < nics_.size() && dst < nics_.size());
  bytes_moved_ += bytes;
  const auto wire_time = static_cast<SimDuration>(
      static_cast<double>(bytes) / config_.nic_bandwidth * stretch);
  if (src == dst) return now + 1 + extra_latency;  // loopback: negligible
  // Serialize out of the source NIC, cross the fabric, land in the
  // destination NIC. Receive-side serialization contends with other
  // traffic into `dst`.
  const SimTime sent = nics_[src].submit(now, wire_time);
  const SimTime arrived = sent + config_.fabric_latency;
  return nics_[dst].submit(arrived, wire_time) + extra_latency;
}

SimTime Network::overlay_transfer(SimTime now, NodeId src, NodeId dst,
                                  std::uint64_t bytes) {
  assert(src < nics_.size() && dst < nics_.size());
  bytes_moved_ += bytes;
  if (src == dst) return now + config_.overlay_latency;
  const double bw = config_.nic_bandwidth * config_.overlay_bandwidth_fraction;
  const auto wire_time =
      static_cast<SimDuration>(static_cast<double>(bytes) / bw);
  // Encapsulate, serialize out, cross the fabric, decapsulate, serialize
  // in — both per-message latencies are paid in the container's network
  // namespace, not the host's.
  const SimTime sent =
      nics_[src].submit(now + config_.overlay_latency, wire_time);
  const SimTime arrived = sent + config_.fabric_latency;
  return nics_[dst].submit(arrived, wire_time) + config_.overlay_latency;
}

SimTime Network::wan_transfer(SimTime now, NodeId node, std::uint64_t bytes) {
  return wan_transfer_impl(now, node, bytes, 1.0, 0);
}

SimTime Network::wan_transfer_impl(SimTime now, NodeId node,
                                   std::uint64_t bytes, double stretch,
                                   SimDuration extra_latency) {
  assert(node < nics_.size());
  wan_bytes_ += bytes;
  const auto nic_time = static_cast<SimDuration>(
      static_cast<double>(bytes) / config_.nic_bandwidth);
  // Degradation lives on the WAN leg: the site NIC is fine, the path to
  // the public registry is what flaps (§5.1.3).
  const auto wan_time = static_cast<SimDuration>(
      static_cast<double>(bytes) / config_.wan_bandwidth * stretch);
  const SimTime through_nic = nics_[node].submit(now, nic_time);
  return wan_.submit(through_nic, wan_time) + config_.wan_latency +
         extra_latency;
}

SimTime Network::transfer_estimate(SimTime now, NodeId src, NodeId dst,
                                   std::uint64_t bytes) const {
  assert(src < nics_.size() && dst < nics_.size());
  if (src == dst) return now + 1;
  const auto wire_time = static_cast<SimDuration>(
      static_cast<double>(bytes) / config_.nic_bandwidth);
  // Send-side serialization, fabric crossing, receive-side serialization
  // — an idle path, since a cancelled racer never holds the NIC.
  return now + wire_time + config_.fabric_latency + wire_time;
}

SimTime Network::message(SimTime now, NodeId src, NodeId dst) {
  if (src == dst) return now + 1;
  return transfer(now, src, dst, 256) ;  // small control payload
}

Result<SimTime> Network::try_transfer(SimTime now, NodeId src, NodeId dst,
                                      std::uint64_t bytes,
                                      SimTime* failed_at) {
  fault::Decision d;
  if (faults_ && faults_->enabled())
    d = faults_->decide(fault::Domain::kFabric, now);
  if (d.partitioned) {
    // kPartition: the pair is unreachable — the connection is refused at
    // base fabric latency. No bytes move and no NIC queue is touched.
    if (failed_at) *failed_at = now + config_.fabric_latency;
    return err_unavailable("fabric partitioned");
  }
  const SimTime done = transfer_impl(now, src, dst, bytes, d.slowdown,
                                     d.extra_latency);
  if (!d.fail) return done;
  // The wire time was spent before the transfer was declared dead.
  if (failed_at) *failed_at = done;
  return err_unavailable("fabric transfer failed");
}

Result<SimTime> Network::try_wan_transfer(SimTime now, NodeId node,
                                          std::uint64_t bytes,
                                          SimTime* failed_at) {
  fault::Decision d;
  if (faults_ && faults_->enabled())
    d = faults_->decide(fault::Domain::kWan, now);
  if (d.partitioned) {
    // kPartition: the uplink is dark for the window — fail at one WAN
    // round trip, without charging wire time or the shared WAN queue.
    if (failed_at) *failed_at = now + config_.wan_latency;
    return err_unavailable("wan partitioned");
  }
  const SimTime done = wan_transfer_impl(now, node, bytes, d.slowdown,
                                         d.extra_latency);
  if (!d.fail) return done;
  if (failed_at) *failed_at = done;
  return err_unavailable("wan transfer failed");
}

}  // namespace hpcc::sim
