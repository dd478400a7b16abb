// hpcc/sim/network.h
//
// Cluster network model: per-node NIC serialization plus a fixed fabric
// latency (a Slingshot-class high-speed network, as in the paper's
// Figure 1 proof of concept), and a WAN uplink with much lower bandwidth
// shared by the whole site (the path to DockerHub that §5.1.3's proxy
// discussion is about).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "sim/resource.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace hpcc::sim {

using NodeId = std::uint32_t;

struct NetworkConfig {
  double nic_bandwidth = 25000.0;    ///< bytes/us per node (25 GB/s HSN)
  SimDuration fabric_latency = usec(2);
  double wan_bandwidth = 1250.0;     ///< bytes/us shared uplink (10 Gbit/s)
  SimDuration wan_latency = msec(20);
  /// Overlay-network (network-namespaced container) characteristics:
  /// fraction of NIC bandwidth actually reachable through the veth/NAT
  /// path, and the per-message encapsulation latency.
  double overlay_bandwidth_fraction = 0.35;
  SimDuration overlay_latency = usec(30);
};

class Network {
 public:
  Network(std::uint32_t num_nodes, NetworkConfig config = {});

  /// Transfers `bytes` from `src` to `dst` starting at `now`; the message
  /// serializes through both NICs and crosses the fabric once. Returns
  /// delivery time.
  SimTime transfer(SimTime now, NodeId src, NodeId dst, std::uint64_t bytes);

  /// The same transfer through a container overlay network (veth pairs,
  /// NAT, userspace encapsulation) — what a fully network-namespaced
  /// container uses instead of the host interconnect. §3.2: "strict
  /// container isolation may introduce performance penalties" and "may
  /// break access to HPC hardware such as interconnects". The overlay
  /// pays per-message processing latency and a bandwidth haircut.
  SimTime overlay_transfer(SimTime now, NodeId src, NodeId dst,
                           std::uint64_t bytes);

  /// Transfers `bytes` between a node and the outside world through the
  /// shared WAN uplink (registry pulls from public registries).
  SimTime wan_transfer(SimTime now, NodeId node, std::uint64_t bytes);

  /// A zero-payload control message (RPC, heartbeat, watch notification).
  SimTime message(SimTime now, NodeId src, NodeId dst);

  /// Installs a fault injector consulted by the try_* variants below.
  /// Null (the default) or an injector with an empty plan leaves every
  /// path byte-identical to the infallible methods above.
  void set_fault_injector(fault::FaultInjector* injector) {
    faults_ = injector;
  }

  /// Fallible fabric transfer. Consults the injector's kFabric domain:
  /// a degradation or brownout window stretches the wire time and adds
  /// latency; a hard fault still charges the full (stretched) transfer
  /// time — a failed transfer is not free — then returns kUnavailable
  /// with *failed_at (when non-null) set to the time the failure was
  /// observed. A partition window instead refuses the transfer at base
  /// fabric latency: the path is unreachable, so no wire time is
  /// charged and no queue state is touched.
  Result<SimTime> try_transfer(SimTime now, NodeId src, NodeId dst,
                               std::uint64_t bytes,
                               SimTime* failed_at = nullptr);

  /// Fallible WAN transfer; same contract as try_transfer but the
  /// injector's kWan domain and the shared uplink.
  Result<SimTime> try_wan_transfer(SimTime now, NodeId node,
                                   std::uint64_t bytes,
                                   SimTime* failed_at = nullptr);

  /// Contention-free delivery estimate for a fabric transfer: the same
  /// serialization and latency arithmetic as transfer(), but touching no
  /// NIC queue, no byte counters and no fault stream. This is what a
  /// *cancellable* concurrent leg charges — a hedged pull's second leg
  /// races the primary, and whichever loses is cancelled, so neither
  /// leg's queue occupancy may retroactively delay the other (§14).
  SimTime transfer_estimate(SimTime now, NodeId src, NodeId dst,
                            std::uint64_t bytes) const;

  std::uint64_t bytes_moved() const { return bytes_moved_; }
  std::uint64_t wan_bytes() const { return wan_bytes_; }
  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(nics_.size()); }

 private:
  SimTime transfer_impl(SimTime now, NodeId src, NodeId dst,
                        std::uint64_t bytes, double stretch,
                        SimDuration extra_latency);
  SimTime wan_transfer_impl(SimTime now, NodeId node, std::uint64_t bytes,
                            double stretch, SimDuration extra_latency);

  NetworkConfig config_;
  std::vector<FifoStation> nics_;
  FifoStation wan_;
  fault::FaultInjector* faults_ = nullptr;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t wan_bytes_ = 0;
};

}  // namespace hpcc::sim
