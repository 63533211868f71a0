// fabric_common.hpp — the fabric both fabric workloads run on, and their
// seeded traffic.
//
// 256-node dragonfly (8 nodes per switch, 4 switches per group, 8
// groups), UGAL routing, VNI enforcement on, zero jitter and zero run
// bias.  Every node holds one endpoint on the tenant VNI, authorized on
// every port.  A second, probe VNI is authorized only on the first half
// of the nodes; every node also holds an endpoint on it (the NIC itself
// does not check authorization — the edge switch does).  Probes from the
// first half to the second are refused at the destination edge
// (kDstNotAuthorized); probes sent from the second half are refused at
// the source edge (kSrcNotAuthorized).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "hsn/fabric.hpp"

namespace perfbench {

constexpr shs::hsn::Vni kTenantVni = 4242;
constexpr shs::hsn::Vni kProbeVni = 4343;
constexpr std::size_t kFabricNodes = 256;
/// Packet sizes of the fabric mix, smallest first.
constexpr std::uint32_t kFabricSizes[] = {1, 64, 1024, 4096};
/// Virtual spacing of consecutive ops in a round, and the round period:
/// a round's traffic has left the fabric long before the next begins, so
/// every round sees a quiet fabric and modeled latency does not depend
/// on how many rounds the host managed to run.
constexpr shs::SimDuration kOpSpacing = 64;  // ns
constexpr shs::SimDuration kRoundPeriod = shs::kMillisecond;

enum class OpKind : std::uint8_t { kSend, kWrite, kRead };

struct FabricOp {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t size = 0;
  OpKind kind = OpKind::kSend;
  std::uint8_t probe = 0;  ///< cross-tenant probe (a send)
  /// RMA: offset into the target region.
  std::uint32_t offset = 0;
  /// Virtual post time relative to the round's base.
  shs::SimDuration at = 0;
  /// Analytic arrival lower bound relative to the post time, without
  /// the per-inter-switch-hop term, and that term (sends only).
  shs::SimDuration bound0 = 0;
  shs::SimDuration bound_per_hop = 0;
};

struct FabricRig {
  std::unique_ptr<shs::hsn::Fabric> fabric;
  std::vector<shs::hsn::CassiniNic*> nics;
  std::vector<shs::hsn::RosettaSwitch*> home;  ///< edge switch per node
  std::vector<shs::hsn::EndpointId> ep;        ///< tenant endpoint
  std::vector<shs::hsn::EndpointId> probe_ep;  ///< probe-VNI endpoint
  std::vector<std::vector<std::uint32_t>> switch_nodes;
  std::vector<std::vector<std::uint32_t>> group_nodes;
  std::vector<std::uint32_t> group_of;
  std::vector<std::uint32_t> switch_of;
};

/// Builds the rig (deterministic per `seed`).
FabricRig make_fabric_rig(std::uint64_t seed);

/// Op blend: share of each verb among a round's ops (the rest are sends).
struct Blend {
  double write = 0;
  double read = 0;
  double probe = 0.02;
};

/// Region layout per node for the RMA ops of fabric_engine: a read area
/// holding a seeded pattern (never written) and a write area of slots.
constexpr std::uint32_t kReadArea = 8192;
constexpr std::uint32_t kWriteSlot = 256;
constexpr std::uint32_t kWriteSlots = 16;
constexpr std::uint32_t kRegionBytes = kReadArea + kWriteSlot * kWriteSlots;

/// One seeded round of `n` ops in exact proportions: pair mix 25 % same
/// switch, 25 % same group (other switch), 50 % cross group; each size
/// of kFabricSizes on a quarter of the ops (RMA writes capped at
/// kWriteSlot bytes, each into its own slot of the target's write area;
/// reads anywhere in the read area); verbs and probes per `blend`.
std::vector<FabricOp> make_round(InputRng& rng, const FabricRig& rig,
                                 std::size_t n, const Blend& blend);

/// Ping-pong pairs come in groups of this many.
constexpr std::size_t kPingGroup = 8;

/// `n` seeded ping-pong pairs with the same pair-class mix as the
/// traffic, exactly so in every aligned group of kPingGroup pairs.
std::vector<std::pair<std::uint32_t, std::uint32_t>> make_ping_pairs(
    InputRng& rng, const FabricRig& rig, std::size_t n);

/// Fills each op's analytic arrival bound from the timing and topology
/// configuration alone: post + TX overhead + edge serialization of the
/// payload + one hop latency per switch traversed, and per inter-switch
/// hop the link's serialization and latency (the smaller of the two
/// link latencies, so the bound holds on every path).
void fill_bounds(std::vector<FabricOp>& ops,
                 const shs::hsn::TimingConfig& timing,
                 const shs::hsn::TopologyConfig& topo);

shs::hsn::TimingConfig fabric_timing();
shs::hsn::TopologyConfig fabric_topology();

// -- Receiving and checking a round's packets ---------------------------------

/// The round a drain checks packets against: op i of `ops` was posted
/// with tag `tag_base + i` at virtual time `base + ops[i].at`.
struct RxRound {
  const std::vector<FabricOp>& ops;
  shs::SimTime base = 0;
  std::uint64_t tag_base = 0;
  /// Whether the packets feed the modeled-latency sums.
  bool in_latency_prefix = false;
};

/// What the drains of a run counted.
struct RxTally {
  std::vector<std::uint32_t> seen;  ///< receptions per op of the round
  std::uint64_t received = 0;
  std::uint64_t lat_sum_ns = 0;  ///< virtual arrival - post
  std::uint64_t lat_count = 0;
};

/// Consumes every packet waiting on endpoint `ep` of node `d` with
/// poll_rx (each call under span `poll_span` when `tr` is set) and
/// checks each: a send of this round, at the right node with the right
/// source and size, arriving no earlier than its analytic bound.
/// `digest`, when set, folds in what arrived.
void drain_rx(FabricRig& rig, std::uint32_t d, shs::hsn::EndpointId ep,
              const RxRound& round, RxTally& tally, RunResult& res,
              Tracer* tr = nullptr, std::uint32_t poll_span = 0,
              std::uint64_t* digest = nullptr);

/// Ops of a round that did not end as they must: `flags[i]` set means op
/// i must never be seen (a probe, or an op of another kind), clear means
/// exactly once.  Counts the never-seen ops and the seen flagged ones.
std::uint64_t ops_failed(std::span<const std::uint32_t> seen,
                         std::span<const std::uint8_t> flags);

/// One 8 B single-packet ping-pong a -> b -> a on the tenant endpoints,
/// tag `tag`: `send(from, to)` posts one packet (and flushes, where
/// there is something to flush) and returns whether the post succeeded;
/// the receiver takes it with poll_rx.  Returns the host round trip in
/// ns, or -1 when a leg was lost.
template <typename Send>
std::int64_t ping_pong(FabricRig& rig, std::uint32_t a, std::uint32_t b,
                       std::uint64_t tag, Send&& send) {
  const std::int64_t t0 = now_ns();
  const bool sent1 = send(a, b);
  auto p1 = rig.nics[b]->poll_rx(rig.ep[b]);
  const bool sent2 = send(b, a);
  auto p2 = rig.nics[a]->poll_rx(rig.ep[a]);
  const std::int64_t t1 = now_ns();
  const bool ok = sent1 && sent2 && p1.is_ok() && p2.is_ok() &&
                  p1.value().tag == tag && p2.value().tag == tag;
  return ok ? t1 - t0 : -1;
}

}  // namespace perfbench
