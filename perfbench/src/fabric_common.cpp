#include "fabric_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace shs;

hsn::TimingConfig fabric_timing() {
  hsn::TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

hsn::TopologyConfig fabric_topology() {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;
  return topo;
}

FabricRig make_fabric_rig(std::uint64_t seed) {
  FabricRig rig;
  const hsn::TopologyConfig topo = fabric_topology();
  rig.fabric = hsn::Fabric::create(kFabricNodes, fabric_timing(),
                                   0xfab0000 + seed, topo);
  rig.fabric->set_enforcement(true);
  const auto die = [](const char* what, std::size_t i) {
    std::fprintf(stderr, "fabric rig: %s failed for node %zu\n", what, i);
    std::exit(2);
  };
  const std::size_t switches = rig.fabric->switch_count();
  rig.switch_nodes.resize(switches);
  rig.group_nodes.resize((switches + topo.switches_per_group - 1) /
                         topo.switches_per_group);
  for (std::size_t i = 0; i < kFabricNodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    const hsn::SwitchId home = rig.fabric->home_switch(addr);
    auto sw = rig.fabric->switch_for(addr);
    if (!sw->authorize_vni(addr, kTenantVni).is_ok()) die("authorize", i);
    if (i < kFabricNodes / 2 && !sw->authorize_vni(addr, kProbeVni).is_ok()) {
      die("authorize probe", i);
    }
    rig.home.push_back(sw.get());
    rig.nics.push_back(&rig.fabric->nic(addr));
    auto ep = rig.nics.back()->alloc_endpoint(kTenantVni,
                                              hsn::TrafficClass::kBulkData);
    auto pep = rig.nics.back()->alloc_endpoint(kProbeVni,
                                               hsn::TrafficClass::kBulkData);
    if (!ep.is_ok() || !pep.is_ok()) die("alloc_endpoint", i);
    rig.ep.push_back(ep.value());
    rig.probe_ep.push_back(pep.value());
    const auto group = static_cast<std::uint32_t>(home / topo.switches_per_group);
    rig.switch_of.push_back(home);
    rig.group_of.push_back(group);
    rig.switch_nodes[home].push_back(static_cast<std::uint32_t>(i));
    rig.group_nodes[group].push_back(static_cast<std::uint32_t>(i));
  }
  return rig;
}

namespace {

enum class PairClass : std::uint8_t { kSameSwitch, kSameGroup, kCrossGroup };

/// A destination for `src` in pair class `c`.
std::uint32_t pick_dst(InputRng& rng, const FabricRig& rig, std::uint32_t src,
                       PairClass c) {
  for (;;) {
    std::uint32_t d = 0;
    switch (c) {
      case PairClass::kSameSwitch: {
        const auto& from = rig.switch_nodes[rig.switch_of[src]];
        d = from[rng.below(from.size())];
        if (d != src) return d;
        break;
      }
      case PairClass::kSameGroup: {
        const auto& from = rig.group_nodes[rig.group_of[src]];
        d = from[rng.below(from.size())];
        if (rig.switch_of[d] != rig.switch_of[src]) return d;
        break;
      }
      case PairClass::kCrossGroup:
        d = static_cast<std::uint32_t>(rng.below(kFabricNodes));
        if (rig.group_of[d] != rig.group_of[src]) return d;
        break;
    }
  }
}

/// Pair class of the k-th of n draws: exactly 1/4 same switch, 1/4 same
/// group, 1/2 cross group (before shuffling).
PairClass class_of(std::size_t k, std::size_t n) {
  return k * 4 < n ? PairClass::kSameSwitch
         : k * 2 < n ? PairClass::kSameGroup
                     : PairClass::kCrossGroup;
}

template <typename T>
void shuffle(InputRng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace

std::vector<FabricOp> make_round(InputRng& rng, const FabricRig& rig,
                                 std::size_t n, const Blend& blend) {
  // Exact proportions, seeded order: every seed sees the same mix of
  // verbs, pair classes and sizes, so seeds differ in which nodes talk
  // and in what order, not in how much of each kind of work a round is.
  constexpr std::size_t kSizes = std::size(kFabricSizes);
  const auto count = [n](double share) {
    return static_cast<std::size_t>(share * static_cast<double>(n) + 0.5);
  };
  const std::size_t probes = count(blend.probe);
  const std::size_t writes = count(blend.write);
  const std::size_t reads = count(blend.read);
  std::vector<FabricOp> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i].size = kFabricSizes[i % kSizes];
    ops[i].kind = i < writes           ? OpKind::kWrite
                  : i < writes + reads ? OpKind::kRead
                                       : OpKind::kSend;
  }
  // Shuffle sizes against verbs, then tag pair classes and probes by
  // position and shuffle again.
  shuffle(rng, ops);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i].probe = i < probes ? 1 : 0;
    if (ops[i].probe) ops[i].kind = OpKind::kSend;
  }
  std::vector<PairClass> cls(n);
  for (std::size_t k = 0; k < n; ++k) cls[k] = class_of(k, n);
  shuffle(rng, cls);
  shuffle(rng, ops);

  std::vector<std::uint32_t> slot_next(kFabricNodes, 0);
  const std::uint32_t half = kFabricNodes / 2;
  std::size_t probe_no = 0;
  for (std::size_t i = 0; i < n; ++i) {
    FabricOp& op = ops[i];
    op.at = static_cast<SimDuration>(i) * kOpSpacing;
    op.src = static_cast<std::uint32_t>(rng.below(kFabricNodes));
    if (op.probe) {
      // Alternately from the authorized half to the other half (refused
      // at the destination edge) and from the other half to anywhere
      // (refused at the source edge).
      const auto other = static_cast<std::uint32_t>(rng.below(half));
      op.src = (probe_no++ % 2 == 0 ? 0 : half) + op.src % half;
      op.dst = op.src < half ? half + other
                             : static_cast<std::uint32_t>(
                                   rng.below(kFabricNodes));
      continue;
    }
    op.dst = pick_dst(rng, rig, op.src, cls[i]);
    // A target whose write slots are used up this round takes a send
    // instead, so every written slot has exactly one writer per round.
    if (op.kind == OpKind::kWrite && slot_next[op.dst] == kWriteSlots) {
      op.kind = OpKind::kSend;
    }
    if (op.kind == OpKind::kWrite) {
      op.size = std::min<std::uint32_t>(op.size, kWriteSlot);
      op.offset = kReadArea + slot_next[op.dst]++ * kWriteSlot;
    } else if (op.kind == OpKind::kRead) {
      op.offset = static_cast<std::uint32_t>(
          rng.below(kReadArea - op.size + 1));
    }
  }
  return ops;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> make_ping_pairs(
    InputRng& rng, const FabricRig& rig, std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t k = 0; k < n; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.below(kFabricNodes));
    pairs.emplace_back(
        a, pick_dst(rng, rig, a, class_of(k % kPingGroup, kPingGroup)));
  }
  // Shuffled within each group only, so every group keeps the exact mix.
  for (std::size_t g = 0; g < n; g += kPingGroup) {
    for (std::size_t i = std::min(n - g, kPingGroup); i > 1; --i) {
      std::swap(pairs[g + i - 1], pairs[g + rng.below(i)]);
    }
  }
  return pairs;
}

void fill_bounds(std::vector<FabricOp>& ops, const hsn::TimingConfig& timing,
                 const hsn::TopologyConfig& topo) {
  // Serialization of the payload alone (frame headers left out: the
  // bound only has to be a lower one), rounded down.
  const auto ser = [](std::uint64_t bytes, DataRate rate) -> SimDuration {
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0e9 /
                                    static_cast<double>(rate.bps()));
  };
  const SimDuration link_latency =
      std::min(topo.link_latency, topo.global_link_latency);
  for (FabricOp& op : ops) {
    op.bound0 = timing.tx_overhead + ser(op.size, timing.link_rate) +
                timing.hop_latency;
    op.bound_per_hop =
        timing.hop_latency + ser(op.size, topo.link_rate) + link_latency;
  }
}

void drain_rx(FabricRig& rig, std::uint32_t d, hsn::EndpointId ep,
              const RxRound& round, RxTally& tally, RunResult& res,
              Tracer* tr, std::uint32_t poll_span, std::uint64_t* digest) {
  hsn::CassiniNic& nic = *rig.nics[d];
  for (;;) {
    Result<hsn::Packet> got = [&] {
      if (tr == nullptr) return nic.poll_rx(ep);
      Span sp(*tr, poll_span, 0);
      return nic.poll_rx(ep);
    }();
    if (!got.is_ok()) return;
    const hsn::Packet& p = got.value();
    ++tally.received;
    const std::uint64_t idx = p.tag - round.tag_base;
    if (idx >= round.ops.size()) {
      res.violate("packet with unknown tag " + std::to_string(p.tag));
      continue;
    }
    const FabricOp& op = round.ops[idx];
    if (op.kind != OpKind::kSend || op.src != p.src || op.dst != d ||
        op.size != p.size_bytes) {
      res.violate("packet for op " + std::to_string(idx) +
                  " arrived at the wrong place or size");
    }
    ++tally.seen[idx];
    const SimTime posted = round.base + op.at;
    res.expect(checks::arrival_not_before(
        p.arrival_vt, posted + op.bound0 + p.hops * op.bound_per_hop, idx));
    if (round.in_latency_prefix) {
      tally.lat_sum_ns += static_cast<std::uint64_t>(p.arrival_vt - posted);
      ++tally.lat_count;
    }
    if (digest != nullptr) {
      fold(*digest, p.src);
      fold(*digest, p.tag);
      fold(*digest, static_cast<std::uint64_t>(p.arrival_vt));
      fold(*digest, p.hops);
    }
  }
}

std::uint64_t ops_failed(std::span<const std::uint32_t> seen,
                         std::span<const std::uint8_t> flags) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < seen.size() && i < flags.size(); ++i) {
    failed += flags[i] ? seen[i] != 0 : seen[i] == 0;
  }
  return failed;
}

}  // namespace perfbench
