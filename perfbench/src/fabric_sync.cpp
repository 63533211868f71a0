// fabric_sync.cpp — the raw data plane through the synchronous walk.
//
// Each round posts a seeded list of 4096 ops (2 % cross-tenant probes)
// with CassiniNic::post_send, then every receiver consumes its packets
// with poll_rx.  An op is one posted packet, so ops_per_s counts packets
// received per host second of the rounds.  After each round sixteen
// pairs, the next ones of a fixed list of pairs in the traffic's class
// mix, each exchange an untimed ping-pong and then a timed one: the rtt_*
// samples are the host times of single-packet round trips on a warm
// pair, each the mean of a burst of kPingBurst consecutive ones.
//
// Traced run: rounds alternate between post_send timed in bulk (no
// per-call spans: hsn.nic.post_send_ns) and the ladder, which issues
// the same traffic rung by rung — prepare_send, then step() per switch
// traversal, then deliver_from_engine — each under its own span.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "checks.hpp"
#include "fabric_common.hpp"

namespace perfbench {

using namespace shs;

namespace {

constexpr std::size_t kOpsPerRound = 4096;
constexpr std::size_t kDistinctRounds = 8;
/// Rounds whose packets feed sim_latency_us: a fixed prefix, so the
/// modeled figure is the same however many rounds the host completes.
constexpr std::uint64_t kLatencyRounds = 8;
constexpr std::size_t kPingsPerRound = 16;
constexpr std::size_t kPingPairs = 64;
constexpr std::uint64_t kPingPairSeed = 0x9149;
constexpr std::uint64_t kPingTagBit = 1ULL << 62;

/// Ping-pongs per rtt_* sample: one group of pairs.
constexpr std::size_t kPingBurst = kPingGroup;
static_assert(kPingsPerRound % kPingBurst == 0 &&
              kPingPairs % kPingsPerRound == 0);

/// Folds single round trips into rtt_* samples: each sample is the mean
/// of kPingBurst consecutive round trips, one on each pair of a group.
/// A single sub-microsecond round trip's tail is set by the host (a cache
/// line another tenant evicted, a timer tick); the mean of a burst damps
/// that noise.  Every group holds the same mix of pair classes, so
/// bursts do not differ by which pairs they cover.  A burst with a lost
/// leg gives no sample.
class PingBursts {
 public:
  explicit PingBursts(Samples& out) : out_(&out) {}
  /// One round trip in ns, or -1 when it was lost.
  void add(std::int64_t rtt_ns) {
    lost_ = lost_ || rtt_ns < 0;
    sum_ns_ += rtt_ns;
    if (++n_ < kPingBurst) return;
    if (!lost_) {
      out_->add(static_cast<double>(sum_ns_) / 1e3 / kPingBurst);
    }
    n_ = 0;
    sum_ns_ = 0;
    lost_ = false;
  }

 private:
  Samples* out_;
  std::size_t n_ = 0;
  std::int64_t sum_ns_ = 0;
  bool lost_ = false;
};

struct SyncState {
  FabricRig rig;
  std::vector<std::vector<FabricOp>> rounds;
  std::vector<std::vector<std::uint8_t>> probe_flags;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ping_pairs;
  RxTally rx;

  std::uint64_t round_no = 0;
  std::uint64_t ping_no = 0;
  std::uint64_t posted = 0;
  std::uint64_t post_failed = 0;
  std::uint64_t failed = 0;  ///< ops that did not end as they must
  std::uint64_t probes = 0;
  std::uint64_t error_events = 0;
  Samples rtt_us{0};
};

std::uint64_t probe_count(const SyncState& s) {
  const auto& flags = s.probe_flags[s.round_no % kDistinctRounds];
  return static_cast<std::uint64_t>(std::count(flags.begin(), flags.end(), 1));
}

/// Drains every receiver of the round and checks each packet.
void drain_round(SyncState& s, RunResult& res, Tracer* tr,
                 std::uint32_t poll_span, const std::vector<FabricOp>& ops,
                 SimTime base, std::uint64_t tag_base) {
  FabricRig& rig = s.rig;
  const RxRound round{ops, base, tag_base, s.round_no < kLatencyRounds};
  for (std::uint32_t d = 0; d < kFabricNodes; ++d) {
    drain_rx(rig, d, rig.ep[d], round, s.rx, res, tr, poll_span);
    drain_rx(rig, d, rig.probe_ep[d], round, s.rx, res, tr, poll_span);
    // Refused probes raise an error event on the sender's probe
    // endpoint; nothing else raises events here.
    while (true) {
      auto ev = rig.nics[d]->poll_event(rig.probe_ep[d]);
      if (!ev.is_ok()) break;
      if (ev.value().type != hsn::Event::Type::kError) {
        res.violate("unexpected completion event on a probe endpoint");
      }
      ++s.error_events;
    }
  }
}

/// One round through post_send.
/// `post_ns` gets the host time of the post loop alone (one clock
/// pair around it, no per-call spans).
void round_post_send(SyncState& s, RunResult& res, Tracer* tr,
                     std::uint32_t poll_span, std::int64_t& post_ns) {
  FabricRig& rig = s.rig;
  const auto& ops = s.rounds[s.round_no % kDistinctRounds];
  const SimTime base = static_cast<SimTime>(s.round_no + 1) * kRoundPeriod;
  const std::uint64_t tag_base = s.round_no * kOpsPerRound;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FabricOp& op = ops[i];
    const hsn::EndpointId sep = op.probe ? rig.probe_ep[op.src] : rig.ep[op.src];
    const hsn::EndpointId dep = op.probe ? rig.probe_ep[op.dst] : rig.ep[op.dst];
    auto r = rig.nics[op.src]->post_send(sep, op.dst, dep, tag_base + i,
                                         op.size, {}, base + op.at);
    if (!r.is_ok()) {
      ++s.post_failed;
      if (op.probe == 0 || r.code() != Code::kPermissionDenied) {
        res.violate("post_send of op " + std::to_string(i) +
                    " failed: " + r.status().to_string());
      }
    }
  }
  post_ns += now_ns() - t0;
  s.posted += ops.size();
  s.probes += probe_count(s);
  drain_round(s, res, tr, poll_span, ops, base, tag_base);
}

/// Span names of the ladder.
struct LadderSpans {
  std::uint32_t op, prepare, step, deliver, poll;
};

/// One round through the ladder: prepare_send -> step()... ->
/// deliver_from_engine, each rung under its own span.
void round_ladder(SyncState& s, RunResult& res, Tracer& tr,
                  const LadderSpans& n, std::uint64_t& steps) {
  FabricRig& rig = s.rig;
  const auto& ops = s.rounds[s.round_no % kDistinctRounds];
  const SimTime base = static_cast<SimTime>(s.round_no + 1) * kRoundPeriod;
  const std::uint64_t tag_base = s.round_no * kOpsPerRound;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FabricOp& op = ops[i];
    const hsn::EndpointId sep = op.probe ? rig.probe_ep[op.src] : rig.ep[op.src];
    const hsn::EndpointId dep = op.probe ? rig.probe_ep[op.dst] : rig.ep[op.dst];
    Span whole(tr, n.op, tag_base + i);
    Result<hsn::CassiniNic::PreparedSend> prep = [&] {
      Span sp(tr, n.prepare, tag_base + i);
      return rig.nics[op.src]->prepare_send(sep, op.dst, dep, tag_base + i,
                                            op.size, base + op.at);
    }();
    if (!prep.is_ok()) {
      res.violate("prepare_send failed: " + prep.status().to_string());
      continue;
    }
    hsn::Packet& p = prep.value().packet;
    hsn::RosettaSwitch* at = rig.home[op.src];
    hsn::RosettaSwitch* next = nullptr;
    hsn::CassiniNic* to = nullptr;
    bool check_src = true;
    int ttl = hsn::kMaxFabricHops;
    hsn::RouteResult rr;
    for (;;) {
      {
        Span sp(tr, n.step, tag_base + i);
        rr = at->step(p, check_src, ttl, &next, &to);
      }
      ++steps;
      if (next == nullptr) break;
      at = next;
      check_src = false;
      --ttl;
    }
    if (to != nullptr) {
      Span sp(tr, n.deliver, tag_base + i);
      (void)to->deliver_from_engine(std::move(p));
    }
    if (op.probe) {
      res.expect(checks::probe_refused(rr.reason, i));
    } else if (to == nullptr) {
      res.violate("op " + std::to_string(i) + " dropped: " +
                  hsn::drop_reason_name(rr.reason));
    }
  }
  s.posted += ops.size();
  const std::uint64_t probes = probe_count(s);
  s.probes += probes;
  drain_round(s, res, &tr, n.poll, ops, base, tag_base);
  // The ladder's refused probes raise no error events (that is
  // post_send's bookkeeping) but are failed posts all the same.
  s.post_failed += probes;
  s.error_events += probes;
}

/// Single-packet ping-pong a -> b -> a between rounds (quiet fabric);
/// returns its host round trip in ns, or -1 when it was lost.
std::int64_t ping(SyncState& s, RunResult& res, std::uint32_t a,
                  std::uint32_t b) {
  FabricRig& rig = s.rig;
  const SimTime vt = static_cast<SimTime>(s.round_no) * kRoundPeriod +
                     kRoundPeriod / 2;
  const std::uint64_t tag = kPingTagBit | s.ping_no;
  const std::int64_t rtt_ns =
      ping_pong(rig, a, b, tag, [&](std::uint32_t from, std::uint32_t to) {
        return rig.nics[from]
            ->post_send(rig.ep[from], to, rig.ep[to], tag, 8, {}, vt)
            .is_ok();
      });
  s.posted += 2;
  if (rtt_ns < 0) {
    ++s.failed;
    res.violate("ping-pong " + std::to_string(s.ping_no) + " lost");
  } else {
    s.rx.received += 2;
  }
  ++s.ping_no;
  return rtt_ns;
}

}  // namespace

RunResult run_fabric_sync(const Options& opt) {
  RunResult res;
  SyncState s;
  s.rig = make_fabric_rig(opt.seed);
  InputRng rng(opt.seed * 0x9e37 + 0x51);
  Blend blend;
  for (std::size_t k = 0; k < kDistinctRounds; ++k) {
    s.rounds.push_back(make_round(rng, s.rig, kOpsPerRound, blend));
    fill_bounds(s.rounds.back(), s.rig.fabric->timing()->config(),
                s.rig.fabric->topology());
    std::vector<std::uint8_t> flags;
    for (const FabricOp& op : s.rounds.back()) flags.push_back(op.probe);
    s.probe_flags.push_back(std::move(flags));
  }
  // The ping pairs are the same on every seed: the seed varies the
  // background traffic, not the path lengths the latency probe measures
  // (a sub-microsecond round trip's tail moves with them).
  InputRng ping_rng(kPingPairSeed);
  s.ping_pairs = make_ping_pairs(ping_rng, s.rig, kPingPairs);
  s.rx.seen.assign(kOpsPerRound, 0);
  const hsn::SwitchCounters c0 = s.rig.fabric->total_counters();

  const auto finish_round = [&] {
    const auto& probe = s.probe_flags[s.round_no % kDistinctRounds];
    res.expect(checks::exactly_once(s.rx.seen, probe));
    s.failed += ops_failed(s.rx.seen, probe);
    std::fill(s.rx.seen.begin(), s.rx.seen.end(), 0);
    ++s.round_no;
  };

  const std::int64_t budget_ns =
      static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::uint64_t max_rounds = opt.tiny ? 4 : ~0ULL;

  // Per-second capacities leave 2x headroom over this host's rates.
  s.rtt_us = Samples(static_cast<std::size_t>(opt.seconds * 4e3) + 1024);
  PingBursts bursts(s.rtt_us);
  // Packets received per host second, one entry per round.
  Samples round_rates(static_cast<std::size_t>(opt.seconds * 2e3) + 1024);
  std::optional<Tracer> tracer;  // traced runs only: it calibrates itself
  LadderSpans names{};
  if (opt.trace) {
    Tracer& t = tracer.emplace();
    names = {t.name("hsn.ladder.op"), t.name("hsn.nic.prepare_send"),
             t.name("hsn.switch.step"), t.name("hsn.nic.deliver_from_engine"),
             t.name("hsn.nic.poll_rx")};
  }
  std::int64_t bulk_post_ns = 0;
  std::uint64_t bulk_posts = 0;
  std::int64_t ladder_ns = 0;
  std::uint64_t ladder_packets = 0;
  std::uint64_t ladder_ops = 0;
  // step() calls over the ladder rounds of the first cycle of distinct
  // rounds only, so the count repeats exactly for a seed.
  std::uint64_t steps = 0;
  std::uint64_t steps_ops = 0;

  // Set-up ends here: everything above, from process start, is setup_s.
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) / 1e9;
  const std::int64_t t_begin = now_ns();
  while (now_ns() - t_begin < budget_ns && s.round_no < max_rounds) {
    const std::uint64_t rx0 = s.rx.received;
    const std::int64_t t0 = now_ns();
    if (!opt.trace) {
      std::int64_t post_ns = 0;
      round_post_send(s, res, nullptr, 0, post_ns);
      round_rates.add(per_second(s.rx.received - rx0, now_ns() - t0));
    } else if (s.round_no % 2 == 0) {
      round_post_send(s, res, nullptr, 0, bulk_post_ns);
      bulk_posts += kOpsPerRound;
    } else {
      std::uint64_t round_steps = 0;
      round_ladder(s, res, *tracer, names, round_steps);
      if (s.round_no < kDistinctRounds) {
        steps += round_steps;
        steps_ops += kOpsPerRound;
      }
      ladder_ns += now_ns() - t0;
      ladder_packets += s.rx.received - rx0;
      ladder_ops += kOpsPerRound;
    }
    finish_round();
    // The round's pairs: the next kPingsPerRound of the list, in turn.
    const std::size_t first =
        (s.round_no * kPingsPerRound) % s.ping_pairs.size();
    for (std::size_t k = 0; k < kPingsPerRound; ++k) {
      const auto [a, b] = s.ping_pairs[first + k];
      (void)ping(s, res, a, b);  // untimed: warms the pair
      bursts.add(ping(s, res, a, b));
    }
  }

  // Conservation at the fabric and NIC boundaries.
  const hsn::SwitchCounters c1 = s.rig.fabric->total_counters();
  const std::uint64_t delivered = c1.delivered - c0.delivered;
  const std::uint64_t drops = c1.dropped_total() - c0.dropped_total();
  res.expect(checks::conserved("fabric", s.posted, delivered, drops));
  res.expect(checks::conserved("NIC (posted = received + failed)", s.posted,
                               s.rx.received, s.post_failed));
  if (s.error_events != s.post_failed) {
    res.violate("error events " + std::to_string(s.error_events) +
                " != refused posts " + std::to_string(s.post_failed));
  }
  const hsn::SwitchCounters pv =
      s.rig.fabric->total_counters_for_vni(kProbeVni);
  if (pv.delivered != 0 ||
      pv.dropped_src_unauthorized + pv.dropped_dst_unauthorized != s.probes) {
    res.violate("probe VNI: " + std::to_string(pv.delivered) +
                " delivered, " +
                std::to_string(pv.dropped_src_unauthorized +
                               pv.dropped_dst_unauthorized) +
                " refused of " + std::to_string(s.probes));
  }

  res.attempted = s.posted;
  res.failed = s.failed;
  res.info.push_back("rounds " + std::to_string(s.round_no) + ", packets " +
                     std::to_string(s.rx.received) + ", probes refused " +
                     std::to_string(s.probes));
  res.info.push_back("rtt_us: " + describe_samples(s.rtt_us.values()));
  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", quiet_rate(round_rates.values()), "ops/s");
    res.add("rtt_p50_us", rtt_p50(s.rtt_us.values()), "us");
    res.add("rtt_p99_us", rtt_p99(s.rtt_us.values()), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("sim_latency_us",
            s.rx.lat_count ? static_cast<double>(s.rx.lat_sum_ns) /
                                 static_cast<double>(s.rx.lat_count) / 1e3
                        : 0.0,
            "us");
    return res;
  }
  const Tracer& tr = *tracer;
  const double post_send_ns =
      bulk_posts ? static_cast<double>(bulk_post_ns) /
                       static_cast<double>(bulk_posts)
                 : 0.0;
  const double ladder_sum =
      ladder_ops ? static_cast<double>(tr.self_ns_total(names.prepare) +
                                       tr.self_ns_total(names.step) +
                                       tr.self_ns_total(names.deliver)) /
                       static_cast<double>(ladder_ops)
                 : 0.0;
  res.add("trace.ops_per_s", per_second(ladder_packets, ladder_ns), "ops/s");
  res.add("hsn.nic.tx_prepare_ns", tr.self_ns_per_call(names.prepare), "ns");
  res.add("hsn.switch.step_ns", tr.self_ns_per_call(names.step), "ns");
  res.add("hsn.switch.hops_per_packet",
          steps_ops ? static_cast<double>(steps) /
                          static_cast<double>(steps_ops)
                     : 0.0,
          "count");
  res.add("hsn.nic.rx_deliver_ns", tr.self_ns_per_call(names.deliver), "ns");
  res.add("hsn.nic.poll_rx_ns",
          ladder_packets ? static_cast<double>(tr.self_ns_total(names.poll)) /
                               static_cast<double>(ladder_packets)
                         : 0.0,
          "ns");
  res.add("hsn.nic.post_send_ns", post_send_ns, "ns");
  res.add("hsn.ladder.gap_share",
          post_send_ns > 0 ? (ladder_sum - post_send_ns) / post_send_ns : 0.0,
          "share");
  res.info.push_back("ladder: rung sum " + std::to_string(ladder_sum) +
                     " ns/op vs bulk post_send " +
                     std::to_string(post_send_ns) + " ns/op");
  if (!tr.dump(span_dump_path(opt), "main")) {
    res.violate("could not write the span dump");
  }
  return res;
}

}  // namespace perfbench
