// fabric_engine.cpp — the same fabric and traffic scheme through
// hsn::ShardEngine with 2 worker threads.
//
// Each round is a seeded blend of 4096 ops — 48 % two-sided sends, 25 %
// RMA writes, 25 % RMA reads, 2 % cross-tenant probes — posted in
// batches of 1024 and flushed; after each flush every receive ring and
// every event queue is drained and checked.  An op is one posted
// operation, and it completes when its packet is received (sends) or
// its completion event arrives (RMA), so ops_per_s counts completed ops
// per host second of the rounds.  32 single-packet ping-pongs through
// the engine (post, flush, poll each way) follow each round and give the
// host round-trip samples.
//
// After the timed rounds a two-round prefix of the same workload runs on
// fresh fabrics at 1 and at 2 worker threads; the digests of what each
// delivered must be equal (the engine's thread-count invariance, which
// holds at zero jitter).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "checks.hpp"
#include "fabric_common.hpp"
#include "hsn/shard_engine.hpp"

namespace perfbench {

using namespace shs;

namespace {

constexpr std::size_t kOpsPerRound = 4096;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kDistinctRounds = 8;
constexpr std::uint64_t kLatencyRounds = 8;
constexpr std::uint64_t kDigestRounds = 2;
constexpr int kEngineThreads = 2;
constexpr int kPingsPerRound = 32;
constexpr std::size_t kPingPairs = 64;
constexpr std::uint64_t kPingTagBit = 1ULL << 62;

struct RoundInputs {
  std::vector<FabricOp> ops;
  /// Ops that must never be received as packets (all but non-probe
  /// sends), and ops that complete on the event queue never (sends).
  std::vector<std::uint8_t> not_send;
  std::vector<std::uint8_t> not_rma;
  /// Write payloads back to back; op i's start at payload_at[i].
  std::vector<std::byte> payload;
  std::vector<std::uint32_t> payload_at;
};

struct Spans {
  std::uint32_t post, flush, poll_rx, poll_event;
};

struct EngineRun {
  FabricRig rig;
  std::unique_ptr<hsn::ShardEngine> engine;
  std::vector<std::vector<std::byte>> regions;
  std::vector<hsn::RKey> rkeys;
  const std::vector<RoundInputs>* inputs = nullptr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ping_pairs;

  RxTally rx;                              ///< sends received
  std::vector<std::uint32_t> completions;  ///< RMA completions, per op
  std::vector<std::byte> want;             ///< scratch for read checks

  std::uint64_t round_no = 0;
  std::uint64_t ping_no = 0;
  std::uint64_t posted = 0;
  std::uint64_t rma_completed = 0;
  std::uint64_t pings_completed = 0;  ///< ping-pong packets received
  std::uint64_t failed = 0;  ///< ops that did not end as they must
  std::uint64_t probes = 0;
  std::uint64_t error_events = 0;
  std::uint64_t expected_delivered = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  bool digesting = false;
  Samples rtt_us{0};

  Tracer* tr = nullptr;
  Spans spans{};
  std::uint64_t events_polled = 0;

  /// Sends received plus RMA completions.
  [[nodiscard]] std::uint64_t completed() const {
    return rx.received + rma_completed + pings_completed;
  }
};

std::vector<RoundInputs> make_inputs(std::uint64_t seed, const FabricRig& rig) {
  InputRng rng(seed * 0x9e37 + 0xe1);
  Blend blend;
  blend.write = 0.25;
  blend.read = 0.25;
  std::vector<RoundInputs> rounds(kDistinctRounds);
  for (std::size_t k = 0; k < kDistinctRounds; ++k) {
    RoundInputs& in = rounds[k];
    in.ops = make_round(rng, rig, kOpsPerRound, blend);
    fill_bounds(in.ops, fabric_timing(), fabric_topology());
    in.payload_at.assign(kOpsPerRound, 0);
    for (std::size_t i = 0; i < kOpsPerRound; ++i) {
      const FabricOp& op = in.ops[i];
      in.not_send.push_back(op.kind != OpKind::kSend || op.probe);
      in.not_rma.push_back(op.kind == OpKind::kSend);
      if (op.kind != OpKind::kWrite) continue;
      in.payload_at[i] = static_cast<std::uint32_t>(in.payload.size());
      in.payload.resize(in.payload.size() + op.size);
      fill_pattern(std::span<std::byte>(in.payload).last(op.size),
                   seed ^ (k << 32) ^ i, 0);
    }
  }
  return rounds;
}

void setup_run(EngineRun& r, std::uint64_t seed, int threads,
               const std::vector<RoundInputs>* inputs) {
  r.rig = make_fabric_rig(seed);
  r.engine = std::make_unique<hsn::ShardEngine>(*r.rig.fabric, threads);
  r.inputs = inputs;
  r.regions.resize(kFabricNodes);
  for (std::uint32_t n = 0; n < kFabricNodes; ++n) {
    r.regions[n].resize(kRegionBytes);
    fill_pattern(std::span<std::byte>(r.regions[n]).first(kReadArea),
                 0x7ead0000ULL + n, 0);
    auto key = r.rig.nics[n]->register_mr(r.rig.ep[n], r.regions[n]);
    if (!key.is_ok()) {
      std::fprintf(stderr, "register_mr failed on node %u\n", n);
      std::exit(2);
    }
    r.rkeys.push_back(key.value());
  }
  InputRng rng(seed * 0x51ed + 7);
  r.ping_pairs = make_ping_pairs(rng, r.rig, kPingPairs);
  r.rx.seen.assign(kOpsPerRound, 0);
  r.completions.assign(kOpsPerRound, 0);
}

/// Drains every ring and event queue after a flush, checking each item.
void drain(EngineRun& r, RunResult& res, const RoundInputs& in, SimTime base,
           std::uint64_t tag_base) {
  FabricRig& rig = r.rig;
  const RxRound round{in.ops, base, tag_base, r.round_no < kLatencyRounds};
  for (std::uint32_t d = 0; d < kFabricNodes; ++d) {
    for (const hsn::EndpointId ep : {rig.ep[d], rig.probe_ep[d]}) {
      drain_rx(rig, d, ep, round, r.rx, res, r.tr, r.spans.poll_rx,
               r.digesting ? &r.digest : nullptr);
      for (;;) {
        Result<hsn::Event> got = [&] {
          if (r.tr == nullptr) return rig.nics[d]->poll_event(ep);
          Span sp(*r.tr, r.spans.poll_event, 0);
          return rig.nics[d]->poll_event(ep);
        }();
        if (!got.is_ok()) break;
        ++r.events_polled;
        const hsn::Event& e = got.value();
        if (r.digesting) {
          fold(r.digest, static_cast<std::uint64_t>(e.type));
          fold(r.digest, e.op_id);
          fold(r.digest, static_cast<std::uint64_t>(e.vt));
          for (const std::byte b : e.data) {
            fold(r.digest, static_cast<std::uint64_t>(b));
          }
        }
        if (e.type == hsn::Event::Type::kError) {
          ++r.error_events;
          if (ep != rig.probe_ep[d]) {
            res.violate("op failed on a tenant endpoint: " +
                        e.status.to_string());
          }
          continue;
        }
        const std::uint64_t idx = e.op_id - 1 - tag_base;
        if (idx >= in.ops.size()) {
          res.violate("completion with unknown op id " +
                      std::to_string(e.op_id));
          continue;
        }
        const FabricOp& op = in.ops[idx];
        ++r.completions[idx];
        ++r.rma_completed;
        if (op.src != d) res.violate("completion at the wrong initiator");
        if (e.type == hsn::Event::Type::kRdmaReadComplete) {
          r.want.resize(op.size);
          fill_pattern(r.want, 0x7ead0000ULL + op.dst, op.offset);
          res.expect(checks::bytes_match(e.data, r.want, "read data", idx));
        } else if (e.type != hsn::Event::Type::kRdmaWriteComplete ||
                   op.kind != OpKind::kWrite) {
          res.violate("completion of the wrong kind for op " +
                      std::to_string(idx));
        }
      }
    }
  }
}

/// One round: post in batches, flush, drain; then the per-round checks.
void run_round(EngineRun& r, RunResult& res) {
  const std::size_t k = r.round_no % kDistinctRounds;
  const RoundInputs& in = (*r.inputs)[k];
  FabricRig& rig = r.rig;
  hsn::ShardEngine& engine = *r.engine;
  const SimTime base = static_cast<SimTime>(r.round_no + 1) * kRoundPeriod;
  const std::uint64_t tag_base = r.round_no * kOpsPerRound;
  // Every slot this round writes first holds the complement of what is
  // aimed at it, so a write that completes without landing fails the
  // check below in every round, not only the first time a slot is used.
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const FabricOp& op = in.ops[i];
    if (op.kind != OpKind::kWrite) continue;
    for (std::uint32_t j = 0; j < op.size; ++j) {
      r.regions[op.dst][op.offset + j] = ~in.payload[in.payload_at[i] + j];
    }
  }
  for (std::size_t b0 = 0; b0 < in.ops.size(); b0 += kBatch) {
    for (std::size_t i = b0; i < b0 + kBatch; ++i) {
      const FabricOp& op = in.ops[i];
      const SimTime vt = base + op.at;
      Status st;
      {
        std::optional<Span> sp;
        if (r.tr != nullptr) sp.emplace(*r.tr, r.spans.post, tag_base + i);
        switch (op.kind) {
          case OpKind::kSend: {
            const hsn::EndpointId sep =
                op.probe ? rig.probe_ep[op.src] : rig.ep[op.src];
            const hsn::EndpointId dep =
                op.probe ? rig.probe_ep[op.dst] : rig.ep[op.dst];
            st = engine.post_send(op.src, sep, op.dst, dep, tag_base + i,
                                  op.size, vt);
            break;
          }
          case OpKind::kWrite:
            st = engine.post_rma_write(
                op.src, rig.ep[op.src], op.dst, r.rkeys[op.dst], op.offset,
                op.size,
                std::span<const std::byte>(&in.payload[in.payload_at[i]],
                                           op.size),
                vt, tag_base + i + 1);
            break;
          case OpKind::kRead:
            st = engine.post_rma_read(op.src, rig.ep[op.src], op.dst,
                                      r.rkeys[op.dst], op.offset, op.size,
                                      vt, tag_base + i + 1);
            break;
        }
      }
      if (!st.is_ok()) res.violate("engine post failed: " + st.to_string());
      r.expected_delivered += op.probe ? 0 : op.kind == OpKind::kSend ? 1 : 2;
      r.probes += op.probe;
    }
    {
      std::optional<Span> sp;
      if (r.tr != nullptr) sp.emplace(*r.tr, r.spans.flush, 0);
      engine.flush();
    }
    drain(r, res, in, base, tag_base);
  }
  r.posted += in.ops.size();

  // Sends and RMA ops exactly once each; written bytes where aimed.
  res.expect(checks::exactly_once(r.rx.seen, in.not_send));
  res.expect(checks::exactly_once(r.completions, in.not_rma));
  r.failed += ops_failed(r.rx.seen, in.not_send) +
              ops_failed(r.completions, in.not_rma);
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const FabricOp& op = in.ops[i];
    if (op.kind != OpKind::kWrite) continue;
    res.expect(checks::bytes_match(
        std::span<const std::byte>(&r.regions[op.dst][op.offset], op.size),
        std::span<const std::byte>(&in.payload[in.payload_at[i]], op.size),
        "written bytes", i));
  }
  if (r.digesting) {
    for (const auto& region : r.regions) {
      for (const std::byte b : region) {
        fold(r.digest, static_cast<std::uint64_t>(b));
      }
    }
  }
  std::fill(r.rx.seen.begin(), r.rx.seen.end(), 0);
  std::fill(r.completions.begin(), r.completions.end(), 0);
  ++r.round_no;
}

/// One single-packet ping-pong through the engine; returns its host
/// round trip in ns, or -1 when it was lost.
std::int64_t ping(EngineRun& r, RunResult& res) {
  FabricRig& rig = r.rig;
  const auto [a, b] = r.ping_pairs[r.ping_no % r.ping_pairs.size()];
  const SimTime vt = static_cast<SimTime>(r.round_no) * kRoundPeriod +
                     kRoundPeriod / 2;
  const std::uint64_t tag = kPingTagBit | r.ping_no;
  const std::int64_t rtt_ns =
      ping_pong(rig, a, b, tag, [&](std::uint32_t from, std::uint32_t to) {
        const Status st = r.engine->post_send(from, rig.ep[from], to,
                                              rig.ep[to], tag, 8, vt);
        r.engine->flush();
        return st.is_ok();
      });
  r.posted += 2;
  r.expected_delivered += 2;
  if (rtt_ns < 0) {
    ++r.failed;
    res.violate("engine ping-pong " + std::to_string(r.ping_no) + " lost");
  } else {
    r.pings_completed += 2;
  }
  ++r.ping_no;
  return rtt_ns;
}

/// Digest of the first kDigestRounds rounds on a fresh fabric.
std::uint64_t prefix_digest(std::uint64_t seed, int threads,
                            const std::vector<RoundInputs>& inputs,
                            RunResult& res) {
  EngineRun r;
  setup_run(r, seed, threads, &inputs);
  r.digesting = true;
  for (std::uint64_t k = 0; k < kDigestRounds; ++k) run_round(r, res);
  return r.digest;
}

}  // namespace

RunResult run_fabric_engine(const Options& opt) {
  RunResult res;
  EngineRun r;
  setup_run(r, opt.seed, kEngineThreads, nullptr);
  const std::vector<RoundInputs> inputs = make_inputs(opt.seed, r.rig);
  r.inputs = &inputs;
  const hsn::SwitchCounters c0 = r.rig.fabric->total_counters();

  std::optional<Tracer> tracer;  // traced runs only: it calibrates itself
  if (opt.trace) {
    Tracer& t = tracer.emplace();
    r.tr = &t;
    r.spans = {t.name("hsn.engine.post"), t.name("hsn.engine.flush"),
               t.name("hsn.nic.poll_rx"), t.name("hsn.nic.poll_event")};
  }
  // Engine counters of the rounds alone (the pings' one-packet flushes
  // would dilute every per-flush and per-window ratio), over the first
  // cycle of distinct rounds so they repeat exactly for a seed.
  hsn::ShardEngineStats st;
  std::size_t staging = 0;
  const auto add_delta = [&st](const hsn::ShardEngineStats& a,
                               const hsn::ShardEngineStats& b) {
    st.flushes += b.flushes - a.flushes;
    st.windows += b.windows - a.windows;
    st.items_stepped += b.items_stepped - a.items_stepped;
    st.intra_forwards += b.intra_forwards - a.intra_forwards;
    st.cross_forwards += b.cross_forwards - a.cross_forwards;
    st.silent_barriers += b.silent_barriers - a.silent_barriers;
    st.worker_wakeups += b.worker_wakeups - a.worker_wakeups;
    st.pool_hits += b.pool_hits - a.pool_hits;
    st.pool_misses += b.pool_misses - a.pool_misses;
  };

  const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::uint64_t max_rounds = opt.tiny ? 3 : ~0ULL;
  // Per-second capacities leave 2x headroom over this host's rates.
  r.rtt_us = Samples(static_cast<std::size_t>(opt.seconds * 8e3) + 1024);
  // Ops completed per host second, one entry per round.
  Samples round_rates(static_cast<std::size_t>(opt.seconds * 512) + 1024);
  // Set-up ends here: everything above, from process start, is setup_s.
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) / 1e9;
  const std::int64_t t_begin = now_ns();
  while (now_ns() - t_begin < budget_ns && r.round_no < max_rounds) {
    const std::uint64_t c_before = r.completed();
    const hsn::ShardEngineStats s0 = r.engine->stats();
    const std::int64_t t0 = now_ns();
    run_round(r, res);
    round_rates.add(per_second(r.completed() - c_before, now_ns() - t0));
    if (r.round_no <= kDistinctRounds) {
      add_delta(s0, r.engine->stats());
      if (r.round_no == kDistinctRounds) {
        staging = r.engine->staging_bytes_reserved();
      }
    }
    for (int k = 0; k < kPingsPerRound; ++k) {
      const std::int64_t rtt_ns = ping(r, res);
      if (rtt_ns >= 0) r.rtt_us.add(static_cast<double>(rtt_ns) / 1e3);
    }
  }

  // Conservation: fabric attempts == delivered + drops; engine ops
  // posted == completed + failed (refused probes).
  const hsn::SwitchCounters c1 = r.rig.fabric->total_counters();
  const std::uint64_t delivered = c1.delivered - c0.delivered;
  const std::uint64_t drops = c1.dropped_total() - c0.dropped_total();
  if (delivered != r.expected_delivered) {
    res.violate("fabric delivered " + std::to_string(delivered) +
                ", expected sends + 2 x (writes + reads) = " +
                std::to_string(r.expected_delivered));
  }
  res.expect(checks::conserved("fabric", r.expected_delivered + r.probes,
                               delivered, drops));
  res.expect(checks::conserved("engine (posted = completed + failed)",
                               r.posted, r.completed(), r.error_events));
  if (r.error_events != r.probes) {
    res.violate(std::to_string(r.error_events) + " error events for " +
                std::to_string(r.probes) + " refused probes");
  }
  const hsn::SwitchCounters pv = r.rig.fabric->total_counters_for_vni(kProbeVni);
  if (pv.delivered != 0 ||
      pv.dropped_src_unauthorized + pv.dropped_dst_unauthorized != r.probes) {
    res.violate("probe VNI: delivered " + std::to_string(pv.delivered) +
                ", refused " +
                std::to_string(pv.dropped_src_unauthorized +
                               pv.dropped_dst_unauthorized) +
                " of " + std::to_string(r.probes));
  }

  // Thread-count invariance over a prefix (untimed).
  r.engine.reset();
  const std::uint64_t d1 = prefix_digest(opt.seed, 1, inputs, res);
  const std::uint64_t d2 = prefix_digest(opt.seed, kEngineThreads, inputs, res);
  res.expect(checks::digests_equal(d1, d2, "prefix digest t1 vs t2"));

  res.attempted = r.posted;
  res.failed = r.failed;
  res.info.push_back("rounds " + std::to_string(r.round_no) +
                     ", ops completed " + std::to_string(r.completed()) +
                     ", probes refused " + std::to_string(r.probes) +
                     ", rtt samples " + std::to_string(r.rtt_us.offered()) +
                     ", prefix digest " + std::to_string(d1));
  res.info.push_back("rtt_us: " + describe_samples(r.rtt_us.values()));
  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", quiet_rate(round_rates.values()), "ops/s");
    res.add("rtt_p50_us", rtt_p50(r.rtt_us.values()), "us");
    res.add("rtt_p99_us", rtt_p99(r.rtt_us.values()), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("sim_latency_us",
            r.rx.lat_count ? static_cast<double>(r.rx.lat_sum_ns) /
                                 static_cast<double>(r.rx.lat_count) / 1e3
                        : 0.0,
            "us");
    return res;
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const Tracer& tr = *tracer;
  const std::uint64_t round_ops = r.round_no * kOpsPerRound;
  res.add("trace.ops_per_s", quiet_rate(round_rates.values()), "ops/s");
  res.add("hsn.engine.post_ns", tr.self_ns_per_call(r.spans.post), "ns");
  res.add("hsn.engine.flush_ns_per_op",
          ratio(static_cast<std::uint64_t>(
                    std::max<std::int64_t>(0, tr.self_ns_total(r.spans.flush))),
                round_ops),
          "ns");
  res.add("hsn.engine.windows_per_flush", ratio(st.windows, st.flushes),
          "count");
  res.add("hsn.engine.items_per_window", ratio(st.items_stepped, st.windows),
          "count");
  res.add("hsn.engine.cross_forward_share",
          ratio(st.cross_forwards, st.cross_forwards + st.intra_forwards),
          "share");
  res.add("hsn.engine.silent_barrier_share",
          ratio(st.silent_barriers, st.windows), "share");
  res.add("hsn.engine.worker_wakeups_per_flush",
          ratio(st.worker_wakeups, st.flushes), "count");
  res.add("hsn.engine.pool_hit_rate",
          ratio(st.pool_hits, st.pool_hits + st.pool_misses), "share");
  res.add("hsn.engine.staging_bytes", static_cast<double>(staging), "bytes");
  res.add("hsn.nic.poll_event_ns",
          ratio(static_cast<std::uint64_t>(std::max<std::int64_t>(
                    0, tr.self_ns_total(r.spans.poll_event))),
                r.events_polled),
          "ns");
  res.add("hsn.nic.poll_rx_ns",
          ratio(static_cast<std::uint64_t>(std::max<std::int64_t>(
                    0, tr.self_ns_total(r.spans.poll_rx))),
                r.rx.received),
          "ns");
  if (!tr.dump(span_dump_path(opt), "driver")) {
    res.violate("could not write the span dump");
  }
  return res;
}

}  // namespace perfbench
