// app_pingpong.cpp — the application path: pods, cxi authentication,
// ofi tag matching and mpi, on the paper's testbed (2 nodes, one switch,
// default timing).
//
// Setup admits two pods of one vni:true job through k8s, opens their
// endpoints with SlingshotStack::domain_for (netns-authenticated), and
// runs the isolation checks.  The two mpi ranks then run on two threads,
// each pinned to its own CPU.  Every round has two phases:
//   1. 32 ping-pongs of 8 B (the payload carries the sequence number);
//   2. OSU-style windowed streaming: for each size in kStreamSizes a
//      window of 64 sends over 4 tags, then a 4 B ack.  The receiver
//      takes the window tag by tag, so later tags wait in the ofi
//      unexpected queue.  Messages up to 4 KiB carry a seeded payload
//      (sequence number + pattern); larger ones are size-only.
// An op for ops_per_s is one streaming message; rtt_* are the host round
// trips of phase 1, timed on rank 0.
//
// Traced run: phase 1 runs at three entry points in turn — mpi
// (RankContext::send/recv), ofi (Endpoint::tsend/trecv_sync) and the NIC
// (CassiniNic::post_send/wait_rx), all on the pods' own endpoints — plus
// a bulk-timed mpi batch with no per-call spans.
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "core/stack.hpp"
#include "mpi/comm.hpp"

namespace perfbench {

using namespace shs;

namespace {

constexpr int kPings = 32;
constexpr int kWindow = 64;
constexpr int kStreamTags = 4;
constexpr std::array<std::uint64_t, 5> kStreamSizes = {8, 256, 4096, 65536,
                                                       1 << 20};
constexpr std::uint64_t kMaxDataBytes = 4096;
constexpr std::uint32_t kCtrlTag = 1;
constexpr std::uint32_t kPingTag = 2;
constexpr std::uint32_t kPongTag = 3;
constexpr std::uint32_t kAckTag = 4;
constexpr std::uint32_t kStreamTag0 = 16;
/// Tags of the ofi and NIC rungs: outside the mpi wire-tag space, whose
/// top half is (source rank + 1).
constexpr std::uint64_t kRawTag = 0xF000'0000'0000'0000ULL;
constexpr int kTimeoutMs = 10'000;

enum Ctrl : std::uint64_t { kStop = 0, kRound = 1, kTracedRound = 2 };

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void store_u64(std::byte* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Payload of streaming message `seq` of `size` bytes: the sequence
/// number, then the seeded pattern.
void fill_payload(std::vector<std::byte>& buf, std::uint64_t size,
                  std::uint64_t seq, std::uint64_t key) {
  buf.resize(size);
  fill_pattern(std::span<std::byte>(buf).subspan(8), key ^ seq, 8);
  store_u64(buf.data(), seq);
}

/// State shared by both ranks, read-only after setup.
struct App {
  std::unique_ptr<core::SlingshotStack> stack;
  std::unique_ptr<ofi::Endpoint> ep[2];
  std::unique_ptr<mpi::Communicator> comm;
  hsn::CassiniNic* nic[2] = {nullptr, nullptr};
  std::uint64_t key = 0;
};

/// Per-rank tracer and span names.
struct RankTrace {
  Tracer tr;
  std::uint32_t mpi_send = tr.name("mpi.send");
  std::uint32_t mpi_recv = tr.name("mpi.recv");
  std::uint32_t mpi_rtt = tr.name("mpi.rtt");
  std::uint32_t ofi_tsend = tr.name("ofi.tsend");
  std::uint32_t ofi_trecv = tr.name("ofi.trecv_sync");
  std::uint32_t ofi_rtt = tr.name("ofi.rtt");
  std::uint32_t nic_send = tr.name("hsn.nic.post_send");
  std::uint32_t nic_wait = tr.name("hsn.nic.wait_rx");
  std::uint32_t nic_rtt = tr.name("hsn.nic.rtt");
  std::uint32_t stream_send = tr.name("mpi.send.stream");
  std::uint32_t stream_recv = tr.name("mpi.recv.stream");
};

struct RankStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t failed = 0;  ///< sends and receives that returned an error
  std::uint64_t stream_msgs = 0;
  /// Streaming messages per host second, one entry per round.
  Samples stream_rates{0};
  std::int64_t bulk_rtt_ns = 0;
  std::uint64_t bulk_rtts = 0;
  std::size_t unexpected_max = 0;
  Samples rtt_us{0};
  std::vector<std::string> violations;
  void violate(std::string v) {
    if (violations.size() < 32) violations.push_back(std::move(v));
  }
};

/// One rank's side of a round.  Rank 0 leads (ping, streams data);
/// rank 1 follows (pong, receives and acks).
class Rank {
 public:
  Rank(App& app, int me, RankTrace* trace)
      : app_(app), me_(me), peer_(1 - me), ctx_(app.comm->rank(me)),
        trace_(trace) {}

  RankStats& stats() { return st_; }
  SimTime vt() const { return ctx_.vt(); }

  bool send(std::uint32_t tag, std::span<const std::byte> data,
            std::uint64_t size, std::uint32_t span = kNoSpan) {
    Status s;
    if (trace_ != nullptr && span != kNoSpan) {
      Span sp(trace_->tr, span, st_.sent);
      s = ctx_.send(peer_, tag, data, size);
    } else {
      s = ctx_.send(peer_, tag, data, size);
    }
    ++st_.sent;
    if (!s.is_ok()) fail("send failed: " + s.to_string());
    return s.is_ok();
  }

  /// Receives on `tag`, checks size (and the sequence number when the
  /// message carries data).
  bool recv(std::uint32_t tag, std::uint64_t size, std::uint64_t seq,
            bool with_data, std::uint32_t span = kNoSpan) {
    buf_.resize(std::max<std::uint64_t>(size, 8));
    std::span<std::byte> into(buf_.data(), with_data ? size : 0);
    ++st_.recv_calls;
    Result<mpi::RecvInfo> r = [&] {
      if (trace_ != nullptr && span != kNoSpan) {
        Span sp(trace_->tr, span, seq);
        return ctx_.recv(peer_, tag, into, kTimeoutMs);
      }
      return ctx_.recv(peer_, tag, into, kTimeoutMs);
    }();
    if (!r.is_ok()) {
      fail("recv on tag " + std::to_string(tag) +
           " failed: " + r.status().to_string());
      return false;
    }
    ++st_.received;
    const std::uint64_t got_seq = with_data ? load_u64(buf_.data()) : seq;
    const std::string err =
        checks::message_matches(size, seq, r.value().size, got_seq);
    if (!err.empty()) st_.violate(err);
    if (with_data && size > 8) {
      fill_payload(want_, size, seq, app_.key);
      const std::string e2 = checks::bytes_match(
          std::span<const std::byte>(buf_.data(), size), want_,
          "stream payload", seq);
      if (!e2.empty()) st_.violate(e2);
    }
    return err.empty();
  }

  /// Phase 1 at the mpi entry point; `bulk` times the batch with one
  /// clock pair and no spans.
  void pingpong_mpi(std::uint64_t round, bool bulk) {
    const bool spans = trace_ != nullptr && !bulk;
    const std::int64_t t_batch = now_ns();
    for (int i = 0; i < kPings; ++i) {
      const std::uint64_t seq = round * kPings + static_cast<std::uint64_t>(i);
      std::array<std::byte, 8> ping{};
      store_u64(ping.data(), seq);
      if (me_ == 0) {
        const std::int64_t t0 = now_ns();
        std::optional<Span> rtt;
        if (spans) rtt.emplace(trace_->tr, trace_->mpi_rtt, seq);
        send(kPingTag, ping, 8, spans ? trace_->mpi_send : kNoSpan);
        recv(kPongTag, 8, seq, true, spans ? trace_->mpi_recv : kNoSpan);
        rtt.reset();
        if (trace_ == nullptr) {
          st_.rtt_us.add(static_cast<double>(now_ns() - t0) / 1e3);
        }
      } else {
        recv(kPingTag, 8, seq, true, spans ? trace_->mpi_recv : kNoSpan);
        send(kPongTag, ping, 8, spans ? trace_->mpi_send : kNoSpan);
      }
    }
    if (bulk && me_ == 0) {
      st_.bulk_rtt_ns += now_ns() - t_batch;
      st_.bulk_rtts += kPings;
    }
  }

  /// Phase 1 at the ofi entry point (traced runs).
  void pingpong_ofi(std::uint64_t round) {
    ofi::Endpoint& ep = *app_.ep[me_];
    const ofi::FiAddr peer = app_.ep[peer_]->addr();
    for (int i = 0; i < kPings; ++i) {
      const std::uint64_t tag = kRawTag | (round * kPings + i);
      const auto leg = [&](bool sending) {
        if (sending) {
          Span sp(trace_->tr, trace_->ofi_tsend, tag);
          auto r = ep.tsend(peer, tag, {}, 8, ofi_vt_);
          if (r.is_ok()) ofi_vt_ = r.value();
          if (!r.is_ok()) fail("tsend failed: " + r.status().to_string());
          ++st_.sent;
        } else {
          Span sp(trace_->tr, trace_->ofi_trecv, tag);
          ++st_.recv_calls;
          auto r = ep.trecv_sync(tag, {}, kTimeoutMs);
          if (!r.is_ok()) {
            fail("ofi ping-pong receive failed: " + r.status().to_string());
          } else if (r.value().tag != tag || r.value().size != 8) {
            st_.violate("ofi ping-pong message mismatched");
          } else {
            ++st_.received;
            ofi_vt_ = std::max(ofi_vt_, r.value().vt);
          }
        }
      };
      if (me_ == 0) {
        Span rtt(trace_->tr, trace_->ofi_rtt, tag);
        leg(true);
        leg(false);
      } else {
        leg(false);
        leg(true);
      }
    }
  }

  /// Phase 1 at the NIC entry point (traced runs): the pods' hardware
  /// endpoints, below ofi matching.
  void pingpong_nic(std::uint64_t round) {
    hsn::CassiniNic& nic = *app_.nic[me_];
    const ofi::FiAddr self = app_.ep[me_]->addr();
    const ofi::FiAddr peer = app_.ep[peer_]->addr();
    for (int i = 0; i < kPings; ++i) {
      const std::uint64_t tag = kRawTag | (1ULL << 59) | (round * kPings + i);
      const auto leg = [&](bool sending) {
        if (sending) {
          Span sp(trace_->tr, trace_->nic_send, tag);
          auto r = nic.post_send(self.ep, peer.nic, peer.ep, tag, 8, {},
                                 nic_vt_);
          if (r.is_ok()) nic_vt_ = r.value();
          if (!r.is_ok()) {
            fail("NIC post_send failed: " + r.status().to_string());
          }
          ++st_.sent;
        } else {
          Span sp(trace_->tr, trace_->nic_wait, tag);
          ++st_.recv_calls;
          auto p = nic.wait_rx(self.ep, kTimeoutMs);
          if (!p.is_ok()) {
            fail("NIC ping-pong receive failed: " + p.status().to_string());
          } else if (p.value().tag != tag) {
            st_.violate("NIC ping-pong packet mismatched");
          } else {
            ++st_.received;
          }
        }
      };
      if (me_ == 0) {
        Span rtt(trace_->tr, trace_->nic_rtt, tag);
        leg(true);
        leg(false);
      } else {
        leg(false);
        leg(true);
      }
    }
  }

  /// Phase 2: windowed streaming, tags received out of send order.
  void stream(std::uint64_t round) {
    const bool spans = trace_ != nullptr;
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < kStreamSizes.size(); ++s) {
      const std::uint64_t size = kStreamSizes[s];
      const bool with_data = size <= kMaxDataBytes;
      const std::uint64_t base =
          (round * kStreamSizes.size() + s) * kWindow;
      if (me_ == 0) {
        for (int j = 0; j < kWindow; ++j) {
          const std::uint64_t seq = base + static_cast<std::uint64_t>(j);
          if (with_data) fill_payload(out_, size, seq, app_.key);
          send(kStreamTag0 + static_cast<std::uint32_t>(j % kStreamTags),
               with_data ? std::span<const std::byte>(out_)
                         : std::span<const std::byte>(),
               size, spans ? trace_->stream_send : kNoSpan);
        }
        recv(kAckTag, 4, 0, false);
        st_.stream_msgs += kWindow;
      } else {
        for (int t = 0; t < kStreamTags; ++t) {
          for (int j = t; j < kWindow; j += kStreamTags) {
            recv(kStreamTag0 + static_cast<std::uint32_t>(t), size,
                 base + static_cast<std::uint64_t>(j), with_data,
                 spans ? trace_->stream_recv : kNoSpan);
            st_.unexpected_max =
                std::max(st_.unexpected_max, app_.ep[me_]->unexpected_depth());
          }
        }
        send(kAckTag, {}, 4);
      }
    }
    st_.stream_rates.add(
        per_second(kStreamSizes.size() * kWindow, now_ns() - t0));
  }

  /// Rank 0: tells rank 1 what comes next.  Rank 1: learns it.
  Ctrl ctrl(Ctrl what) {
    std::array<std::byte, 8> msg{};
    if (me_ == 0) {
      store_u64(msg.data(), what);
      send(kCtrlTag, msg, 8);
      return what;
    }
    buf_.resize(8);
    ++st_.recv_calls;
    auto r = ctx_.recv(peer_, kCtrlTag, std::span<std::byte>(buf_.data(), 8),
                       kTimeoutMs);
    if (!r.is_ok()) {
      fail("control message lost: " + r.status().to_string());
      return kStop;
    }
    ++st_.received;
    return static_cast<Ctrl>(load_u64(buf_.data()));
  }

  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

 private:
  /// A send or receive that returned an error: counted and reported.
  void fail(std::string what) {
    ++st_.failed;
    st_.violate(std::move(what));
  }

  App& app_;
  int me_;
  int peer_;
  mpi::RankContext& ctx_;
  RankTrace* trace_;
  RankStats st_;
  std::vector<std::byte> buf_;
  std::vector<std::byte> want_;
  std::vector<std::byte> out_;
  SimTime ofi_vt_ = 0;
  SimTime nic_vt_ = 0;
};

/// Phase 1 again at the ladder's other entry points (traced rounds): a
/// bulk-timed mpi batch, then ofi, then the NIC.
void run_phase1_rungs(Rank& r, std::uint64_t round) {
  r.pingpong_mpi(round, /*bulk=*/true);
  r.pingpong_ofi(round);
  r.pingpong_nic(round);
}

/// One round for either rank.
void run_round(Rank& r, std::uint64_t round, bool traced) {
  r.pingpong_mpi(round, /*bulk=*/false);
  if (traced) run_phase1_rungs(r, round);
  r.stream(round);
}

const k8s::Pod* running(const std::vector<k8s::Pod>& pods, std::size_t i) {
  std::size_t seen = 0;
  for (const auto& p : pods) {
    if (p.status.phase != k8s::PodPhase::kRunning) continue;
    if (seen++ == i) return &p;
  }
  return nullptr;
}

}  // namespace

RunResult run_app_pingpong(const Options& opt) {
  RunResult res;
  App app;
  core::StackConfig cfg;
  cfg.seed = 0xa9900000ULL + opt.seed;
  app.stack = std::make_unique<core::SlingshotStack>(cfg);
  app.key = opt.seed * 0x9e3779b97f4a7c15ULL + 0x51;
  core::SlingshotStack& stack = *app.stack;

  auto job_a = stack.submit_job({.name = "pingpong",
                                 .vni_annotation = "true",
                                 .pods = 2,
                                 .run_duration = 3600 * kSecond,
                                 .spread_key = "pingpong"});
  auto job_b = stack.submit_job({.name = "other-tenant",
                                 .ns = "tenant-b",
                                 .vni_annotation = "true",
                                 .pods = 1,
                                 .run_duration = 3600 * kSecond});
  if (!job_a.is_ok() || !job_b.is_ok() ||
      !stack.wait_job_start(job_a.value()) ||
      !stack.wait_job_start(job_b.value())) {
    res.violate("jobs were not admitted");
    return res;
  }
  // wait_job_start returns once the first pod runs; wait for all three.
  const auto all_running = [&] {
    return running(stack.pods_of_job(job_a.value()), 1) != nullptr &&
           running(stack.pods_of_job(job_b.value()), 0) != nullptr;
  };
  if (!stack.run_until(all_running, 120 * kSecond)) {
    res.violate("pods never all ran");
    return res;
  }
  const auto pods_a = stack.pods_of_job(job_a.value());
  const auto pods_b = stack.pods_of_job(job_b.value());
  const k8s::Pod* a0 = running(pods_a, 0);
  const k8s::Pod* a1 = running(pods_a, 1);
  const k8s::Pod* b0 = running(pods_b, 0);
  if (a0 == nullptr || a1 == nullptr || b0 == nullptr ||
      a0->status.node == a1->status.node) {
    res.violate("pods not running on two nodes");
    return res;
  }
  const hsn::Vni vni_a = a0->status.vni;
  auto h0 = stack.exec_in_pod(a0->meta.uid);
  auto h1 = stack.exec_in_pod(a1->meta.uid);
  auto hb = stack.exec_in_pod(b0->meta.uid);
  if (!h0.is_ok() || !h1.is_ok() || !hb.is_ok()) {
    res.violate("exec_in_pod failed");
    return res;
  }
  auto dom0 = stack.domain_for(h0.value());
  auto dom1 = stack.domain_for(h1.value());
  auto domb = stack.domain_for(hb.value());
  if (!dom0.is_ok() || !dom1.is_ok() || !domb.is_ok()) {
    res.violate("domain_for failed");
    return res;
  }
  std::vector<double> open_ns;
  const auto open_timed = [&](ofi::Domain& d, hsn::Vni v) {
    const std::int64_t t0 = now_ns();
    auto ep = d.open_endpoint(v);
    open_ns.push_back(static_cast<double>(now_ns() - t0));
    return ep;
  };
  auto e0 = open_timed(dom0.value(), vni_a);
  auto e1 = open_timed(dom1.value(), vni_a);
  auto eb = domb.value().open_endpoint(b0->status.vni);
  if (!e0.is_ok() || !e1.is_ok() || !eb.is_ok()) {
    res.violate("open_endpoint failed in a pod");
    return res;
  }
  app.ep[0] = std::move(e0).value();
  app.ep[1] = std::move(e1).value();
  for (int i = 0; i < 2; ++i) {
    app.nic[i] = &stack.fabric().nic(app.ep[i]->addr().nic);
  }

  // Isolation: tenant B can neither open an endpoint on A's VNI nor
  // reach A's endpoint from its own.
  if (domb.value().open_endpoint(vni_a).is_ok()) {
    res.violate("a second tenant's pod opened an endpoint on the first "
                "tenant's VNI");
  }
  const hsn::NicCounters nc0 = app.ep[1]->nic_counters();
  const hsn::SwitchCounters sc0 = stack.fabric().total_counters();
  auto cross = eb.value()->tsend(app.ep[1]->addr(), kRawTag | 0xbad, {}, 8, 0);
  auto leaked = app.ep[1]->trecv_sync(kRawTag | 0xbad, {}, 0);
  const hsn::NicCounters nc1 = app.ep[1]->nic_counters();
  const hsn::SwitchCounters sc1 = stack.fabric().total_counters();
  const bool refused =
      !cross.is_ok() ||
      sc1.dropped_dst_unauthorized > sc0.dropped_dst_unauthorized ||
      nc1.rx_vni_mismatch > nc0.rx_vni_mismatch;
  if (leaked.is_ok() || !refused) {
    res.violate("a second tenant's endpoint reached the first tenant's");
  }
  // A process outside the pod's network namespace (host netns, unprivileged
  // uid) cannot open an endpoint on the pod's VNI.
  {
    core::SlingshotStack::Node& node = stack.node(h0.value().node_index);
    linuxsim::SpawnOptions so;
    so.creds.uid = 1000;
    so.creds.gid = 1000;
    auto outsider = node.kernel->spawn(so);
    ofi::Domain dom_out(*node.driver, stack.fabric().nic(node.nic),
                        stack.fabric().timing(), outsider->pid());
    if (dom_out.open_endpoint(vni_a).is_ok()) {
      res.violate("a process outside the pod's netns opened an endpoint on "
                  "its VNI");
    }
  }

  std::optional<RankTrace> trace0;  // traced runs only: tracers calibrate
  std::optional<RankTrace> trace1;
  if (opt.trace) {
    trace0.emplace();
    trace1.emplace();
    // cxi.open_endpoint_ns: more authenticated opens on the pod's domain.
    for (int i = 0; i < 64; ++i) {
      auto ep = open_timed(dom0.value(), vni_a);
      if (!ep.is_ok()) res.violate("repeated open_endpoint failed");
    }
  }
  app.comm = mpi::Communicator::create({app.ep[0].get(), app.ep[1].get()});

  Rank r0(app, 0, trace0 ? &*trace0 : nullptr);
  Rank r1(app, 1, trace1 ? &*trace1 : nullptr);
  // Per-second capacities leave 2x headroom over this host's rates.
  r0.stats().rtt_us = Samples(static_cast<std::size_t>(opt.seconds * 32e3) + 1024);
  r0.stats().stream_rates = Samples(static_cast<std::size_t>(opt.seconds * 1e3) + 1024);
  bool pinned1 = false;
  std::thread peer([&] {
    pinned1 = pin_this_thread(1);
    std::uint64_t round = 0;
    for (;;) {
      const Ctrl c = r1.ctrl(kStop);
      if (c == kStop) break;
      run_round(r1, round, c == kTracedRound);
      ++round;
    }
  });
  const bool pinned0 = pin_this_thread(0);
  // NIC drop counters before the rounds (the isolation probe above may
  // already have counted a refused send on a shared NIC).
  const hsn::NicCounters d0 = app.ep[0]->nic_counters();
  const hsn::NicCounters d1 = app.ep[1]->nic_counters();

  const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::uint64_t max_rounds = opt.tiny ? 3 : ~0ULL;
  std::uint64_t round = 0;
  SimTime ping_vt0 = 0;
  SimTime ping_vt1 = 0;
  SimTime bw_vt0 = 0;
  SimTime bw_vt1 = 0;
  // Set-up ends here: everything above, from process start, is setup_s.
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) / 1e9;
  const std::int64_t t_begin = now_ns();
  while (now_ns() - t_begin < budget_ns && round < max_rounds &&
         r0.stats().violations.empty()) {
    r0.ctrl(opt.trace ? kTracedRound : kRound);
    if (round == 0) {
      // Modeled figures come from the first round only: its phase 1
      // precedes any streaming, so its virtual clock is the same whatever
      // the run length.
      ping_vt0 = r0.vt();
      r0.pingpong_mpi(round, false);
      ping_vt1 = r0.vt();
      if (opt.trace) run_phase1_rungs(r0, round);
      bw_vt0 = r0.vt();
      r0.stream(round);
      bw_vt1 = r0.vt();
    } else {
      run_round(r0, round, opt.trace);
    }
    ++round;
  }
  r0.ctrl(kStop);
  peer.join();

  RankStats& s0 = r0.stats();
  RankStats& s1 = r1.stats();
  for (const auto& v : s0.violations) res.violate("rank 0: " + v);
  for (const auto& v : s1.violations) res.violate("rank 1: " + v);
  // Conservation at the ofi/mpi boundary: every message one rank posted
  // was received by the other, and no NIC counted a drop.
  res.expect(checks::conserved("rank 0 -> rank 1", s0.sent, s1.received, 0));
  res.expect(checks::conserved("rank 1 -> rank 0", s1.sent, s0.received, 0));
  const hsn::NicCounters n0 = app.ep[0]->nic_counters();
  const hsn::NicCounters n1 = app.ep[1]->nic_counters();
  if (n0.tx_dropped - d0.tx_dropped + n1.tx_dropped - d1.tx_dropped != 0 ||
      n0.rx_overflow - d0.rx_overflow + n1.rx_overflow - d1.rx_overflow != 0) {
    res.violate("the application path dropped packets");
  }

  // Modeled latency and bandwidth against analytic bounds.
  const hsn::TimingConfig& tc = stack.fabric().timing()->config();
  const double shrink = (1.0 - tc.jitter_amplitude) *
                        (1.0 - tc.run_bias_amplitude);
  const double leg_floor_us =
      to_micros(tc.tx_overhead + tc.hop_latency + tc.rx_overhead) * shrink +
      8.0 * 8.0 / static_cast<double>(tc.link_rate.bps()) * 1e6;
  const double sim_latency_us =
      to_micros(ping_vt1 - ping_vt0) / (2.0 * kPings);
  const double link_MBps = static_cast<double>(tc.link_rate.bps()) / 8.0 / 1e6;
  double stream_bytes = 0;
  for (const std::uint64_t sz : kStreamSizes) {
    stream_bytes += static_cast<double>(sz) * kWindow;
  }
  const double sim_bw_MBps =
      bw_vt1 > bw_vt0 ? stream_bytes / to_seconds(bw_vt1 - bw_vt0) / 1e6 : 0.0;
  if (round > 0) {
    res.expect(checks::model_bound(sim_latency_us, leg_floor_us, true,
                                   "modeled one-way 8 B latency (us)"));
    res.expect(checks::model_bound(sim_bw_MBps, link_MBps, false,
                                   "modeled streaming bandwidth (MB/s)"));
  }

  // An op is one send or receive call of either rank.
  res.attempted = s0.sent + s1.sent + s0.recv_calls + s1.recv_calls;
  res.failed = s0.failed + s1.failed;
  res.info.push_back(
      "rounds " + std::to_string(round) + ", stream msgs " +
      std::to_string(s0.stream_msgs) + ", rtt samples " +
      std::to_string(s0.rtt_us.offered()) + ", pinned " +
      (pinned0 && pinned1 ? "yes" : "no") + ", sim_bw_MBps " +
      std::to_string(sim_bw_MBps) + ", unexpected depth max " +
      std::to_string(s1.unexpected_max));
  res.info.push_back("rtt_us: " + describe_samples(s0.rtt_us.values()));
  if (!opt.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", quiet_rate(s0.stream_rates.values()), "ops/s");
    res.add("rtt_p50_us", rtt_p50(s0.rtt_us.values()), "us");
    res.add("rtt_p99_us", rtt_p99(s0.rtt_us.values()), "us");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("sim_latency_us", sim_latency_us, "us");
    return res;
  }
  Tracer& t0 = trace0->tr;
  Tracer& t1 = trace1->tr;
  // Per-leg host time at each entry point: half the round trip rank 0
  // recorded around its send and receive.
  const double rtt_mpi = t0.total_ns_per_call(trace0->mpi_rtt);
  const double leg_mpi = rtt_mpi / 2;
  const double leg_bulk =
      s0.bulk_rtts ? static_cast<double>(s0.bulk_rtt_ns) /
                         static_cast<double>(s0.bulk_rtts) / 2
                   : 0.0;
  double open_sum = 0;
  for (const double v : open_ns) open_sum += v;
  res.add("trace.ops_per_s", quiet_rate(s0.stream_rates.values()), "ops/s");
  res.add("mpi.send_ns", t0.self_ns_per_call(trace0->mpi_send), "ns");
  res.add("mpi.recv_ns", t0.self_ns_per_call(trace0->mpi_recv), "ns");
  res.add("ofi.tsend_ns", t0.self_ns_per_call(trace0->ofi_tsend), "ns");
  res.add("ofi.trecv_ns", t0.self_ns_per_call(trace0->ofi_trecv), "ns");
  res.add("ofi.handoff_ns",
          (rtt_mpi - t0.self_ns_per_call(trace0->mpi_send) -
           t1.self_ns_per_call(trace1->mpi_send)) /
              2,
          "ns");
  res.add("ofi.unexpected_depth_max", static_cast<double>(s1.unexpected_max),
          "count");
  res.add("mpi.ladder.gap_share",
          leg_bulk > 0 ? (leg_mpi - leg_bulk) / leg_bulk : 0.0, "share");
  res.add("mpi.sim_bw_MBps", sim_bw_MBps, "MB/s");
  res.add("hsn.nic.post_send_ns", t0.self_ns_per_call(trace0->nic_send), "ns");
  res.add("cxi.open_endpoint_ns",
          open_ns.empty() ? 0.0 : open_sum / static_cast<double>(open_ns.size()),
          "ns");
  const double leg_ofi = t0.total_ns_per_call(trace0->ofi_rtt) / 2;
  const double leg_nic = t0.total_ns_per_call(trace0->nic_rtt) / 2;
  res.info.push_back("ladder per leg: mpi " + std::to_string(leg_mpi) +
                     " ns (self " + std::to_string(leg_mpi - leg_ofi) +
                     "), ofi " + std::to_string(leg_ofi) + " ns (self " +
                     std::to_string(leg_ofi - leg_nic) + "), NIC " +
                     std::to_string(leg_nic) + " ns; bulk mpi leg " +
                     std::to_string(leg_bulk) + " ns");
  const std::string path = span_dump_path(opt);
  if (!t0.dump(path, "rank0") || !t1.dump(path, "rank1")) {
    res.violate("could not write the span dump");
  }
  return res;
}

}  // namespace perfbench
