#include "checks.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench::checks {

namespace {
std::string num(std::uint64_t v) { return std::to_string(v); }
}  // namespace

std::string exactly_once(std::span<const std::uint32_t> seen,
                         std::span<const std::uint8_t> probe) {
  if (seen.size() != probe.size()) return "exactly_once: size mismatch";
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const std::uint32_t want = probe[i] ? 0 : 1;
    if (seen[i] != want) {
      return "op " + num(i) + (probe[i] ? " (cross-tenant probe)" : "") +
             " received " + num(seen[i]) + " times, expected " + num(want);
    }
  }
  return {};
}

std::string arrival_not_before(std::int64_t arrival_vt, std::int64_t bound_vt,
                               std::uint64_t op) {
  if (arrival_vt >= bound_vt) return {};
  return "op " + num(op) + " arrived at vt " + std::to_string(arrival_vt) +
         " ns, before its lower bound " + std::to_string(bound_vt) + " ns";
}

std::string probe_refused(shs::hsn::DropReason reason, std::uint64_t op) {
  if (reason == shs::hsn::DropReason::kSrcNotAuthorized ||
      reason == shs::hsn::DropReason::kDstNotAuthorized) {
    return {};
  }
  return "probe " + num(op) + " not refused for authorization (reason " +
         shs::hsn::drop_reason_name(reason) + ")";
}

std::string conserved(const char* where, std::uint64_t attempts,
                      std::uint64_t delivered, std::uint64_t drops) {
  if (attempts == delivered + drops) return {};
  return std::string(where) + ": attempts " + num(attempts) +
         " != delivered " + num(delivered) + " + drops " + num(drops);
}

std::string bytes_match(std::span<const std::byte> got,
                        std::span<const std::byte> want, const char* what,
                        std::uint64_t op) {
  if (got.size() != want.size()) {
    return std::string(what) + " of op " + num(op) + ": " + num(got.size()) +
           " bytes, expected " + num(want.size());
  }
  if (!want.empty() && std::memcmp(got.data(), want.data(), want.size()) != 0) {
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    return std::string(what) + " of op " + num(op) + " differs at byte " +
           num(static_cast<std::uint64_t>(diff.first - got.begin()));
  }
  return {};
}

std::string digests_equal(std::uint64_t a, std::uint64_t b,
                          const char* what) {
  if (a == b) return {};
  return std::string(what) + ": digest " + num(a) + " != " + num(b);
}

std::string message_matches(std::uint64_t want_size, std::uint64_t want_seq,
                            std::uint64_t got_size, std::uint64_t got_seq) {
  if (got_size != want_size) {
    return "message " + num(want_seq) + " has size " + num(got_size) +
           ", expected " + num(want_size);
  }
  if (got_seq != want_seq) {
    return "message carries seq " + num(got_seq) + ", expected " +
           num(want_seq);
  }
  return {};
}

std::string model_bound(double value, double bound, bool at_least,
                        const char* what) {
  if (at_least ? value >= bound : value <= bound) return {};
  return std::string(what) + " " + std::to_string(value) +
         (at_least ? " below its lower bound " : " above its upper bound ") +
         std::to_string(bound);
}

std::string admitted_once(std::span<const JobTrace> jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].started != 1 || jobs[i].removed != 1) {
      return "job " + num(i) + " started " + num(jobs[i].started) +
             " times and was removed " + num(jobs[i].removed) + " times";
    }
  }
  return {};
}

std::string vni_exclusive(std::span<const JobTrace> jobs) {
  std::vector<const JobTrace*> own;
  for (const JobTrace& j : jobs) {
    if (!j.per_job_vni) continue;
    if (j.vni == 0) return "a per-job-VNI job ran without a VNI";
    own.push_back(&j);
  }
  std::sort(own.begin(), own.end(), [](const JobTrace* a, const JobTrace* b) {
    return a->vni != b->vni ? a->vni < b->vni : a->start_vt < b->start_vt;
  });
  for (std::size_t i = 0; i + 1 < own.size(); ++i) {
    const JobTrace& a = *own[i];
    const JobTrace& b = *own[i + 1];
    if (a.vni == b.vni && b.start_vt <= a.end_vt) {
      return "VNI " + num(a.vni) + " held by two running jobs at vt " +
             std::to_string(b.start_vt);
    }
  }
  return {};
}

std::string claims_shared(std::span<const JobTrace> jobs,
                          std::span<const std::uint32_t> claim_vni) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobTrace& j = jobs[i];
    if (j.claim < 0) continue;
    const auto c = static_cast<std::size_t>(j.claim);
    if (c >= claim_vni.size() || claim_vni[c] == 0 ||
        j.vni != claim_vni[c]) {
      return "job " + num(i) + " on claim " + num(c) + " ran with VNI " +
             num(j.vni) + ", claim holds " +
             num(c < claim_vni.size() ? claim_vni[c] : 0);
    }
  }
  return {};
}

std::string registry_restored(std::size_t before, std::size_t after) {
  if (before == after) return {};
  return "registry allocated_count " + num(after) + " after the drain, " +
         num(before) + " before";
}

}  // namespace perfbench::checks
