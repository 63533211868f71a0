// checks.hpp — the output checks.  Each is a pure function of what the
// benchmark observed and what it computed itself from its own inputs
// (never a copy of the program's earlier output).  Each returns an empty
// string when the property holds and a description of the first
// violation otherwise, so the self-test can feed it a deliberately wrong
// input and watch it refuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hsn/rosetta_switch.hpp"

namespace perfbench::checks {

/// Exactly-once delivery: `seen[i]` counts receptions of op i of a
/// round; ops with `probe[i]` set must never be received, all others
/// exactly once.  Catches a dropped, duplicated or leaked sequence
/// number and a delivered cross-tenant probe.
std::string exactly_once(std::span<const std::uint32_t> seen,
                         std::span<const std::uint8_t> probe);

/// Virtual arrival no earlier than the analytic lower bound.
std::string arrival_not_before(std::int64_t arrival_vt, std::int64_t bound_vt,
                               std::uint64_t op);

/// A cross-tenant probe must be refused at an edge for authorization.
std::string probe_refused(shs::hsn::DropReason reason, std::uint64_t op);

/// Conservation at a boundary: attempts == delivered + drops.
std::string conserved(const char* where, std::uint64_t attempts,
                      std::uint64_t delivered, std::uint64_t drops);

/// Bytes equal the seeded pattern they were written from.
std::string bytes_match(std::span<const std::byte> got,
                        std::span<const std::byte> want, const char* what,
                        std::uint64_t op);

/// Two digests of the same traffic prefix must be equal.
std::string digests_equal(std::uint64_t a, std::uint64_t b, const char* what);

/// A message received on a tag against the one expected next there.
std::string message_matches(std::uint64_t want_size, std::uint64_t want_seq,
                            std::uint64_t got_size, std::uint64_t got_seq);

/// Modeled value against an analytic bound: `value >= bound` when
/// `at_least`, else `value <= bound`.
std::string model_bound(double value, double bound, bool at_least,
                        const char* what);

/// One admission record per job.
struct JobTrace {
  int started = 0;        ///< Running transitions seen
  int removed = 0;        ///< deletions seen
  bool per_job_vni = false;
  int claim = -1;         ///< claim index for shared-VNI jobs
  std::uint32_t vni = 0;  ///< VNI the job's pod ran with
  std::int64_t start_vt = 0;
  std::int64_t end_vt = 0;
};

/// Every job admitted exactly once and removed exactly once.
std::string admitted_once(std::span<const JobTrace> jobs);
/// No two per-job-VNI jobs whose [start, end] overlap hold one VNI.
std::string vni_exclusive(std::span<const JobTrace> jobs);
/// Jobs naming claim c all ran with claim_vni[c].
std::string claims_shared(std::span<const JobTrace> jobs,
                          std::span<const std::uint32_t> claim_vni);
/// The registry's allocation count is back where it started.
std::string registry_restored(std::size_t before, std::size_t after);

}  // namespace perfbench::checks
