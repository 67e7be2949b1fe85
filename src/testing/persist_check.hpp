// Kill-restart oracle for the durable capture store.
//
// Runs a scenario with persistence enabled and tears the whole deployment
// down at a seed-fuzzed sim-time (a mid-step kill -9: no checkpoint, no
// shutdown hook). Right before the kill, seeded subsets of seeds commit
// raw-tier purges through a workspace purge (left undemoted) or run a
// retention pass that erases the older captures and demotes the rest.
// Then every query answer the store can give is snapshotted, a fresh
// deployment boots on the same directory, and recovery must reproduce the
// snapshot byte for byte. Most seeds also plant a file a crash could have
// left at one of the store's write points — a torn next manifest, a
// capture image in a segment no manifest lists, or a `.tmp` leftover —
// which recovery must ignore and collect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace blab::testing {

/// A file planted in the store directory between the kill and the restart.
enum class PlantedFile {
  kNone,
  kManifest,  ///< garbage manifest-<v+1>: recovery falls back to v
  kSegment,   ///< a capture image in a seg-r-<n>.blsg no manifest lists
  kTmp,       ///< garbage `.tmp` leftover of an interrupted write
};
const char* planted_file_name(PlantedFile planted);

struct CrashRecoveryReport {
  std::uint64_t seed = 0;
  bool ok = false;
  int kill_step = 0;            ///< full steps completed before the kill
  std::size_t drops = 0;        ///< raw purges committed before the kill
  std::size_t erases = 0;       ///< captures retention erased before it
  PlantedFile planted = PlantedFile::kNone;
  std::size_t captures = 0;     ///< records covered by the snapshot
  std::uint64_t recovered = 0;  ///< records the restart recovered
  std::string detail;           ///< first divergence, when !ok

  std::string describe() const;
};

/// Run the kill/restart/compare cycle for one seed. `dir` must be usable as
/// a fresh persistence root (created if absent, removed on success).
CrashRecoveryReport check_crash_recovery(std::uint64_t seed,
                                         const std::string& dir);

/// check_crash_recovery across a corpus on a worker pool (same jobs
/// semantics as run_corpus). Each seed gets its own directory under
/// `base_dir`.
std::vector<CrashRecoveryReport> run_crash_recovery_corpus(
    const std::vector<std::uint64_t>& seeds, unsigned jobs,
    const std::string& base_dir);

}  // namespace blab::testing
