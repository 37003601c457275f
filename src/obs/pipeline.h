// Ingest pipeline stage attribution (ISSUE 10 tentpole).
//
// The write path's analogue of the query path's Tracer/ExplainProfile: a
// bundle of stage-labelled LatencyRecorders that decompose each append's
// Submit -> reader-visibility latency into five stages, measured on the
// injectable cdb::Clock by the IngestQueue writer:
//
//   admission   Submit() to the writer opening the append's group
//               (time spent queued before any writer attention);
//   group_wait  group open to group drain (the commit-wait window /
//               batching delay; zero for the append that filled the group);
//   apply       Relation::Insert + DualIndex::Insert for the whole group;
//   fsync       the group's single journal commit;
//   publish     PublishAppends epoch barrier + index-pager commit, after
//               which a read session can observe the tuple.
//
// The stage anchors telescope: with s = submit time and anchor =
// max(s, group open), admission + group_wait + apply + fsync + publish ==
// visibility *exactly* in integer nanoseconds — the write-path counterpart
// of ExplainProfile::SumsBalance(), re-proven per sampled group by
// IngestGroupProfile::Balances() and enforced at runtime the way sampled
// ExplainProfiles are (DESIGN.md §2j).
//
// Sampling mirrors TraceSampler over group sequence numbers: sampled
// groups additionally keep an IngestGroupProfile (bounded ring of the most
// recent kMaxSampledProfiles) that converts to an ExplainProfile for the
// existing Chrome-trace exporter, so write-path timelines render in the
// same tooling as query traces.

#ifndef CDB_OBS_PIPELINE_H_
#define CDB_OBS_PIPELINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.h"
#include "obs/trace.h"

namespace cdb {
namespace obs {

class MetricsRegistry;

/// The five write-path stages, in pipeline order.
enum class IngestStage : int {
  kAdmission = 0,
  kGroupWait = 1,
  kApply = 2,
  kFsync = 3,
  kPublish = 4,
};
inline constexpr int kIngestStageCount = 5;

/// Stable lower_snake_case stage name used in metric prefixes, bench row
/// labels and trace span names.
std::string_view IngestStageName(IngestStage stage);

/// Why a group left the assembly window (flight-recorder payload c of
/// kGroupCommitted, and the commits_full/commits_deadline/commits_drain
/// ledger in IngestQueueStats).
enum class IngestCommitTrigger : uint64_t {
  kFull = 0,      ///< Group reached max_group_size.
  kDeadline = 1,  ///< commit_wait_ns expired on a partial group.
  kDrain = 2,     ///< Greedy batching (no wait window) or close-time drain.
};

/// Per-group stage breakdown: stage_ns[i] sums stage i across the group's
/// appends, visibility_ns sums their end-to-end latencies.
struct IngestGroupProfile {
  uint64_t group_seq = 0;
  uint64_t appends = 0;
  std::array<uint64_t, kIngestStageCount> stage_ns{};
  uint64_t visibility_ns = 0;

  /// The telescoping invariant: the five stage sums reproduce the
  /// end-to-end visibility sum exactly (integer nanoseconds; the stages
  /// partition [submit, visible] per append by construction).
  bool Balances() const;

  /// Renders the group as a phase tree ("ingest.group" root, one child
  /// per stage) for the Chrome-trace exporter. Wall time only — the
  /// pipeline moves tuples, not pages, so all I/O slots stay zero and
  /// SumsBalance() holds trivially.
  ExplainProfile ToExplainProfile() const;
};

/// See file comment. Thread-safety matches the IngestQueue contract: the
/// stage recorders are wait-free (any thread), the sampled-profile ring is
/// mutex-guarded, and RecordAppend/AddGroupProfile run on the single
/// writer thread.
class IngestPipelineRecorders {
 public:
  /// Most recent sampled profiles kept for trace export.
  static constexpr size_t kMaxSampledProfiles = 64;

  /// `sample_every`/`sample_seed` feed a TraceSampler over group sequence
  /// numbers (0 disables sampling; recorders still populate).
  explicit IngestPipelineRecorders(uint64_t sample_every = 0,
                                   uint64_t sample_seed = 0);
  IngestPipelineRecorders(const IngestPipelineRecorders&) = delete;
  IngestPipelineRecorders& operator=(const IngestPipelineRecorders&) = delete;

  LatencyRecorder& stage(IngestStage s) {
    return stages_[static_cast<size_t>(s)];
  }
  const LatencyRecorder& stage(IngestStage s) const {
    return stages_[static_cast<size_t>(s)];
  }
  /// End-to-end Submit -> reader-visibility digest.
  LatencyRecorder& visibility() { return visibility_; }
  const LatencyRecorder& visibility() const { return visibility_; }

  /// Records one append's five stage durations plus its end-to-end
  /// visibility latency into the digests.
  void RecordAppend(const std::array<uint64_t, kIngestStageCount>& stage_ns,
                    uint64_t visibility_ns);

  /// Whether group `group_seq` keeps a stored profile.
  bool ShouldSampleGroup(uint64_t group_seq) const {
    return sampler_.enabled() && sampler_.ShouldSample(group_seq);
  }

  /// Stores a sampled group's profile (ring of kMaxSampledProfiles) and
  /// re-proves the stage-sum invariant; an unbalanced profile increments
  /// unbalanced_groups() (and trips an assert in debug builds, mirroring
  /// the executor's sampled-ExplainProfile enforcement).
  void AddGroupProfile(const IngestGroupProfile& profile);

  uint64_t sampled_groups() const {
    return sampled_groups_.load(std::memory_order_relaxed);
  }
  uint64_t unbalanced_groups() const {
    return unbalanced_groups_.load(std::memory_order_relaxed);
  }

  /// Copy of the retained sampled profiles, oldest first.
  std::vector<IngestGroupProfile> SampledProfiles() const;

  /// Publishes every digest as a registry histogram,
  /// "<prefix>.stage.<name>.latency" and "<prefix>.visibility.latency",
  /// plus the gauges "<prefix>.sampled_groups" /
  /// "<prefix>.unbalanced_groups". Each call replaces what the previous
  /// one published, so calling it again never double-counts.
  void ExportMetrics(MetricsRegistry* registry,
                     const std::string& prefix) const;

  /// Chrome-trace document of the sampled group profiles (one synthetic
  /// thread per group), via the existing exporter.
  std::string TraceJson() const;

 private:
  std::array<LatencyRecorder, kIngestStageCount> stages_;
  LatencyRecorder visibility_;
  TraceSampler sampler_;
  std::atomic<uint64_t> sampled_groups_{0};
  std::atomic<uint64_t> unbalanced_groups_{0};

  mutable std::mutex mu_;  // Guards profiles_.
  std::vector<IngestGroupProfile> profiles_;
  size_t next_profile_ = 0;  // Ring cursor once profiles_ is full.
};

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_PIPELINE_H_
