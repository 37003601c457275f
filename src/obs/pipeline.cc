#include "obs/pipeline.h"

#include <cassert>

#include "obs/export.h"
#include "obs/metrics.h"

namespace cdb {
namespace obs {

std::string_view IngestStageName(IngestStage stage) {
  switch (stage) {
    case IngestStage::kAdmission:
      return "admission";
    case IngestStage::kGroupWait:
      return "group_wait";
    case IngestStage::kApply:
      return "apply";
    case IngestStage::kFsync:
      return "fsync";
    case IngestStage::kPublish:
      return "publish";
  }
  return "unknown";
}

bool IngestGroupProfile::Balances() const {
  uint64_t sum = 0;
  for (uint64_t ns : stage_ns) sum += ns;
  return sum == visibility_ns;
}

ExplainProfile IngestGroupProfile::ToExplainProfile() const {
  ExplainProfile profile;
  profile.root.name = "ingest.group";
  profile.root.invocations = 1;
  for (int i = 0; i < kIngestStageCount; ++i) {
    ProfileNode child;
    child.name = std::string(IngestStageName(static_cast<IngestStage>(i)));
    child.invocations = appends;
    child.self.wall_ms = static_cast<double>(stage_ns[i]) / 1e6;
    profile.root.children.push_back(std::move(child));
  }
  profile.totals.wall_ms = static_cast<double>(visibility_ns) / 1e6;
  return profile;
}

IngestPipelineRecorders::IngestPipelineRecorders(uint64_t sample_every,
                                                uint64_t sample_seed)
    : sampler_(sample_every, sample_seed) {}

void IngestPipelineRecorders::RecordAppend(
    const std::array<uint64_t, kIngestStageCount>& stage_ns,
    uint64_t visibility_ns) {
  for (int i = 0; i < kIngestStageCount; ++i) {
    stages_[i].RecordNanos(stage_ns[i]);
  }
  visibility_.RecordNanos(visibility_ns);
}

void IngestPipelineRecorders::AddGroupProfile(
    const IngestGroupProfile& profile) {
  sampled_groups_.fetch_add(1, std::memory_order_relaxed);
  const bool balanced = profile.Balances();
  // Same posture as the executor's sampled ExplainProfiles: a sampled
  // profile that fails its balance invariant is an attribution bug, not a
  // measurement artifact — fail loudly in debug builds, count in release.
  assert(balanced && "sampled ingest group profile failed stage-sum balance");
  if (!balanced) {
    unbalanced_groups_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (profiles_.size() < kMaxSampledProfiles) {
    profiles_.push_back(profile);
  } else {
    profiles_[next_profile_] = profile;
    next_profile_ = (next_profile_ + 1) % kMaxSampledProfiles;
  }
}

std::vector<IngestGroupProfile> IngestPipelineRecorders::SampledProfiles()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IngestGroupProfile> out;
  out.reserve(profiles_.size());
  // Ring order: next_profile_ is the oldest entry once the ring wrapped.
  for (size_t i = 0; i < profiles_.size(); ++i) {
    out.push_back(profiles_[(next_profile_ + i) % profiles_.size()]);
  }
  return out;
}

void IngestPipelineRecorders::ExportMetrics(MetricsRegistry* registry,
                                            const std::string& prefix) const {
  // Replace, not merge: the histogram mirrors the cumulative digest, so
  // exporting again never counts an append twice.
  auto mirror = [&](const LatencyRecorder& digest, const std::string& name) {
    LatencyRecorder* h = registry->histogram(name);
    h->Reset();
    h->MergeFrom(digest);
  };
  for (int i = 0; i < kIngestStageCount; ++i) {
    const std::string name(IngestStageName(static_cast<IngestStage>(i)));
    mirror(stages_[i], prefix + ".stage." + name + ".latency");
  }
  mirror(visibility_, prefix + ".visibility.latency");
  registry->gauge(prefix + ".sampled_groups")
      ->Set(static_cast<double>(sampled_groups()));
  registry->gauge(prefix + ".unbalanced_groups")
      ->Set(static_cast<double>(unbalanced_groups()));
}

std::string IngestPipelineRecorders::TraceJson() const {
  const std::vector<IngestGroupProfile> sampled = SampledProfiles();
  std::vector<ExplainProfile> profiles;
  profiles.reserve(sampled.size());
  for (const IngestGroupProfile& g : sampled) {
    profiles.push_back(g.ToExplainProfile());
  }
  std::vector<const ExplainProfile*> ptrs;
  ptrs.reserve(profiles.size());
  for (const ExplainProfile& p : profiles) ptrs.push_back(&p);
  return ChromeTraceJson(ptrs);
}

}  // namespace obs
}  // namespace cdb
