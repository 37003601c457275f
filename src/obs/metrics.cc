#include "obs/metrics.h"

#include "storage/pager.h"

namespace cdb {
namespace obs {

namespace {

// The recorder's layout in milliseconds. The count is the sum of the
// bucket counts read here, so the data is self-consistent even while
// observations land.
MetricsSnapshot::HistogramData HistogramDataOf(const LatencyRecorder& h) {
  MetricsSnapshot::HistogramData data;
  data.bounds.resize(LatencyRecorder::kBuckets - 1);
  for (size_t i = 0; i < data.bounds.size(); ++i) {
    data.bounds[i] =
        static_cast<double>(LatencyRecorder::UpperBoundNs(i)) / 1e6;
  }
  data.counts.resize(LatencyRecorder::kBuckets);
  for (size_t i = 0; i < data.counts.size(); ++i) {
    data.counts[i] = h.bucket_count(i);
    data.count += data.counts[i];
  }
  data.sum = static_cast<double>(h.sum_ns()) / 1e6;
  return data;
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.push_back(Counter(std::string(name), &enabled_));
  Counter* c = &counter_storage_.back();
  counters_.emplace(c->name(), c);
  return c;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.push_back(Gauge(std::string(name)));
  Gauge* g = &gauge_storage_.back();
  gauges_.emplace(g->name(), g);
  return g;
}

LatencyRecorder* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  LatencyRecorder* h = &histogram_storage_.emplace_back(&enabled_);
  histograms_.emplace(std::string(name), h);
  return h;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counter_storage_) {
    c.value_.store(0, std::memory_order_relaxed);
  }
  for (Gauge& g : gauge_storage_) {
    g.value_.store(0, std::memory_order_relaxed);
  }
  for (LatencyRecorder& h : histogram_storage_) h.Reset();
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w->Key(name).Value(c->value());
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w->Key(name).Value(g->value());
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    const MetricsSnapshot::HistogramData data = HistogramDataOf(*h);
    w->Key(name).BeginObject();
    w->Key("bounds").BeginArray();
    for (double b : data.bounds) w->Value(b);
    w->EndArray();
    w->Key("counts").BeginArray();
    for (uint64_t c : data.counts) w->Value(c);
    w->EndArray();
    w->Key("count").Value(data.count);
    w->Key("sum").Value(data.sum);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = HistogramDataOf(*h);
  }
  return snap;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier) {
  auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  MetricsSnapshot out;
  for (const auto& [name, v] : later.counters) {
    auto it = earlier.counters.find(name);
    out.counters[name] = it == earlier.counters.end() ? v : sub(v, it->second);
  }
  out.gauges = later.gauges;
  for (const auto& [name, h] : later.histograms) {
    MetricsSnapshot::HistogramData d = h;
    auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) {
      for (size_t i = 0; i < d.counts.size(); ++i) {
        d.counts[i] = sub(d.counts[i], it->second.counts[i]);
      }
      d.count = sub(d.count, it->second.count);
      d.sum = d.count == 0 ? 0 : d.sum - it->second.sum;
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry(/*enabled=*/false);
  return *registry;
}

void ExportPagerMetrics(const Pager& pager, MetricsRegistry* registry,
                        const std::string& prefix) {
  const IoStats& s = pager.stats();
  auto set = [&](const char* name, double v) {
    registry->gauge(prefix + "." + name)->Set(v);
  };
  set("page_fetches", static_cast<double>(s.page_fetches));
  set("page_reads", static_cast<double>(s.page_reads));
  set("page_writes", static_cast<double>(s.page_writes));
  set("pages_allocated", static_cast<double>(s.pages_allocated));
  set("buffer_hits", static_cast<double>(s.buffer_hits));
  set("buffer_evictions", static_cast<double>(s.buffer_evictions));
  set("dirty_writebacks", static_cast<double>(s.dirty_writebacks));
  set("checksum_failures", static_cast<double>(s.checksum_failures));
  set("journal_records", static_cast<double>(s.journal_records));
  set("journal_commits", static_cast<double>(s.journal_commits));
  set("journal_replays", static_cast<double>(s.journal_replays));
  set("pages_rolled_back", static_cast<double>(s.pages_rolled_back));
  set("resident_frames", static_cast<double>(pager.resident_frame_count()));
  set("pinned_frames", static_cast<double>(pager.pinned_frame_count()));
  set("live_pages", static_cast<double>(pager.live_page_count()));
  // Concurrency/pipeline instrumentation (ISSUE 5). Exported
  // unconditionally: the serial paper benches never call
  // ExportPagerMetrics, so the extra gauges cannot perturb their
  // artifacts, and a concurrent caller always wants the full picture
  // (zeros included — "no contention" is a result).
  const PagerConcurrencyStats c = pager.concurrency_stats();
  set("shard.lock_waits", static_cast<double>(c.shard_lock_waits));
  set("shard.lock_wait_ns", static_cast<double>(c.shard_lock_wait_ns));
  set("shard.imbalance", pager.ShardImbalance());
  set("publish.epochs", static_cast<double>(c.publish_epochs));
  set("publish.drain_ns", static_cast<double>(c.publish_drain_ns));
  set("publish.sessions_drained",
      static_cast<double>(c.publish_sessions_drained));
  set("publish.pages", static_cast<double>(c.publish_pages));
  set("fsync.data_count", static_cast<double>(c.data_fsyncs));
  set("fsync.data_ns", static_cast<double>(c.data_fsync_ns));
  set("fsync.journal_count", static_cast<double>(c.journal_fsyncs));
  set("fsync.journal_ns", static_cast<double>(c.journal_fsync_ns));
}

}  // namespace obs
}  // namespace cdb
