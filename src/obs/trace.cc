#include "obs/trace.h"

#include <cassert>
#include <cstdio>

#include "storage/pager.h"

namespace cdb {
namespace obs {

namespace {

thread_local Tracer* g_current_tracer = nullptr;

}  // namespace

// --- PhaseCost / ProfileNode --------------------------------------------------

void PhaseCost::Add(const PhaseCost& o) {
  index_fetches += o.index_fetches;
  index_reads += o.index_reads;
  tuple_fetches += o.tuple_fetches;
  tuple_reads += o.tuple_reads;
  wall_ms += o.wall_ms;
}

bool PhaseCost::IoEquals(const PhaseCost& o) const {
  return index_fetches == o.index_fetches && index_reads == o.index_reads &&
         tuple_fetches == o.tuple_fetches && tuple_reads == o.tuple_reads;
}

PhaseCost ProfileNode::Total() const {
  PhaseCost t = self;
  for (const ProfileNode& child : children) t.Add(child.Total());
  return t;
}

const ProfileNode* ProfileNode::Find(std::string_view target) const {
  if (name == target) return this;
  for (const ProfileNode& child : children) {
    if (const ProfileNode* hit = child.Find(target)) return hit;
  }
  return nullptr;
}

// --- Tracer -------------------------------------------------------------------

Tracer* Tracer::Current() { return g_current_tracer; }

Tracer::Tracer(const char* root_name, Pager* index_pager, Pager* tuple_pager,
               Clock* clock, bool profiled)
    : index_pager_(index_pager),
      tuple_pager_(tuple_pager == index_pager ? nullptr : tuple_pager),
      clock_(clock != nullptr ? clock : DefaultClock()),
      previous_(g_current_tracer),
      recording_(profiled || previous_ != nullptr) {
  root_.name = root_name;
  root_.invocations = 1;
  if (index_pager_ != nullptr) initial_index_ = index_pager_->ThreadStats();
  if (tuple_pager_ != nullptr) initial_tuple_ = tuple_pager_->ThreadStats();
  initial_time_ns_ = clock_->NowNanos();
  if (!recording_) return;
  stack_.push_back(&root_);
  last_index_ = initial_index_;
  last_tuple_ = initial_tuple_;
  last_time_ns_ = initial_time_ns_;
  g_current_tracer = this;
}

Tracer::~Tracer() {
  if (g_current_tracer == this) g_current_tracer = previous_;
}

PhaseCost Tracer::ReadDelta(const IoStats& index_base,
                            const IoStats& tuple_base,
                            uint64_t time_base_ns) const {
  PhaseCost d;
  if (index_pager_ != nullptr) {
    IoStats delta = index_pager_->ThreadStats().Delta(index_base);
    d.index_fetches = delta.page_fetches;
    d.index_reads = delta.page_reads;
  }
  if (tuple_pager_ != nullptr) {
    IoStats delta = tuple_pager_->ThreadStats().Delta(tuple_base);
    d.tuple_fetches = delta.page_fetches;
    d.tuple_reads = delta.page_reads;
  }
  d.wall_ms =
      static_cast<double>(clock_->NowNanos() - time_base_ns) / 1e6;
  return d;
}

void Tracer::AccumulateToOpenSpan() {
  stack_.back()->self.Add(
      ReadDelta(last_index_, last_tuple_, last_time_ns_));
  if (index_pager_ != nullptr) last_index_ = index_pager_->ThreadStats();
  if (tuple_pager_ != nullptr) last_tuple_ = tuple_pager_->ThreadStats();
  last_time_ns_ = clock_->NowNanos();
}

void Tracer::Enter(const char* name) {
  if (finished_) return;
  AccumulateToOpenSpan();
  ProfileNode* parent = stack_.back();
  // Re-entering a phase under the same parent merges into the existing
  // node (loops produce one aggregated node, not one node per iteration).
  // Note: pushing a new child may reallocate parent->children; that is safe
  // because the stack only ever points at *open* ancestors, never at
  // already-closed siblings inside those vectors.
  ProfileNode* node = nullptr;
  for (ProfileNode& child : parent->children) {
    if (child.name == name) {
      node = &child;
      break;
    }
  }
  if (node == nullptr) {
    parent->children.emplace_back();
    node = &parent->children.back();
    node->name = name;
  }
  ++node->invocations;
  stack_.push_back(node);
}

void Tracer::Exit() {
  if (finished_ || stack_.size() <= 1) return;
  AccumulateToOpenSpan();
  stack_.pop_back();
}

ProfileNode Tracer::Finish(PhaseCost* overall) {
  if (!recording_) {
    // No spans were opened: the root's self cost is the whole region.
    root_.self = ReadDelta(initial_index_, initial_tuple_, initial_time_ns_);
    finished_ = true;
    if (overall != nullptr) *overall = root_.self;
    return std::move(root_);
  }
  assert(stack_.size() == 1 && "Finish() with child spans still open");
  // Defensive: even if a child span leaked (bug), close it so the tree and
  // the totals still balance.
  while (stack_.size() > 1) Exit();
  AccumulateToOpenSpan();
  finished_ = true;
  if (g_current_tracer == this) g_current_tracer = previous_;
  if (overall != nullptr) {
    *overall = ReadDelta(initial_index_, initial_tuple_, initial_time_ns_);
  }
  return std::move(root_);
}

// --- TraceSampler -------------------------------------------------------------

namespace {

// splitmix64 finalizer: full-avalanche mix so that e.g. every 4th index is
// not systematically (un)sampled.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool TraceSampler::ShouldSample(uint64_t index) const {
  if (every_ == 0) return false;
  if (every_ == 1) return true;
  return Mix64(index ^ seed_) % every_ == 0;
}

// --- ExplainProfile -----------------------------------------------------------

namespace {

void AppendNode(const ProfileNode& node, int depth, std::string* out) {
  PhaseCost total = node.Total();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%*s%-*s x%-4llu idx %llu/%llu  tup %llu/%llu  %.3f ms\n",
                depth * 2, "", 28 - depth * 2, node.name.c_str(),
                static_cast<unsigned long long>(node.invocations),
                static_cast<unsigned long long>(total.index_fetches),
                static_cast<unsigned long long>(total.index_reads),
                static_cast<unsigned long long>(total.tuple_fetches),
                static_cast<unsigned long long>(total.tuple_reads),
                total.wall_ms);
  *out += buf;
  for (const ProfileNode& child : node.children) {
    AppendNode(child, depth + 1, out);
  }
}

void WriteNodeJson(const ProfileNode& node, JsonWriter* w) {
  w->BeginObject();
  w->Key("name").Value(node.name);
  w->Key("invocations").Value(node.invocations);
  w->Key("self").BeginObject();
  w->Key("index_fetches").Value(node.self.index_fetches);
  w->Key("index_reads").Value(node.self.index_reads);
  w->Key("tuple_fetches").Value(node.self.tuple_fetches);
  w->Key("tuple_reads").Value(node.self.tuple_reads);
  w->Key("wall_ms").Value(node.self.wall_ms);
  w->EndObject();
  w->Key("children").BeginArray();
  for (const ProfileNode& child : node.children) WriteNodeJson(child, w);
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string ExplainProfile::ToString() const {
  std::string out;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "query profile (idx fetches/reads, tup fetches/reads):\n"
                "totals: idx %llu/%llu  tup %llu/%llu  %.3f ms  [%s]\n",
                static_cast<unsigned long long>(totals.index_fetches),
                static_cast<unsigned long long>(totals.index_reads),
                static_cast<unsigned long long>(totals.tuple_fetches),
                static_cast<unsigned long long>(totals.tuple_reads),
                totals.wall_ms, SumsBalance() ? "balanced" : "UNBALANCED");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "filter: %llu cand = %llu dedup + %llu early + %llu accept + "
                "%llu reject + %llu abandoned -> %llu results  "
                "precision %.3f  [%s]\n",
                static_cast<unsigned long long>(filter.candidates),
                static_cast<unsigned long long>(filter.dedup_dropped),
                static_cast<unsigned long long>(filter.early_accepts),
                static_cast<unsigned long long>(filter.refine_accepts),
                static_cast<unsigned long long>(filter.refine_rejects),
                static_cast<unsigned long long>(filter.abandoned),
                static_cast<unsigned long long>(filter.results),
                filter.precision(),
                filter.Balances() ? "balanced" : "UNBALANCED");
  out += buf;
  AppendNode(root, 0, &out);
  return out;
}

void ExplainProfile::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("totals").BeginObject();
  w->Key("index_fetches").Value(totals.index_fetches);
  w->Key("index_reads").Value(totals.index_reads);
  w->Key("tuple_fetches").Value(totals.tuple_fetches);
  w->Key("tuple_reads").Value(totals.tuple_reads);
  w->Key("wall_ms").Value(totals.wall_ms);
  w->EndObject();
  w->Key("balanced").Value(SumsBalance());
  w->Key("filter").BeginObject();
  w->Key("candidates").Value(filter.candidates);
  w->Key("dedup_dropped").Value(filter.dedup_dropped);
  w->Key("early_accepts").Value(filter.early_accepts);
  w->Key("refine_accepts").Value(filter.refine_accepts);
  w->Key("refine_rejects").Value(filter.refine_rejects);
  w->Key("abandoned").Value(filter.abandoned);
  w->Key("results").Value(filter.results);
  w->Key("precision").Value(filter.precision());
  w->Key("balanced").Value(filter.Balances());
  w->EndObject();
  w->Key("root");
  WriteNodeJson(root, w);
  w->EndObject();
}

std::string ExplainProfile::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

PhaseCost FinishQueryTrace(Tracer* tracer, ExplainProfile* profile) {
  PhaseCost totals;
  ProfileNode root = tracer->Finish(&totals);
  if (profile != nullptr) {
    profile->root = std::move(root);
    profile->totals = totals;
  }
  return totals;
}

}  // namespace obs
}  // namespace cdb
