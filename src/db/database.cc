#include "db/database.h"

#include <cctype>
#include <cstring>

#include "constraint/parser.h"
#include "storage/file.h"

namespace cdb {

namespace {

constexpr uint64_t kCatalogMagic = 0xCDBCA7A1060000AAull;
constexpr uint8_t kFlagTight = 1;
constexpr uint8_t kFlagVertical = 2;
// Flag bit 4 is taken: older files set it and store a bounding-box sidecar
// root after the down-tree metas. Both are ignored on load, so neither may
// be given a new meaning; the sidecar's pages stay allocated, unreferenced.

Status OpenPager(const std::string& path, const DatabaseOptions& options,
                 std::unique_ptr<Pager>* out, bool* existed) {
  PagerOptions popts;
  popts.page_size = options.page_size;
  popts.cache_frames = options.cache_frames;
  std::unique_ptr<BlockFile> file;
  std::unique_ptr<BlockFile> journal;
  if (options.in_memory) {
    // No crash to survive: skip the journal, keep checksums (cheap, and
    // they catch in-process scribbles).
    file = std::make_unique<MemFile>(options.page_size);
    *existed = false;
  } else {
    std::unique_ptr<PosixFile> pf;
    CDB_RETURN_IF_ERROR(
        PosixFile::Open(path, options.page_size, /*truncate=*/false, &pf));
    *existed = pf->BlockCount() > 0;
    file = std::move(pf);
    // The rollback journal sits beside the data file; a leftover journal
    // from a crashed process is replayed by Pager::Open.
    std::unique_ptr<PosixFile> jf;
    CDB_RETURN_IF_ERROR(PosixFile::Open(
        path + "-journal", Pager::JournalBlockSize(options.page_size),
        /*truncate=*/false, &jf));
    journal = std::move(jf);
  }
  return Pager::Open(std::move(file), std::move(journal), popts, out);
}

}  // namespace

Status ConstraintDatabase::Open(const std::string& path,
                                const DatabaseOptions& options,
                                std::unique_ptr<ConstraintDatabase>* out) {
  std::unique_ptr<ConstraintDatabase> db(new ConstraintDatabase());
  bool rel_existed = false, idx_existed = false;
  CDB_RETURN_IF_ERROR(
      OpenPager(path + ".rel", options, &db->rel_pager_, &rel_existed));
  CDB_RETURN_IF_ERROR(
      OpenPager(path + ".idx", options, &db->idx_pager_, &idx_existed));
  if (rel_existed != idx_existed) {
    return Status::Corruption("half of the database is missing: " + path);
  }

  if (!idx_existed) {
    // Fresh database.
    if (options.slopes.empty()) {
      return Status::InvalidArgument("slope set must be non-empty");
    }
    CDB_RETURN_IF_ERROR(
        Relation::Open(db->rel_pager_.get(), kInvalidPageId, &db->relation_));
    Result<PageId> catalog = db->idx_pager_->Allocate();
    if (!catalog.ok()) return catalog.status();
    db->catalog_page_ = catalog.value();
    CDB_RETURN_IF_ERROR(DualIndex::Build(
        db->idx_pager_.get(), db->relation_.get(), SlopeSet(options.slopes),
        options.index_options, &db->index_));
    CDB_RETURN_IF_ERROR(db->StoreCatalog());
    CDB_RETURN_IF_ERROR(db->Flush());
  } else {
    db->catalog_page_ = 1;  // First page ever allocated in the index file.
    CDB_RETURN_IF_ERROR(db->LoadCatalogAndAttach(options));
  }
  *out = std::move(db);
  return Status::OK();
}

ConstraintDatabase::~ConstraintDatabase() {
  // A failed Open() destroys a partially-attached database: pagers may be
  // open while `index_` was never loaded. There is nothing consistent to
  // flush then, and StoreCatalog() needs the index manifest.
  if (idx_pager_ != nullptr && index_ != nullptr) Flush().ok();
}

Status ConstraintDatabase::StoreCatalog() {
  Result<PageRef> ref = idx_pager_->Fetch(catalog_page_);
  if (!ref.ok()) return ref.status();
  char* p = ref.value().data();
  std::memset(p, 0, idx_pager_->page_size());
  DualIndexManifest m = index_->Manifest();
  size_t k = m.slopes.size();
  size_t need = 8 + 4 + 1 + 3 + 4 + 4 + 4 + k * (8 + 4 + 4);
  if (need > idx_pager_->page_size()) {
    return Status::InvalidArgument("slope set too large for catalog page");
  }
  std::memcpy(p, &kCatalogMagic, 8);
  uint32_t k32 = static_cast<uint32_t>(k);
  std::memcpy(p + 8, &k32, 4);
  uint8_t flags = 0;
  if (m.tight_assignment) flags |= kFlagTight;
  if (m.support_vertical) flags |= kFlagVertical;
  p[12] = static_cast<char>(flags);
  PageId rel_root = relation_->root_page();
  std::memcpy(p + 16, &rel_root, 4);
  std::memcpy(p + 20, &m.xmax_meta, 4);
  std::memcpy(p + 24, &m.xmin_meta, 4);
  char* cursor = p + 28;
  for (size_t i = 0; i < k; ++i, cursor += 8) {
    std::memcpy(cursor, &m.slopes[i], 8);
  }
  for (size_t i = 0; i < k; ++i, cursor += 4) {
    std::memcpy(cursor, &m.up_metas[i], 4);
  }
  for (size_t i = 0; i < k; ++i, cursor += 4) {
    std::memcpy(cursor, &m.down_metas[i], 4);
  }
  ref.value().MarkDirty();
  return Status::OK();
}

Status ConstraintDatabase::LoadCatalogAndAttach(
    const DatabaseOptions& options) {
  Result<PageRef> ref = idx_pager_->Fetch(catalog_page_);
  if (!ref.ok()) return ref.status();
  const char* p = ref.value().data();
  uint64_t magic;
  std::memcpy(&magic, p, 8);
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad database catalog magic");
  }
  uint32_t k;
  std::memcpy(&k, p + 8, 4);
  uint8_t flags = static_cast<uint8_t>(p[12]);
  DualIndexManifest m;
  m.tight_assignment = (flags & kFlagTight) != 0;
  m.support_vertical = (flags & kFlagVertical) != 0;
  PageId rel_root;
  std::memcpy(&rel_root, p + 16, 4);
  std::memcpy(&m.xmax_meta, p + 20, 4);
  std::memcpy(&m.xmin_meta, p + 24, 4);
  const char* cursor = p + 28;
  m.slopes.resize(k);
  for (uint32_t i = 0; i < k; ++i, cursor += 8) {
    std::memcpy(&m.slopes[i], cursor, 8);
  }
  m.up_metas.resize(k);
  for (uint32_t i = 0; i < k; ++i, cursor += 4) {
    std::memcpy(&m.up_metas[i], cursor, 4);
  }
  m.down_metas.resize(k);
  for (uint32_t i = 0; i < k; ++i, cursor += 4) {
    std::memcpy(&m.down_metas[i], cursor, 4);
  }
  ref.value().Release();

  CDB_RETURN_IF_ERROR(
      Relation::Open(rel_pager_.get(), rel_root, &relation_));
  return DualIndex::Open(idx_pager_.get(), relation_.get(), m,
                         options.index_options, &index_);
}

Result<TupleId> ConstraintDatabase::Insert(const GeneralizedTuple& tuple) {
  CDB_RETURN_IF_ERROR(ValidateTuple(tuple));
  if (!tuple.IsSatisfiable()) {
    return Status::InvalidArgument("tuple is unsatisfiable");
  }
  Result<TupleId> id = relation_->Insert(tuple);
  if (!id.ok()) return id.status();
  Status st = index_->Insert(id.value(), tuple);
  if (!st.ok()) {
    // Keep relation and index in sync even on failure.
    relation_->Delete(id.value()).ok();
    return st;
  }
  // The relation root can move when pages fill; keep the catalog current.
  CDB_RETURN_IF_ERROR(StoreCatalog());
  return id;
}

Result<TupleId> ConstraintDatabase::InsertText(const std::string& text) {
  GeneralizedTuple tuple;
  CDB_RETURN_IF_ERROR(ParseGeneralizedTuple(text, &tuple));
  return Insert(tuple);
}

Status ConstraintDatabase::Delete(TupleId id) {
  GeneralizedTuple tuple;
  CDB_RETURN_IF_ERROR(relation_->Get(id, &tuple));
  CDB_RETURN_IF_ERROR(index_->Remove(id, tuple));
  CDB_RETURN_IF_ERROR(relation_->Delete(id));
  return StoreCatalog();
}

Status ConstraintDatabase::Get(TupleId id, GeneralizedTuple* out) const {
  return relation_->Get(id, out);
}

Result<std::vector<TupleId>> ConstraintDatabase::Select(
    SelectionType type, const HalfPlaneQuery& q, QueryMethod method,
    QueryStats* stats) {
  return index_->Select(type, q, method, stats);
}

Result<std::vector<TupleId>> ConstraintDatabase::SelectVertical(
    SelectionType type, const VerticalQuery& q, QueryStats* stats) {
  return index_->SelectVertical(type, q, stats);
}

Status ConstraintDatabase::SelectBatch(
    const std::vector<exec::BatchQuery>& batch, size_t threads,
    std::vector<exec::BatchItemResult>* results) {
  exec::QueryExecutor executor(threads);
  return executor.RunBatch(index_.get(), batch, results);
}

Status ConstraintDatabase::ParseQueryText(const std::string& text,
                                          SelectionType* type, bool* vertical,
                                          HalfPlaneQuery* hp,
                                          VerticalQuery* vq) const {
  // Split "<TYPE> <constraint>".
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  size_t start = i;
  while (i < text.size() && std::isalpha(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::string word = text.substr(start, i - start);
  for (char& c : word) c = static_cast<char>(std::toupper(c));
  if (word == "ALL") {
    *type = SelectionType::kAll;
  } else if (word == "EXIST" || word == "EXISTS") {
    *type = SelectionType::kExist;
  } else {
    return Status::InvalidArgument("query must start with ALL or EXIST");
  }
  std::string rest = text.substr(i);

  // A single-inequality constraint: vertical if it has no y term.
  GeneralizedTuple parsed;
  CDB_RETURN_IF_ERROR(ParseGeneralizedTuple(rest, &parsed));
  if (parsed.size() != 1) {
    return Status::InvalidArgument("query must be a single inequality");
  }
  const Constraint2D& c = parsed.constraints()[0];
  if (ApproxZero(c.b)) {
    if (ApproxZero(c.a)) {
      return Status::InvalidArgument("query constraint has no variables");
    }
    // a*x + c θ 0  ->  x θ' -c/a (flip when a < 0).
    *vertical = true;
    vq->boundary = -c.c / c.a;
    vq->cmp = c.a > 0 ? c.cmp : Negate(c.cmp);
    return Status::OK();
  }
  *vertical = false;
  return ParseHalfPlaneQuery(rest, hp);
}

Result<std::vector<TupleId>> ConstraintDatabase::Query(
    const std::string& text, QueryStats* stats) {
  SelectionType type;
  bool vertical;
  HalfPlaneQuery hp;
  VerticalQuery vq;
  CDB_RETURN_IF_ERROR(ParseQueryText(text, &type, &vertical, &hp, &vq));
  if (vertical) return SelectVertical(type, vq, stats);
  return Select(type, hp, QueryMethod::kAuto, stats);
}

Result<std::string> ConstraintDatabase::Explain(const std::string& text) {
  SelectionType type;
  bool vertical;
  HalfPlaneQuery hp;
  VerticalQuery vq;
  CDB_RETURN_IF_ERROR(ParseQueryText(text, &type, &vertical, &hp, &vq));
  if (vertical) {
    char buf[200];
    const char* tree = (type == SelectionType::kExist) == (vq.cmp == Cmp::kGE)
                           ? "X^max"
                           : "X^min";
    std::snprintf(buf, sizeof(buf),
                  "%s(x %s %g) via vertical support trees\n"
                  "  exact: sweep %s %s from %g\n  no refinement needed\n",
                  type == SelectionType::kAll ? "ALL" : "EXIST",
                  vq.cmp == Cmp::kGE ? ">=" : "<=", vq.boundary, tree,
                  vq.cmp == Cmp::kGE ? "upward" : "downward", vq.boundary);
    return std::string(buf);
  }
  return index_->Explain(type, hp, QueryMethod::kAuto);
}

Status ConstraintDatabase::Flush() {
  CDB_RETURN_IF_ERROR(StoreCatalog());
  CDB_RETURN_IF_ERROR(rel_pager_->Flush());
  return idx_pager_->Flush();
}

}  // namespace cdb
