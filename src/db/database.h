// ConstraintDatabase — the batteries-included facade: a persistent
// generalized relation plus its dual index behind one handle, with a
// catalog page that survives restarts.
//
// Storage layout: two paged files, `<path>.rel` (tuple data) and
// `<path>.idx` (the 2k B+-trees + catalog). Keeping them on separate pagers
// preserves the benchmarkable separation between index page accesses and
// refinement tuple reads. The catalog page in the index file records the
// slope set, index options, every tree's meta page, and the relation's root
// page; Open() with an existing path reattaches everything.
//
// Mutations are single-threaded, like the underlying structures. Reads can
// be served in parallel by handing index() to exec::QueryExecutor, which
// drives both pagers in concurrent-read mode (src/exec/query_executor.h and
// DESIGN.md §2c).

#ifndef CDB_DB_DATABASE_H_
#define CDB_DB_DATABASE_H_

#include <memory>
#include <string>

#include "dualindex/dual_index.h"

namespace cdb {

struct DatabaseOptions {
  size_t page_size = kDefaultPageSize;
  size_t cache_frames = 64;
  /// Slope set used when creating a new database (ignored on reopen; the
  /// catalog's set wins). Must be non-empty at creation.
  std::vector<double> slopes = {-1.0, 0.0, 1.0};
  /// Index options at creation; `refine`/`anchor_x` also apply on reopen.
  DualIndexOptions index_options;
  /// Back the database with in-process memory instead of files (`path` is
  /// then only a label; nothing persists).
  bool in_memory = false;
};

/// See file comment.
class ConstraintDatabase {
 public:
  /// Opens the database at `path`, creating it if absent. A database
  /// created with one page size / slope set must be reopened compatibly
  /// (page size is validated; slopes are read back from the catalog).
  static Status Open(const std::string& path, const DatabaseOptions& options,
                     std::unique_ptr<ConstraintDatabase>* out);

  ~ConstraintDatabase();
  ConstraintDatabase(const ConstraintDatabase&) = delete;
  ConstraintDatabase& operator=(const ConstraintDatabase&) = delete;

  /// Inserts a satisfiable tuple into the relation and every index tree.
  Result<TupleId> Insert(const GeneralizedTuple& tuple);

  /// Parses `text` (see constraint/parser.h) and inserts it.
  Result<TupleId> InsertText(const std::string& text);

  /// Removes a tuple everywhere.
  Status Delete(TupleId id);

  /// Fetches a stored tuple.
  Status Get(TupleId id, GeneralizedTuple* out) const;

  /// ALL/EXIST selection against a half-plane.
  Result<std::vector<TupleId>> Select(SelectionType type,
                                      const HalfPlaneQuery& q,
                                      QueryMethod method = QueryMethod::kAuto,
                                      QueryStats* stats = nullptr);

  /// Exact vertical selection (requires support_vertical at creation).
  Result<std::vector<TupleId>> SelectVertical(SelectionType type,
                                              const VerticalQuery& q,
                                              QueryStats* stats = nullptr);

  /// One-line query language: "ALL <halfplane>" or "EXIST <halfplane>",
  /// where <halfplane> is parser syntax (e.g. "y >= 2x + 1") or a vertical
  /// constraint ("x <= 3").
  Result<std::vector<TupleId>> Query(const std::string& text,
                                     QueryStats* stats = nullptr);

  /// Explains how a Query() text would execute, without running it.
  Result<std::string> Explain(const std::string& text);

  /// Number of live tuples.
  uint64_t size() const { return relation_->size(); }

  /// Durably writes all state (also done on destruction).
  Status Flush();

  Relation* relation() { return relation_.get(); }
  DualIndex* index() { return index_.get(); }
  Pager* relation_pager() { return rel_pager_.get(); }
  Pager* index_pager() { return idx_pager_.get(); }

 private:
  ConstraintDatabase() = default;

  Status LoadCatalogAndAttach(const DatabaseOptions& options);
  Status StoreCatalog();
  Status ParseQueryText(const std::string& text, SelectionType* type,
                        bool* vertical, HalfPlaneQuery* hp,
                        VerticalQuery* vq) const;

  std::unique_ptr<Pager> rel_pager_;
  std::unique_ptr<Pager> idx_pager_;
  std::unique_ptr<Relation> relation_;
  std::unique_ptr<DualIndex> index_;
  PageId catalog_page_ = kInvalidPageId;
};

}  // namespace cdb

#endif  // CDB_DB_DATABASE_H_
