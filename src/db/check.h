// Offline integrity checker: validates a database (or a bare pager file)
// bottom-up — page checksums, free-list bookkeeping, tree structural
// invariants, relation readability — and reports every violation found
// instead of stopping at the first.
//
// The crash-recovery tests run CheckDatabase after every simulated crash
// point; the cdb_check tool exposes the same checks on the command line.

#ifndef CDB_DB_CHECK_H_
#define CDB_DB_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/bplus_tree.h"
#include "db/database.h"
#include "obs/json.h"
#include "rtree/rplus_tree.h"
#include "storage/pager.h"

namespace cdb {

/// Accumulated result of an integrity check. `violations` is empty iff the
/// checked structures are sound; environmental failures (I/O errors and the
/// like) are returned as a non-OK Status by the check functions instead.
struct CheckReport {
  /// Per-phase verdict (ISSUE 5): CheckDatabase appends one entry per
  /// check phase it ran ("pager.relation", "pager.index", "index.trees",
  /// "relation.heap", "relation.tuples"), so machine consumers
  /// (cdb_check --json) see which phase failed, not just the flat
  /// violation list.
  struct Entry {
    std::string name;
    bool ok = true;
    uint64_t violations = 0;  // Violations this phase contributed.
  };

  uint64_t pages_checked = 0;   // Live pages whose checksums were verified.
  uint64_t free_pages = 0;      // Pages found on free lists.
  uint64_t trees_checked = 0;   // Trees whose invariants were verified.
  std::vector<Entry> checks;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }

  void AddViolation(std::string what) {
    violations.push_back(std::move(what));
  }

  /// Records phase `name` as covering every violation added since
  /// `violations_before` (callers snapshot violations.size() before the
  /// phase runs).
  void AddCheck(std::string name, size_t violations_before);

  /// One-line human-readable summary ("ok: 12 pages, 8 trees ..." or
  /// "FAILED: 2 violations ...").
  std::string Summary() const;
};

/// Verifies every live page's checksum with a cold read and cross-checks
/// the page accounting (live + free + meta == file pages). The free list
/// itself was validated when `pager` was opened; this adds the payload
/// verification for live pages. Corruption is recorded in `report`;
/// non-corruption I/O failures abort with a non-OK Status.
Status CheckPagerIntegrity(Pager* pager, CheckReport* report);

/// Runs tree.CheckInvariants(), recording a violation on corruption.
Status CheckBPlusTree(const BPlusTree& tree, CheckReport* report);
Status CheckRPlusTree(const RPlusTree& tree, CheckReport* report);

/// Full-database check: pager integrity of both files, dual-index tree
/// invariants, and a readability scan of every live tuple. Each phase
/// appends a CheckReport::Entry (see there).
Status CheckDatabase(ConstraintDatabase* db, CheckReport* report);

/// Serializes `report` as one JSON object (schema "cdb-check/v1"):
/// overall verdict, the counters, the per-phase `checks` array, and the
/// flat violation list. Machine counterpart of Summary(); consumed by CI
/// via `cdb_check --json`.
void WriteCheckReportJson(const CheckReport& report, obs::JsonWriter* w);

}  // namespace cdb

#endif  // CDB_DB_CHECK_H_
