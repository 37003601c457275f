#include "db/check.h"

#include <cstdio>

namespace cdb {

void CheckReport::AddCheck(std::string name, size_t violations_before) {
  Entry e;
  e.name = std::move(name);
  e.violations = violations.size() - violations_before;
  e.ok = e.violations == 0;
  checks.push_back(std::move(e));
}

std::string CheckReport::Summary() const {
  char buf[160];
  if (ok()) {
    std::snprintf(buf, sizeof(buf),
                  "ok: %llu pages verified, %llu free, %llu trees sound",
                  static_cast<unsigned long long>(pages_checked),
                  static_cast<unsigned long long>(free_pages),
                  static_cast<unsigned long long>(trees_checked));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "FAILED: %zu violation(s) across %llu pages / %llu trees",
                  violations.size(),
                  static_cast<unsigned long long>(pages_checked),
                  static_cast<unsigned long long>(trees_checked));
  }
  return buf;
}

Status CheckPagerIntegrity(Pager* pager, CheckReport* report) {
  // Cold reads so every live page goes through checksum verification
  // rather than being served from the buffer pool.
  CDB_RETURN_IF_ERROR(pager->DropCache());
  const auto& free_set = pager->free_pages();
  uint64_t live_seen = 0;
  for (PageId id = 1; id < pager->file_page_count(); ++id) {
    if (free_set.count(id) > 0) {
      // Free pages were checksum-verified by the free-list walk at Open.
      ++report->free_pages;
      continue;
    }
    Result<PageRef> ref = pager->Fetch(id);
    if (ref.ok()) {
      ++report->pages_checked;
      ++live_seen;
      continue;
    }
    if (ref.status().IsCorruption()) {
      report->AddViolation(ref.status().ToString());
      ++live_seen;  // Damaged, but still a live page for the accounting.
      continue;
    }
    return ref.status();  // Environmental failure, not a verdict.
  }
  if (live_seen != pager->live_page_count()) {
    report->AddViolation(
        "page accounting mismatch: meta records " +
        std::to_string(pager->live_page_count()) + " live pages, found " +
        std::to_string(live_seen));
  }
  return Status::OK();
}

namespace {

Status RecordInvariantCheck(const Status& st, const char* what,
                            CheckReport* report) {
  if (st.ok()) {
    ++report->trees_checked;
    return Status::OK();
  }
  if (st.IsCorruption()) {
    report->AddViolation(std::string(what) + ": " + st.ToString());
    return Status::OK();
  }
  return st;
}

}  // namespace

Status CheckBPlusTree(const BPlusTree& tree, CheckReport* report) {
  return RecordInvariantCheck(tree.CheckInvariants(), "b+-tree", report);
}

Status CheckRPlusTree(const RPlusTree& tree, CheckReport* report) {
  return RecordInvariantCheck(tree.CheckInvariants(), "r+-tree", report);
}

Status CheckDatabase(ConstraintDatabase* db, CheckReport* report) {
  size_t before = report->violations.size();
  CDB_RETURN_IF_ERROR(CheckPagerIntegrity(db->relation_pager(), report));
  report->AddCheck("pager.relation", before);

  before = report->violations.size();
  CDB_RETURN_IF_ERROR(CheckPagerIntegrity(db->index_pager(), report));
  report->AddCheck("pager.index", before);

  // Structural invariants of all 2k (+2) index trees. CheckInvariants
  // stops at the first broken tree; the per-page pass above already
  // enumerated low-level damage, so one structural verdict suffices.
  before = report->violations.size();
  Status trees = db->index()->CheckInvariants();
  if (trees.ok()) {
    report->trees_checked += db->index()->tree_count();
  } else if (trees.IsCorruption()) {
    report->AddViolation("dual index: " + trees.ToString());
  } else {
    return trees;
  }
  report->AddCheck("index.trees", before);

  // The data-page chain under the relation: links, page accounting, and
  // directory entries, before any tuple is decoded from it.
  before = report->violations.size();
  CDB_RETURN_IF_ERROR(db->relation()->heap().Verify(
      [report](const std::string& what) {
        report->AddViolation("relation heap: " + what);
      }));
  report->AddCheck("relation.heap", before);

  // Every live tuple must deserialize.
  before = report->violations.size();
  uint64_t tuples = 0;
  Status scan = db->relation()->ForEach(
      [&tuples](TupleId, const GeneralizedTuple&) {
        ++tuples;
        return Status::OK();
      });
  if (scan.IsCorruption()) {
    report->AddViolation("relation scan: " + scan.ToString());
  } else if (!scan.ok()) {
    return scan;
  } else if (tuples != db->size()) {
    report->AddViolation("relation scan found " + std::to_string(tuples) +
                         " tuples, directory records " +
                         std::to_string(db->size()));
  }
  report->AddCheck("relation.tuples", before);
  return Status::OK();
}

void WriteCheckReportJson(const CheckReport& report, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("schema").Value("cdb-check/v1");
  w->Key("ok").Value(report.ok());
  w->Key("pages_checked").Value(report.pages_checked);
  w->Key("free_pages").Value(report.free_pages);
  w->Key("trees_checked").Value(report.trees_checked);
  w->Key("checks").BeginArray();
  for (const CheckReport::Entry& e : report.checks) {
    w->BeginObject();
    w->Key("name").Value(e.name);
    w->Key("ok").Value(e.ok);
    w->Key("violations").Value(e.violations);
    w->EndObject();
  }
  w->EndArray();
  w->Key("violations").BeginArray();
  for (const std::string& v : report.violations) w->Value(v);
  w->EndArray();
  w->EndObject();
}

}  // namespace cdb
