// cdb_check: offline integrity checker for a ConstraintDatabase.
//
//   cdb_check <path> [--page_size=N] [--json]
//
// Opens the database at <path> (the same <path>.rel / <path>.idx pair
// ConstraintDatabase uses — a leftover crash journal is replayed first,
// exactly as a normal open would) and verifies page checksums, free-list
// accounting, every index tree's structural invariants, the relation's
// page chain, and that all live tuples deserialize. Refinement's bounding
// boxes derive from the in-memory shape mirror that open rebuilds from the
// tuples, so there is no persisted box to check. Pages a retired box
// sidecar left in older files stay allocated and count as live. Exit
// status: 0 = sound, 1 = violations found, 2 = could not open / usage
// error.
//
// With --json the verdict goes to stdout as one "cdb-check/v1" JSON
// object (per-phase checks plus the flat violation list; open/abort
// failures become {"ok": false, "error": ...}) so CI and the bench
// regression gate can consume it. Exit codes are unchanged.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "db/check.h"
#include "db/database.h"
#include "obs/json.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <db-path> [--page_size=N] [--json]\n",
               argv0);
  return 2;
}

// --json verdict for failures before/outside CheckDatabase (open failed,
// check aborted): same schema envelope, empty counters, one error string.
int EmitJsonError(const std::string& path, const char* stage,
                  const cdb::Status& st, int exit_code) {
  cdb::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("cdb-check/v1");
  w.Key("path").Value(path);
  w.Key("ok").Value(false);
  w.Key("error").Value(std::string(stage) + ": " + st.ToString());
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  cdb::DatabaseOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--page_size=", 12) == 0) {
      long v = std::atol(arg + 12);
      if (v <= 0) return Usage(argv[0]);
      options.page_size = static_cast<size_t>(v);
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);

  // ConstraintDatabase::Open creates missing files; a checker must not.
  if (!std::filesystem::exists(path + ".rel") ||
      !std::filesystem::exists(path + ".idx")) {
    if (json) {
      return EmitJsonError(path, "open",
                           cdb::Status::InvalidArgument(
                               "no database (.rel/.idx missing)"),
                           2);
    }
    std::fprintf(stderr, "cdb_check: no database at %s (.rel/.idx missing)\n",
                 path.c_str());
    return 2;
  }

  std::unique_ptr<cdb::ConstraintDatabase> db;
  cdb::Status st = cdb::ConstraintDatabase::Open(path, options, &db);
  if (!st.ok()) {
    // Failing to open *is* the checker's verdict when the failure is
    // corruption; anything else is environmental.
    int code = st.IsCorruption() ? 1 : 2;
    if (json) return EmitJsonError(path, "open", st, code);
    std::fprintf(stderr, "cdb_check: open failed: %s\n",
                 st.ToString().c_str());
    return code;
  }

  cdb::CheckReport report;
  st = cdb::CheckDatabase(db.get(), &report);
  if (!st.ok()) {
    if (json) return EmitJsonError(path, "check", st, 2);
    std::fprintf(stderr, "cdb_check: check aborted: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  if (json) {
    cdb::obs::JsonWriter w;
    cdb::WriteCheckReportJson(report, &w);
    std::printf("%s\n", w.TakeString().c_str());
  } else {
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "violation: %s\n", v.c_str());
    }
    std::printf("%s: %s\n", path.c_str(), report.Summary().c_str());
  }
  return report.ok() ? 0 : 1;
}
