// Text syntax for generalized tuples.
//
// A tuple is a conjunction of linear constraints over variables x and y,
// separated by "," or "and" (case-insensitive), e.g.
//
//   "x >= 0, y >= 0, x + y <= 4"
//   "y >= 2*x - 1 and y <= 10"
//   "2x + 3y = 6"                      (equality expands into <= and >=)
//
// Each side of a comparison is a linear expression: terms of the form
// `c`, `x`, `y`, `c*x`, `cx`, combined with + and -. Strict comparisons
// (<, >) are accepted and treated as their closures (the paper's footnote 2
// notes the extension to strict operators; topological closure does not
// change ALL/EXIST answers for full-dimensional extensions).

#ifndef CDB_CONSTRAINT_PARSER_H_
#define CDB_CONSTRAINT_PARSER_H_

#include <string>

#include "common/status.h"
#include "constraint/generalized_tuple.h"

namespace cdb {

/// Parses `text` into a generalized tuple. On error, returns
/// InvalidArgument with a message pointing at the offending token; a tuple
/// that parses but fails ValidateTuple (a coefficient outside the exact
/// range) is InvalidArgument too.
Status ParseGeneralizedTuple(const std::string& text, GeneralizedTuple* out);

/// Parses a half-plane query of the form "y <= 2*x + 3" or "y >= -0.5x".
/// The left side must be exactly `y` (the paper's non-vertical query form).
Status ParseHalfPlaneQuery(const std::string& text, HalfPlaneQuery* out);

/// Renders a tuple back to the textual syntax (one constraint per ", ").
std::string FormatGeneralizedTuple(const GeneralizedTuple& tuple);

}  // namespace cdb

#endif  // CDB_CONSTRAINT_PARSER_H_
