#include "constraint/parser.h"

#include <cctype>
#include <cmath>
#include <sstream>

namespace cdb {

namespace {

// Linear expression a*x + b*y + c accumulated during parsing.
struct LinExpr {
  double a = 0.0, b = 0.0, c = 0.0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }

  char Peek() {
    SkipSpace();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes the keyword "and" (case-insensitive) if present.
  bool ConsumeAnd() {
    SkipSpace();
    if (pos_ + 3 <= s_.size() &&
        std::tolower(s_[pos_]) == 'a' && std::tolower(s_[pos_ + 1]) == 'n' &&
        std::tolower(s_[pos_ + 2]) == 'd') {
      pos_ += 3;
      return true;
    }
    return false;
  }

  /// Parses a comparison operator; returns "" if absent.
  std::string ConsumeCmp() {
    SkipSpace();
    if (pos_ >= s_.size()) return "";
    char c = s_[pos_];
    if (c == '<' || c == '>') {
      ++pos_;
      if (pos_ < s_.size() && s_[pos_] == '=') {
        ++pos_;
        return std::string(1, c) + "=";
      }
      return std::string(1, c);
    }
    if (c == '=') {
      ++pos_;
      return "=";
    }
    return "";
  }

  bool ConsumeNumber(double* out) {
    SkipSpace();
    size_t start = pos_;
    size_t p = pos_;
    while (p < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[p])) || s_[p] == '.')) {
      ++p;
    }
    if (p == start) return false;
    try {
      size_t used = 0;
      *out = std::stod(s_.substr(start, p - start), &used);
      pos_ = start + used;
      return used > 0;
    } catch (...) {
      return false;
    }
  }

  size_t pos() const { return pos_; }
  std::string Rest() const { return s_.substr(std::min(pos_, s_.size())); }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

// term := [number] ['*'] [var] | var
// expr := ['-'|'+'] term (('+'|'-') term)*
Status ParseExpr(Lexer* lex, LinExpr* out) {
  *out = LinExpr();
  double sign = 1.0;
  bool first = true;
  while (true) {
    if (lex->Consume('-')) {
      sign = -sign;
      continue;
    }
    if (lex->Consume('+')) continue;

    double coeff = 1.0;
    bool have_number = lex->ConsumeNumber(&coeff);
    lex->Consume('*');  // Optional explicit multiplication.
    char v = lex->Peek();
    if (v == 'x' || v == 'X') {
      lex->Consume(v);
      out->a += sign * coeff;
    } else if (v == 'y' || v == 'Y') {
      lex->Consume(v);
      out->b += sign * coeff;
    } else if (have_number) {
      out->c += sign * coeff;
    } else {
      return Status::InvalidArgument(
          "expected a term near '" + lex->Rest().substr(0, 12) + "'");
    }
    first = false;
    sign = 1.0;

    char next = lex->Peek();
    if (next == '+' || next == '-') continue;
    break;
  }
  if (first) return Status::InvalidArgument("empty expression");
  return Status::OK();
}

// constraint := expr cmp expr
Status ParseConstraint(Lexer* lex, GeneralizedTuple* out) {
  LinExpr lhs, rhs;
  CDB_RETURN_IF_ERROR(ParseExpr(lex, &lhs));
  std::string op = lex->ConsumeCmp();
  if (op.empty()) {
    return Status::InvalidArgument("expected comparison near '" +
                                   lex->Rest().substr(0, 12) + "'");
  }
  CDB_RETURN_IF_ERROR(ParseExpr(lex, &rhs));
  // Normalize to (lhs - rhs) θ 0.
  double a = lhs.a - rhs.a, b = lhs.b - rhs.b, c = lhs.c - rhs.c;
  if (op == "<" || op == "<=") {
    out->Add(a, b, c, Cmp::kLE);
  } else if (op == ">" || op == ">=") {
    out->Add(a, b, c, Cmp::kGE);
  } else {  // '=' expands into the conjunction of both closures.
    out->Add(a, b, c, Cmp::kLE);
    out->Add(a, b, c, Cmp::kGE);
  }
  return Status::OK();
}

Status ParseConjunction(const std::string& text, GeneralizedTuple* out) {
  *out = GeneralizedTuple();
  Lexer lex(text);
  if (lex.AtEnd()) return Status::InvalidArgument("empty tuple text");
  while (true) {
    CDB_RETURN_IF_ERROR(ParseConstraint(&lex, out));
    if (lex.AtEnd()) return Status::OK();
    if (lex.Consume(',') || lex.ConsumeAnd()) continue;
    return Status::InvalidArgument("expected ',' or 'and' near '" +
                                   lex.Rest().substr(0, 12) + "'");
  }
}

}  // namespace

Status ParseGeneralizedTuple(const std::string& text, GeneralizedTuple* out) {
  CDB_RETURN_IF_ERROR(ParseConjunction(text, out));
  return ValidateTuple(*out);
}

Status ParseHalfPlaneQuery(const std::string& text, HalfPlaneQuery* out) {
  GeneralizedTuple tuple;
  CDB_RETURN_IF_ERROR(ParseConjunction(text, &tuple));
  // Accept a single non-vertical constraint; '=' (two constraints) is not a
  // half-plane.
  if (tuple.size() != 1) {
    return Status::InvalidArgument("query must be a single inequality");
  }
  const Constraint2D& c = tuple.constraints()[0];
  if (ApproxZero(c.b)) {
    return Status::InvalidArgument("query half-plane must not be vertical");
  }
  // a*x + b*y + c θ 0  ->  y θ' (-a/b)x + (-c/b), flipped when b < 0.
  double slope = -c.a / c.b;
  double intercept = -c.c / c.b;
  Cmp cmp = c.cmp;
  if (c.b < 0) cmp = Negate(cmp);
  *out = HalfPlaneQuery(slope, intercept, cmp);
  return Status::OK();
}

std::string FormatGeneralizedTuple(const GeneralizedTuple& tuple) {
  std::ostringstream os;
  bool first = true;
  for (const Constraint2D& c : tuple.constraints()) {
    if (!first) os << ", ";
    first = false;
    bool any = false;
    if (!ApproxZero(c.a)) {
      os << c.a << "x";
      any = true;
    }
    if (!ApproxZero(c.b)) {
      if (any && c.b > 0) os << " + ";
      if (c.b < 0) os << (any ? " - " : "-");
      os << std::fabs(c.b) << "y";
      any = true;
    }
    if (!ApproxZero(c.c) || !any) {
      if (any && c.c > 0) os << " + ";
      if (c.c < 0) os << (any ? " - " : "-");
      os << std::fabs(c.c);
    }
    os << (c.cmp == Cmp::kLE ? " <= 0" : " >= 0");
  }
  return os.str();
}

}  // namespace cdb
