// Bounds shared by the front-end parsers.
#ifndef XQMFT_UTIL_LIMITS_H_
#define XQMFT_UTIL_LIMITS_H_

#include <string>

#include "util/status.h"

namespace xqmft {

/// Deepest nesting the parsers accept: XQuery element constructors and
/// clauses, XPath predicates, MFT right-hand-side items. Every later stage
/// (translation, optimization, lowering, tree teardown) recurses over the
/// same nesting, so the cap keeps any program that parses within the stack
/// of the most stack-hungry supported build (ASan + UBSan); a query at the
/// cap compiles and runs there.
inline constexpr int kMaxNestingDepth = 256;

/// Counts one level of parser nesting for its lifetime.
class NestingGuard {
 public:
  explicit NestingGuard(int* depth) : depth_(depth) { ++*depth_; }
  ~NestingGuard() { --*depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;
  bool too_deep() const { return *depth_ > kMaxNestingDepth; }

 private:
  int* depth_;
};

/// The error for input nested deeper than kMaxNestingDepth. A resource
/// limit, not a syntax error: the text may well be valid.
inline Status NestingTooDeep(const char* what) {
  return Status::ResourceExhausted(
      std::string(what) + " nesting depth exceeds the limit of " +
      std::to_string(kMaxNestingDepth) + " levels");
}

}  // namespace xqmft

#endif  // XQMFT_UTIL_LIMITS_H_
