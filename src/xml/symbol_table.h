// Interned alphabet symbols.
//
// The streaming pipeline works over a fixed, small alphabet (element names
// plus the finitely many text literals tested by rules), yet the seed engine
// paid a std::string per event: the parser heap-allocated each name, every
// Cell and Expr owned a copy, and rule lookup re-hashed the label on every
// application. A SymbolTable interns each distinct (kind, name) pair once and
// hands out a dense uint32 SymbolId; every later layer — cells, rule
// dispatch, output expressions, emission — moves ids around and resolves a
// name exactly once, at the sink boundary.
//
// Ids are dense (0, 1, 2, ...) in first-intern order and never reassigned,
// which is what makes the per-state flat dispatch tables of RuleDispatch
// (mft/dispatch.h) possible: a rule table compiled against a table of size W
// classifies any id >= W as "not mentioned by any rule" without looking at
// the name.
//
// Element and text symbols are separate: Intern(kElement, "x") and
// Intern(kText, "x") yield different ids (a text node whose content equals an
// element name must not match the element's rules).
#ifndef XQMFT_XML_SYMBOL_TABLE_H_
#define XQMFT_XML_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "xml/symbol.h"

namespace xqmft {

/// Dense id of an interned (kind, name) symbol.
using SymbolId = std::uint32_t;

/// "No symbol": used for text cells/exprs that carry dynamic content.
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

/// \brief Interns (kind, name) pairs to dense SymbolIds. Copyable (a copy
/// keeps all existing ids and grows independently); not thread-safe.
class SymbolTable {
 public:
  SymbolTable();

  /// Returns the id of (kind, name), interning it on first sight. Ids are
  /// dense and stable: the same pair always yields the same id.
  SymbolId Intern(NodeKind kind, std::string_view name);

  /// Returns the id of (kind, name) or kInvalidSymbol if never interned.
  SymbolId Find(NodeKind kind, std::string_view name) const;

  /// Name of an interned id. The view stays valid for the table's lifetime
  /// (entries are deque-backed and never move).
  std::string_view name(SymbolId id) const { return entries_[id].name; }
  NodeKind kind(SymbolId id) const { return entries_[id].kind; }

  /// The (kind, name) pair as a Symbol (copies the name).
  Symbol symbol(SymbolId id) const {
    return Symbol(entries_[id].kind, entries_[id].name);
  }

  /// Number of interned symbols; valid ids are [0, size()).
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    NodeKind kind;
    std::string name;
  };

  static std::uint64_t Hash(NodeKind kind, std::string_view name);
  std::size_t ProbeIndex(std::uint64_t hash, NodeKind kind,
                         std::string_view name) const;
  void Grow();

  // Entries are deque-backed so name() views survive growth; the index is a
  // power-of-two open-addressing table of ids (kInvalidSymbol = empty slot),
  // rebuilt on load factor > 0.7. No per-lookup allocation, one hash per
  // intern — the only hashing left on the streaming element path.
  std::deque<Entry> entries_;
  std::vector<SymbolId> buckets_;
};

}  // namespace xqmft

#endif  // XQMFT_XML_SYMBOL_TABLE_H_
