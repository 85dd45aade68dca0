#include "xml/symbol_table.h"

namespace xqmft {

namespace {
constexpr std::size_t kInitialBuckets = 64;  // power of two
}

SymbolTable::SymbolTable() : buckets_(kInitialBuckets, kInvalidSymbol) {}

std::uint64_t SymbolTable::Hash(NodeKind kind, std::string_view name) {
  // FNV-1a over the bytes, with the kind folded in as a leading byte.
  std::uint64_t h = 14695981039346656037ull;
  h = (h ^ static_cast<std::uint64_t>(kind)) * 1099511628211ull;
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// The single probe loop: returns the bucket index holding (kind, name)'s id,
// or the empty bucket where it would be inserted.
std::size_t SymbolTable::ProbeIndex(std::uint64_t hash, NodeKind kind,
                                    std::string_view name) const {
  std::size_t mask = buckets_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (true) {
    SymbolId slot = buckets_[i];
    if (slot == kInvalidSymbol) return i;
    const Entry& e = entries_[slot];
    if (e.kind == kind && e.name == name) return i;
    i = (i + 1) & mask;
  }
}

void SymbolTable::Grow() {
  std::vector<SymbolId> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, kInvalidSymbol);
  std::size_t mask = buckets_.size() - 1;
  for (SymbolId id : old) {
    if (id == kInvalidSymbol) continue;
    const Entry& e = entries_[id];
    std::size_t i =
        static_cast<std::size_t>(Hash(e.kind, e.name)) & mask;
    while (buckets_[i] != kInvalidSymbol) i = (i + 1) & mask;
    buckets_[i] = id;
  }
}

SymbolId SymbolTable::Intern(NodeKind kind, std::string_view name) {
  std::size_t i = ProbeIndex(Hash(kind, name), kind, name);
  if (buckets_[i] != kInvalidSymbol) return buckets_[i];
  SymbolId id = static_cast<SymbolId>(entries_.size());
  entries_.push_back(Entry{kind, std::string(name)});
  buckets_[i] = id;
  if (entries_.size() * 10 > buckets_.size() * 7) Grow();
  return id;
}

SymbolId SymbolTable::Find(NodeKind kind, std::string_view name) const {
  return buckets_[ProbeIndex(Hash(kind, name), kind, name)];
}

}  // namespace xqmft
