// Streaming (pull) XML parser.
//
// The paper's engine sits behind Expat; this reproduction implements its own
// parser so the whole system is self-contained. Supported: elements,
// attributes, character data with entity references, CDATA, comments,
// processing instructions, DOCTYPE (skipped). Not supported (out of scope for
// the paper's workloads): namespaces-aware processing, DTD entity definitions.
//
// The lexer is bulk-scanning: the three dominant states — text until '<',
// name characters, attribute value until the quote — run memchr/char-class
// scans over the refill window instead of per-character pulls, and events are
// zero-copy (events.h): text views alias the window directly when a run is
// contiguous and entity-free, element names alias the symbol table (stable),
// and only the slow path — entities, CDATA splices, runs crossing a Refill()
// boundary — lands in a per-parser spill arena. Sources that expose their
// whole input as one region (StringSource, MmapSource) are scanned in place
// with no buffer copies at all.
//
// Projection skip (SkipElement): when the union projection rules an element
// out, the parser fast-forwards to its matching end tag without producing
// events — no interning, no text views, no pending queue. Everything the
// full lexer checks is still checked, with the same error text and the same
// line, column and byte: name-start characters, end-tag names (compared as
// bytes against a skip stack of names, not interned), attribute syntax and
// quoting, entities (DecodeEntity), comments, CDATA, PIs and DOCTYPE (the
// shared Skip*/LexCdata helpers). Character data runs through one fused
// kernel (ScanSkipRun in xml/char_class.h) that finds the next '<' or '&'
// and counts newlines in the same sweep.
#ifndef XQMFT_XML_SAX_PARSER_H_
#define XQMFT_XML_SAX_PARSER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Abstract byte source for the parser.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// Reads up to `n` bytes into `buf`; returns bytes read, 0 at end of input.
  virtual std::size_t Read(char* buf, std::size_t n) = 0;
  /// If the whole input is available as one contiguous region that stays
  /// valid for the source's lifetime (in-memory string, mmap), exposes it
  /// and returns true; the parser then scans the region in place and never
  /// calls Read().
  virtual bool Contents(std::string_view* out) {
    (void)out;
    return false;
  }
};

/// In-memory byte source (does not own the string).
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override;
  bool Contents(std::string_view* out) override {
    *out = s_;
    return true;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Buffered stdio file source; owns and closes the handle.
class FileSource : public ByteSource {
 public:
  /// Opens `path` for reading; returns an error Status if it cannot.
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path);
  ~FileSource() override;
  std::size_t Read(char* buf, std::size_t n) override;

 private:
  explicit FileSource(std::FILE* f) : f_(f) {}
  std::FILE* f_;
};

/// Memory-mapped file source: the parser scans the mapping in place, so file
/// input pays no stdio copy. Open() falls back to a FileSource on platforms
/// without mmap, on empty files, and on any mapping failure — callers always
/// get a working ByteSource for a readable file.
class MmapSource : public ByteSource {
 public:
  static Result<std::unique_ptr<ByteSource>> Open(const std::string& path);
  ~MmapSource() override;
  std::size_t Read(char* buf, std::size_t n) override;
  bool Contents(std::string_view* out) override {
    *out = std::string_view(static_cast<const char*>(map_), size_);
    return true;
  }

 private:
  MmapSource(void* map, std::size_t size) : map_(map), size_(size) {}
  void* map_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Parser configuration.
struct SaxOptions {
  /// Expand attributes into leading child elements with a text-node child
  /// (the encoding the paper uses for all experiments).
  bool expand_attributes = true;
  /// Drop text events that consist solely of ASCII whitespace.
  bool skip_whitespace_text = true;
};

/// True when two configurations tokenize identically — the one definition
/// every pretok-cache compatibility check uses (CLI, pipeline,
/// PretokCacheValid), so a new tokenization-affecting option cannot be
/// forgotten at some call sites and silently replay wrong events.
inline bool SameTokenization(SaxOptions a, SaxOptions b) {
  return a.expand_attributes == b.expand_attributes &&
         a.skip_whitespace_text == b.skip_whitespace_text;
}

/// \brief Pull parser: call Next() repeatedly until kEndOfDocument.
///
/// The parser validates tag nesting; a mismatched or unclosed tag yields an
/// InvalidArgument status.
class SaxParser : public EventSource {
 public:
  /// If `symbols` is null the parser owns a private table; pass a shared one
  /// to keep ids consistent with a consumer (the streaming engine passes the
  /// table its rule dispatch was compiled against).
  SaxParser(ByteSource* source, SaxOptions options = {},
            SymbolTable* symbols = nullptr);

  /// Produces the next event. After kEndOfDocument, keeps returning it.
  /// Event views are valid until the next call (events.h contract).
  Status Next(XmlEvent* event) override;

  /// Consumes the rest of the element whose start tag the last Next()
  /// returned through its matching end tag, producing no events and
  /// dropping the tag's queued attribute and self-close events (for an
  /// expanded attribute's start, just that attribute's queued events). Accepts and
  /// rejects exactly what Next() would (see the file comment); polls
  /// `cancel` as EventSource::SkipElement describes. Fails with Internal
  /// when the last Next() did not return a start tag.
  Status SkipElement(const CancelToken* cancel) override;

  /// Number of bytes consumed so far.
  std::size_t bytes_consumed() const override { return bytes_consumed_; }

  /// Re-points name interning at `symbols`; call before the first Next().
  void BindSymbols(SymbolTable* symbols) override { symbols_ = symbols; }

  /// 1-based line of the next unread byte.
  std::size_t line() const { return line_; }
  /// 1-based column (byte offset within the line) of the next unread byte.
  std::size_t column() const { return bytes_consumed_ - line_start_ + 1; }

  /// The table element names are interned into.
  const SymbolTable& symbols() const { return *symbols_; }

 private:
  // A synthetic event queued behind a start tag (attribute encoding,
  // self-closing end). Text payloads are (offset, length) into tag_spill_
  // so the arena can reallocate while the tag is still being lexed.
  struct PendingEvent {
    XmlEventType type;
    SymbolId symbol;
    std::uint32_t text_off;
    std::uint32_t text_len;
  };
  struct AttrRecord {
    SymbolId symbol;
    std::uint32_t value_off;
    std::uint32_t value_len;
  };

  int GetChar();
  int PeekChar();
  bool Refill();
  /// Consumes `n` bytes of the current window, tracking newlines in bulk.
  void Advance(std::size_t n);
  /// Consumes ASCII whitespace (across refills).
  void SkipWs();
  Status Fail(const std::string& msg) const;

  Status LexMarkup(XmlEvent* event);
  Status LexText(XmlEvent* event);
  /// Scans one XML name. The returned view aliases the window (fast path)
  /// or name_spill_ (name split across a refill); both are invalidated by
  /// the next LexName/Refill, so callers intern or compare immediately.
  Status LexName(std::string_view* out);
  Status LexAttrValue(std::uint32_t* off, std::uint32_t* len);
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status SkipDoctype();
  Status LexCdata(std::string_view* out);
  Status DecodeEntity(std::string* out);

  // Projection skip (SkipElement). The skip stack holds the names of the
  // elements open inside the skipped one (itself included), concatenated in
  // skip_names_ with name i starting at skip_starts_[i].
  Status SkipMarkup();
  std::string_view SkipTop() const;
  void PushSkip(std::string_view name);
  void PopSkip();
  /// Consumes `n` newline-free bytes of the current window.
  void Consume(std::size_t n) {
    bytes_consumed_ += n;
    pos_ += n;
  }

  ByteSource* source_;
  SaxOptions options_;
  SymbolTable owned_symbols_;     // used when no shared table is supplied
  SymbolTable* symbols_;

  // Scan window: the whole input (mapped sources) or buf_ (refilled).
  const char* data_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool mapped_ = false;
  std::vector<char> buf_;

  std::size_t bytes_consumed_ = 0;
  std::size_t line_ = 1;          // 1-based line of the next unread byte
  std::size_t line_start_ = 0;    // bytes_consumed_ at the start of line_
  bool eof_ = false;
  bool done_ = false;
  std::vector<SymbolId> open_;    // element stack for well-formedness

  // Spill arenas (reused, no steady-state allocation): text/CDATA runs that
  // cross a refill or contain entities; names split across a refill;
  // attribute values (always spilled — they must survive until the tag's
  // synthetic events drain).
  std::string text_spill_;
  std::string name_spill_;
  std::string tag_spill_;
  std::vector<AttrRecord> attrs_scratch_;
  std::vector<XmlAttr> attrs_view_;  // backing for XmlEvent::attrs
  std::vector<PendingEvent> pending_;
  std::size_t pending_head_ = 0;

  // What SkipElement may skip: set when Next() returns a start tag (or an
  // expanded attribute's start from the pending queue), reset by the next
  // call to Next().
  enum class SkipTarget : unsigned char {
    kNone,
    kOpen,
    kSelfClosed,
    kAttribute
  };
  SkipTarget skip_target_ = SkipTarget::kNone;
  std::string skip_names_;
  std::vector<std::size_t> skip_starts_;
};

/// Parses a whole document (or forest of documents) into a DOM Forest.
Result<Forest> ParseXmlForest(std::string_view xml, SaxOptions options = {});

/// Parses a file into a DOM Forest (memory-mapped when the platform allows).
Result<Forest> ParseXmlFile(const std::string& path, SaxOptions options = {});

}  // namespace xqmft

#endif  // XQMFT_XML_SAX_PARSER_H_
