#include "xml/sax_parser.h"

#include <cstring>

#include "util/strings.h"
#include "xml/char_class.h"

#if defined(__unix__) || defined(__APPLE__)
#define XQMFT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace xqmft {

// Character classification (the table and the bulk Scan* helpers, scalar
// and SIMD) lives in xml/char_class.h so the two scan paths share one
// definition.
namespace {
constexpr std::size_t kBufSize = 1 << 16;
}  // namespace

std::size_t StringSource::Read(char* buf, std::size_t n) {
  std::size_t avail = s_.size() - pos_;
  std::size_t take = n < avail ? n : avail;
  std::memcpy(buf, s_.data() + pos_, take);
  pos_ += take;
  return take;
}

Result<std::unique_ptr<FileSource>> FileSource::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open file: " + path);
  }
  return std::unique_ptr<FileSource>(new FileSource(f));
}

FileSource::~FileSource() {
  if (f_ != nullptr) std::fclose(f_);
}

std::size_t FileSource::Read(char* buf, std::size_t n) {
  return std::fread(buf, 1, n, f_);
}

Result<std::unique_ptr<ByteSource>> MmapSource::Open(const std::string& path) {
#if XQMFT_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct ::stat st;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
        ::madvise(map, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
        return std::unique_ptr<ByteSource>(
            new MmapSource(map, static_cast<std::size_t>(st.st_size)));
      }
    } else {
      ::close(fd);
    }
  }
#endif
  // No mmap (non-regular file, empty file, platform without it): stdio.
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<FileSource> f,
                         FileSource::Open(path));
  return std::unique_ptr<ByteSource>(std::move(f));
}

MmapSource::~MmapSource() {
#if XQMFT_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

std::size_t MmapSource::Read(char* buf, std::size_t n) {
  std::size_t avail = size_ - pos_;
  std::size_t take = n < avail ? n : avail;
  std::memcpy(buf, static_cast<const char*>(map_) + pos_, take);
  pos_ += take;
  return take;
}

SaxParser::SaxParser(ByteSource* source, SaxOptions options,
                     SymbolTable* symbols)
    : source_(source),
      options_(options),
      symbols_(symbols != nullptr ? symbols : &owned_symbols_) {
  std::string_view all;
  if (source_->Contents(&all)) {
    data_ = all.data();
    len_ = all.size();
    mapped_ = true;
  } else {
    buf_.resize(kBufSize);
    data_ = buf_.data();
  }
}

bool SaxParser::Refill() {
  if (eof_) return false;
  if (mapped_) {
    eof_ = true;
    return false;
  }
  len_ = source_->Read(buf_.data(), buf_.size());
  data_ = buf_.data();
  pos_ = 0;
  if (len_ == 0) {
    eof_ = true;
    return false;
  }
  return true;
}

int SaxParser::GetChar() {
  if (pos_ >= len_ && !Refill()) return -1;
  ++bytes_consumed_;
  int c = static_cast<unsigned char>(data_[pos_++]);
  if (c == '\n') {
    ++line_;
    line_start_ = bytes_consumed_;
  }
  return c;
}

int SaxParser::PeekChar() {
  if (pos_ >= len_ && !Refill()) return -1;
  return static_cast<unsigned char>(data_[pos_]);
}

void SaxParser::Advance(std::size_t n) {
  const char* base = data_ + pos_;
  std::size_t searched = 0;
  while (searched < n) {
    const void* nl = std::memchr(base + searched, '\n', n - searched);
    if (nl == nullptr) break;
    searched =
        static_cast<std::size_t>(static_cast<const char*>(nl) - base) + 1;
    ++line_;
    line_start_ = bytes_consumed_ + searched;
  }
  bytes_consumed_ += n;
  pos_ += n;
}

void SaxParser::SkipWs() {
  while (true) {
    Advance(ScanWsRun(data_ + pos_, len_ - pos_));
    if (pos_ < len_ || !Refill()) return;
  }
}

Status SaxParser::Fail(const std::string& msg) const {
  return Status::InvalidArgument(
      StrFormat("XML parse error at line %zu, column %zu (byte %zu): %s",
                line_, column(), bytes_consumed_, msg.c_str()));
}

Status SaxParser::Next(XmlEvent* event) {
  skip_target_ = SkipTarget::kNone;
  if (pending_head_ < pending_.size()) {
    const PendingEvent& p = pending_[pending_head_++];
    if (p.type == XmlEventType::kStartElement) {
      skip_target_ = SkipTarget::kAttribute;
    }
    event->type = p.type;
    event->symbol = p.symbol;
    event->attrs = nullptr;
    event->attr_count = 0;
    if (p.type == XmlEventType::kText) {
      event->name = {};
      event->text = std::string_view(tag_spill_).substr(p.text_off, p.text_len);
    } else {
      event->name = symbols_->name(p.symbol);
      event->text = {};
    }
    return Status::OK();
  }
  if (done_) {
    *event = XmlEvent{};
    return Status::OK();
  }
  while (true) {
    int c = PeekChar();
    if (c < 0) {
      if (!open_.empty()) {
        return Fail("unexpected end of input; unclosed <" +
                    std::string(symbols_->name(open_.back())) + ">");
      }
      done_ = true;
      *event = XmlEvent{};
      return Status::OK();
    }
    if (c == '<') {
      XQMFT_RETURN_NOT_OK(LexMarkup(event));
      if (event->type == XmlEventType::kEndOfDocument) continue;  // skipped
      return Status::OK();
    }
    XQMFT_RETURN_NOT_OK(LexText(event));
    if (event->type == XmlEventType::kEndOfDocument) continue;  // all-ws text
    return Status::OK();
  }
}

Status SaxParser::LexText(XmlEvent* event) {
  // Fast path: the whole run sits inside the current window with no entity —
  // the event views the window directly and nothing is copied. Any refill or
  // '&' switches to the spill arena for the rest of the run.
  bool all_ws = true;
  bool spilled = false;
  std::size_t run_start = pos_;
  text_spill_.clear();
  while (true) {
    if (pos_ >= len_) {
      if (!spilled) {
        text_spill_.append(data_ + run_start, pos_ - run_start);
        spilled = true;
      }
      if (!Refill()) break;  // end of input ends the run
      run_start = pos_;
      continue;
    }
    const char* base = data_ + pos_;
    std::size_t n = len_ - pos_;
    // One fused sweep finds the run limit ('<' or '&') and accumulates the
    // all-whitespace bit — the SIMD path classifies 16 bytes per step.
    std::size_t take = ScanTextRun(base, n, &all_ws);
    int stop = take < n ? static_cast<unsigned char>(base[take]) : -1;
    if (take > 0) {
      Advance(take);
      if (spilled) text_spill_.append(base, take);
    }
    if (stop == '&') {
      if (!spilled) {
        text_spill_.append(data_ + run_start, pos_ - run_start);
        spilled = true;
      }
      GetChar();  // '&'
      XQMFT_RETURN_NOT_OK(DecodeEntity(&text_spill_));
      all_ws = false;
      continue;
    }
    if (stop == '<') break;  // markup ends the run
  }
  std::string_view text =
      spilled ? std::string_view(text_spill_)
              : std::string_view(data_ + run_start, pos_ - run_start);
  if (all_ws && options_.skip_whitespace_text) {
    event->type = XmlEventType::kEndOfDocument;  // sentinel: nothing produced
    return Status::OK();
  }
  if (!open_.empty() || !all_ws) {
    event->type = XmlEventType::kText;
    event->symbol = kInvalidSymbol;
    event->text = text;
    event->name = {};
    event->attrs = nullptr;
    event->attr_count = 0;
    return Status::OK();
  }
  event->type = XmlEventType::kEndOfDocument;  // top-level whitespace
  return Status::OK();
}

Status SaxParser::LexMarkup(XmlEvent* event) {
  GetChar();  // '<'
  int c = PeekChar();
  if (c < 0) return Fail("truncated markup");
  if (c == '!') {
    GetChar();
    c = PeekChar();
    if (c == '-') {
      XQMFT_RETURN_NOT_OK(SkipComment());
      event->type = XmlEventType::kEndOfDocument;
      return Status::OK();
    }
    if (c == '[') {
      std::string_view text;
      XQMFT_RETURN_NOT_OK(LexCdata(&text));
      event->type = XmlEventType::kText;
      event->symbol = kInvalidSymbol;
      event->text = text;
      event->name = {};
      event->attrs = nullptr;
      event->attr_count = 0;
      return Status::OK();
    }
    XQMFT_RETURN_NOT_OK(SkipDoctype());
    event->type = XmlEventType::kEndOfDocument;
    return Status::OK();
  }
  if (c == '?') {
    XQMFT_RETURN_NOT_OK(SkipProcessingInstruction());
    event->type = XmlEventType::kEndOfDocument;
    return Status::OK();
  }
  if (c == '/') {
    GetChar();
    // The end tag's id comes off the open-element stack: matching the name
    // against the stack top needs a compare, not a (re-)intern. The compare
    // runs before SkipWs — the name view may alias the window, and a refill
    // would invalidate it; error *reporting* stays after the '>' so failure
    // positions match the seed parser exactly.
    std::string_view name;
    XQMFT_RETURN_NOT_OK(LexName(&name));
    bool have_open = !open_.empty();
    bool match = have_open && symbols_->name(open_.back()) == name;
    std::string name_copy;
    if (!match) name_copy.assign(name);
    SkipWs();
    if (GetChar() != '>') return Fail("expected '>' in end tag");
    if (!have_open) {
      return Fail("end tag </" + name_copy + "> with no open element");
    }
    if (!match) {
      return Fail("mismatched end tag </" + name_copy + ">, expected </" +
                  std::string(symbols_->name(open_.back())) + ">");
    }
    event->type = XmlEventType::kEndElement;
    event->symbol = open_.back();
    event->name = symbols_->name(event->symbol);
    event->text = {};
    event->attrs = nullptr;
    event->attr_count = 0;
    open_.pop_back();
    return Status::OK();
  }
  // Start tag. The pending queue is always drained before lexing resumes,
  // so the per-tag arenas can be reset here.
  std::string_view name;
  XQMFT_RETURN_NOT_OK(LexName(&name));
  SymbolId sym = symbols_->Intern(NodeKind::kElement, name);
  pending_.clear();
  pending_head_ = 0;
  tag_spill_.clear();
  attrs_scratch_.clear();
  bool self_closing = false;
  while (true) {
    SkipWs();
    c = PeekChar();
    if (c < 0) {
      return Fail("truncated start tag <" +
                  std::string(symbols_->name(sym)));
    }
    if (c == '>') {
      GetChar();
      open_.push_back(sym);
      break;
    }
    if (c == '/') {
      GetChar();
      if (GetChar() != '>') return Fail("expected '/>' in empty-element tag");
      self_closing = true;
      break;
    }
    std::string_view attr_name;
    XQMFT_RETURN_NOT_OK(LexName(&attr_name));
    // Attribute names intern like element names: the expanded encoding turns
    // them into elements anyway, and interning gives the event a stable view.
    SymbolId attr_sym = symbols_->Intern(NodeKind::kElement, attr_name);
    SkipWs();
    if (GetChar() != '=') return Fail("expected '=' after attribute name");
    SkipWs();
    AttrRecord rec;
    rec.symbol = attr_sym;
    XQMFT_RETURN_NOT_OK(LexAttrValue(&rec.value_off, &rec.value_len));
    attrs_scratch_.push_back(rec);
  }
  event->type = XmlEventType::kStartElement;
  event->symbol = sym;
  event->name = symbols_->name(sym);
  event->text = {};
  event->attrs = nullptr;
  event->attr_count = 0;
  if (options_.expand_attributes) {
    // Encode <e a="v"> as <e><a>v</a>... : attribute nodes become the first
    // children, each with a single text child (paper Section 2 / Figure 1).
    for (const AttrRecord& rec : attrs_scratch_) {
      pending_.push_back(
          {XmlEventType::kStartElement, rec.symbol, 0, 0});
      if (rec.value_len > 0) {
        pending_.push_back(
            {XmlEventType::kText, kInvalidSymbol, rec.value_off,
             rec.value_len});
      }
      pending_.push_back({XmlEventType::kEndElement, rec.symbol, 0, 0});
    }
  } else if (!attrs_scratch_.empty()) {
    attrs_view_.clear();
    for (const AttrRecord& rec : attrs_scratch_) {
      attrs_view_.push_back(
          {symbols_->name(rec.symbol),
           std::string_view(tag_spill_).substr(rec.value_off, rec.value_len)});
    }
    event->attrs = attrs_view_.data();
    event->attr_count = attrs_view_.size();
  }
  if (self_closing) {
    // Queue the matching end event behind any attribute-encoding events.
    pending_.push_back({XmlEventType::kEndElement, sym, 0, 0});
  }
  skip_target_ = self_closing ? SkipTarget::kSelfClosed : SkipTarget::kOpen;
  return Status::OK();
}

Status SaxParser::LexName(std::string_view* out) {
  if (pos_ >= len_ && !Refill()) return Fail("expected a name");
  if (!(CharClassOf(data_[pos_]) & kClsNameStart)) {
    return Fail("expected a name");
  }
  std::size_t p = pos_ + 1;
  p += ScanNameRun(data_ + p, len_ - p);
  if (p < len_) {
    *out = std::string_view(data_ + pos_, p - pos_);
    Advance(p - pos_);
    return Status::OK();
  }
  // The name may continue past the window: spill what we have and keep
  // scanning across refills.
  name_spill_.assign(data_ + pos_, p - pos_);
  Advance(p - pos_);
  while (pos_ < len_ || Refill()) {
    std::size_t q = pos_ + ScanNameRun(data_ + pos_, len_ - pos_);
    name_spill_.append(data_ + pos_, q - pos_);
    Advance(q - pos_);
    if (pos_ < len_) break;  // a non-name byte ended the scan
  }
  *out = name_spill_;
  return Status::OK();
}

Status SaxParser::LexAttrValue(std::uint32_t* off, std::uint32_t* len) {
  int quote = GetChar();
  if (quote != '"' && quote != '\'') {
    return Fail("attribute value must be quoted");
  }
  // Values land in tag_spill_ unconditionally: they must stay valid while
  // the tag's synthetic child events drain, which outlives the window.
  *off = static_cast<std::uint32_t>(tag_spill_.size());
  while (true) {
    if (pos_ >= len_ && !Refill()) return Fail("unterminated attribute value");
    const char* base = data_ + pos_;
    std::size_t n = len_ - pos_;
    std::size_t take = ScanAttrRun(base, n, static_cast<char>(quote));
    int stop = take < n ? static_cast<unsigned char>(base[take]) : -1;
    tag_spill_.append(base, take);
    Advance(take);
    if (stop == '&') {
      GetChar();  // '&'
      XQMFT_RETURN_NOT_OK(DecodeEntity(&tag_spill_));
      continue;
    }
    if (stop == quote) {
      GetChar();  // closing quote
      break;
    }
  }
  // Offsets/lengths into tag_spill_ are stored as uint32 — a tag whose
  // attribute values total >= 4 GiB must fail loudly, not wrap silently
  // (mirrors RefString::Copy's bound).
  if (tag_spill_.size() >= (std::uint64_t{1} << 32)) {
    return Fail("attribute values exceed 4 GiB in one tag");
  }
  *len = static_cast<std::uint32_t>(tag_spill_.size() - *off);
  return Status::OK();
}

Status SaxParser::SkipComment() {
  // At "-", already consumed "<!".
  if (GetChar() != '-' || GetChar() != '-') return Fail("malformed comment");
  int dashes = 0;
  while (true) {
    if (pos_ >= len_ && !Refill()) return Fail("unterminated comment");
    if (dashes == 0) {
      // Bulk-skip to the next '-' (comment bodies are dash-free runs).
      const void* m = std::memchr(data_ + pos_, '-', len_ - pos_);
      if (m == nullptr) {
        Advance(len_ - pos_);
        continue;
      }
      Advance(static_cast<std::size_t>(static_cast<const char*>(m) -
                                       (data_ + pos_)));
    }
    int c = GetChar();
    if (c < 0) return Fail("unterminated comment");
    if (c == '-') {
      ++dashes;
    } else if (c == '>' && dashes >= 2) {
      return Status::OK();
    } else {
      dashes = 0;
    }
  }
}

Status SaxParser::SkipProcessingInstruction() {
  GetChar();  // '?'
  bool qmark = false;
  while (true) {
    if (pos_ >= len_ && !Refill()) {
      return Fail("unterminated processing instruction");
    }
    if (!qmark) {
      const void* m = std::memchr(data_ + pos_, '?', len_ - pos_);
      if (m == nullptr) {
        Advance(len_ - pos_);
        continue;
      }
      Advance(static_cast<std::size_t>(static_cast<const char*>(m) -
                                       (data_ + pos_)));
    }
    int c = GetChar();
    if (c < 0) return Fail("unterminated processing instruction");
    if (c == '>' && qmark) return Status::OK();
    qmark = (c == '?');
  }
}

Status SaxParser::SkipDoctype() {
  // Already consumed "<!". Skip until the matching '>', tracking an optional
  // internal subset in [...]. DOCTYPEs are rare and small: per-char is fine.
  int depth = 0;
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated DOCTYPE");
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == '>' && depth <= 0) return Status::OK();
  }
}

Status SaxParser::LexCdata(std::string_view* out) {
  // At "[", already consumed "<!".
  const char* expect = "[CDATA[";
  for (const char* p = expect; *p; ++p) {
    if (GetChar() != *p) return Fail("malformed CDATA section");
  }
  // Fast path: "]]>" terminator inside the current window — view in place.
  {
    std::size_t start = pos_;
    std::size_t q = pos_;
    while (q + 2 < len_) {
      const void* m = std::memchr(data_ + q, ']', len_ - q - 2);
      if (m == nullptr) break;
      q = static_cast<std::size_t>(static_cast<const char*>(m) - data_);
      if (data_[q + 1] == ']' && data_[q + 2] == '>') {
        *out = std::string_view(data_ + start, q - start);
        Advance(q + 3 - pos_);
        return Status::OK();
      }
      ++q;
    }
  }
  // Slow path (terminator beyond the window): spill with the ]]-lookahead
  // state machine, leftmost-"]]>" semantics as above.
  text_spill_.clear();
  int state = 0;  // count of trailing ']'
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated CDATA section");
    if (c == ']') {
      if (state < 2) {
        ++state;
        continue;
      }
      text_spill_ += ']';  // more than two: emit the oldest
      continue;
    }
    if (c == '>' && state == 2) {
      *out = text_spill_;
      return Status::OK();
    }
    while (state > 0) {
      text_spill_ += ']';
      --state;
    }
    text_spill_ += static_cast<char>(c);
  }
}

Status SaxParser::DecodeEntity(std::string* out) {
  std::string ent;
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated entity reference");
    if (c == ';') break;
    ent += static_cast<char>(c);
    if (ent.size() > 10) return Fail("entity reference too long: &" + ent);
  }
  if (ent == "amp") {
    *out += '&';
  } else if (ent == "lt") {
    *out += '<';
  } else if (ent == "gt") {
    *out += '>';
  } else if (ent == "quot") {
    *out += '"';
  } else if (ent == "apos") {
    *out += '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    long code = 0;
    if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
      code = std::strtol(ent.c_str() + 2, nullptr, 16);
    } else {
      code = std::strtol(ent.c_str() + 1, nullptr, 10);
    }
    if (code <= 0 || code > 0x10FFFF) return Fail("bad character reference");
    // UTF-8 encode.
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  } else {
    return Fail("unknown entity &" + ent + ";");
  }
  return Status::OK();
}

// --- Projection skip ---------------------------------------------------------
//
// Every check below is the full lexer's own, made in the same order from the
// same position, so a skipped element fails exactly where and how Next()
// would have. The fast paths only take "<name>" and "</top>" wholly inside
// the window; anything else goes through the general path, which walks the
// same helpers as LexMarkup minus interning and event building.

std::string_view SaxParser::SkipTop() const {
  return std::string_view(skip_names_).substr(skip_starts_.back());
}

void SaxParser::PushSkip(std::string_view name) {
  skip_starts_.push_back(skip_names_.size());
  skip_names_.append(name.data(), name.size());
}

void SaxParser::PopSkip() {
  skip_names_.resize(skip_starts_.back());
  skip_starts_.pop_back();
}

Status SaxParser::SkipElement(const CancelToken* cancel) {
  const SkipTarget target = skip_target_;
  skip_target_ = SkipTarget::kNone;
  if (target == SkipTarget::kNone) {
    return Status::Internal(
        "SkipElement must directly follow the start tag Next() returned");
  }
  if (target == SkipTarget::kAttribute) {
    // An expanded attribute: drop its queued text and end events.
    while (pending_[pending_head_++].type != XmlEventType::kEndElement) {
    }
    return Status::OK();
  }
  // The tag's attribute/self-close events; dropping them also frees
  // tag_spill_, which the skip reuses.
  pending_head_ = pending_.size();
  if (target == SkipTarget::kSelfClosed) return Status::OK();
  // The element moves from the open stack to the skip stack.
  skip_names_.clear();
  skip_starts_.clear();
  PushSkip(symbols_->name(open_.back()));
  open_.pop_back();
  std::size_t next_poll = bytes_consumed_ + kSkipPollBytes;
  while (true) {
    if (cancel != nullptr && bytes_consumed_ >= next_poll) {
      next_poll = bytes_consumed_ + kSkipPollBytes;
      XQMFT_RETURN_NOT_OK(cancel->Check());
    }
    if (pos_ >= len_ && !Refill()) {
      return Fail("unexpected end of input; unclosed <" +
                  std::string(SkipTop()) + ">");
    }
    if (data_[pos_] != '<') {
      // Character data: one sweep to the next '<' or '&', counting
      // newlines, at most one poll stride at a time.
      const char* base = data_ + pos_;
      const std::size_t n =
          len_ - pos_ < kSkipPollBytes ? len_ - pos_ : kSkipPollBytes;
      std::size_t newlines;
      std::size_t line_end;
      const std::size_t take = ScanSkipRun(base, n, &newlines, &line_end);
      if (newlines != 0) {
        line_ += newlines;
        line_start_ = bytes_consumed_ + line_end;
      }
      Consume(take);
      if (take == n) continue;  // window or poll stride exhausted
      if (base[take] == '&') {
        Consume(1);
        text_spill_.clear();  // decoded only to be checked
        XQMFT_RETURN_NOT_OK(DecodeEntity(&text_spill_));
        continue;
      }
    }
    XQMFT_RETURN_NOT_OK(SkipMarkup());
    if (skip_starts_.empty()) return Status::OK();
  }
}

Status SaxParser::SkipMarkup() {
  // At '<'. Fast paths first: "</top>" and "<name>" inside the window.
  if (pos_ + 1 < len_) {
    const char c = data_[pos_ + 1];
    if (c == '/') {
      const std::string_view top = SkipTop();
      const std::size_t end = pos_ + 2 + top.size();
      if (end < len_ && data_[end] == '>' &&
          std::memcmp(data_ + pos_ + 2, top.data(), top.size()) == 0) {
        Consume(end + 1 - pos_);
        PopSkip();
        return Status::OK();
      }
    } else if (CharClassOf(c) & kClsNameStart) {
      std::size_t q = pos_ + 2;
      q += ScanNameRun(data_ + q, len_ - q);
      if (q < len_ && data_[q] == '>') {
        PushSkip(std::string_view(data_ + pos_ + 1, q - pos_ - 1));
        Consume(q + 1 - pos_);
        return Status::OK();
      }
    }
  }
  GetChar();  // '<'
  int c = PeekChar();
  if (c < 0) return Fail("truncated markup");
  if (c == '!') {
    GetChar();
    c = PeekChar();
    if (c == '-') return SkipComment();
    if (c == '[') {
      std::string_view text;
      return LexCdata(&text);
    }
    return SkipDoctype();
  }
  if (c == '?') return SkipProcessingInstruction();
  if (c == '/') {
    GetChar();
    std::string_view name;
    XQMFT_RETURN_NOT_OK(LexName(&name));
    const bool match = name == SkipTop();
    std::string name_copy;
    if (!match) name_copy.assign(name);
    SkipWs();
    if (GetChar() != '>') return Fail("expected '>' in end tag");
    if (!match) {
      return Fail("mismatched end tag </" + name_copy + ">, expected </" +
                  std::string(SkipTop()) + ">");
    }
    PopSkip();
    return Status::OK();
  }
  std::string_view name;
  XQMFT_RETURN_NOT_OK(LexName(&name));
  PushSkip(name);
  // Attribute values spill as in LexMarkup (nothing reads them; the spill
  // keeps LexAttrValue's per-tag bound).
  tag_spill_.clear();
  while (true) {
    SkipWs();
    c = PeekChar();
    if (c < 0) return Fail("truncated start tag <" + std::string(SkipTop()));
    if (c == '>') {
      GetChar();
      return Status::OK();
    }
    if (c == '/') {
      GetChar();
      if (GetChar() != '>') return Fail("expected '/>' in empty-element tag");
      PopSkip();
      return Status::OK();
    }
    std::string_view attr_name;
    XQMFT_RETURN_NOT_OK(LexName(&attr_name));
    SkipWs();
    if (GetChar() != '=') return Fail("expected '=' after attribute name");
    SkipWs();
    std::uint32_t value_off;
    std::uint32_t value_len;
    XQMFT_RETURN_NOT_OK(LexAttrValue(&value_off, &value_len));
  }
}

namespace {

Result<Forest> BuildForest(SaxParser* parser) {
  Forest roots;
  std::vector<Tree*> stack;
  XmlEvent ev;
  while (true) {
    XQMFT_RETURN_NOT_OK(parser->Next(&ev));
    switch (ev.type) {
      case XmlEventType::kEndOfDocument:
        return roots;
      case XmlEventType::kStartElement: {
        Forest* parent = stack.empty() ? &roots : &stack.back()->children;
        parent->push_back(Tree::Element(std::string(ev.name)));
        stack.push_back(&parent->back());
        break;
      }
      case XmlEventType::kEndElement:
        if (stack.empty()) return Status::Internal("builder stack underflow");
        stack.pop_back();
        break;
      case XmlEventType::kText: {
        Forest* parent = stack.empty() ? &roots : &stack.back()->children;
        // Merge adjacent text (CDATA next to text, entity splits).
        if (!parent->empty() && parent->back().kind == NodeKind::kText) {
          parent->back().label += ev.text;
        } else {
          parent->push_back(Tree::Text(std::string(ev.text)));
        }
        break;
      }
    }
  }
}

}  // namespace

Result<Forest> ParseXmlForest(std::string_view xml, SaxOptions options) {
  StringSource src(xml);
  SaxParser parser(&src, options);
  return BuildForest(&parser);
}

Result<Forest> ParseXmlFile(const std::string& path, SaxOptions options) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                         MmapSource::Open(path));
  SaxParser parser(src.get(), options);
  return BuildForest(&parser);
}

}  // namespace xqmft
