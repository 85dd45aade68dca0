#include "lower/ops_engine.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "schema/schema.h"

namespace xqmft {
namespace lower {

namespace {
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::size_t kAlign = alignof(std::max_align_t);
// Segment pool: chunk slots are 32 B << class, carved from kChunkBytes
// blocks.
constexpr unsigned kSlotShift = 5;
// Segment chains grow geometrically up to 4 KiB slots; a larger chunk only
// ever holds one oversized record.
constexpr unsigned kGrowMaxClass = 7;
}  // namespace

void* OpsEngine::BumpArena::Alloc(std::size_t n) {
  n = (n + (kAlign - 1)) & ~(kAlign - 1);
  // Advance past chunks too small for this request (possible after a Reset
  // replays the chunk sequence with different allocation sizes).
  while (chunk_ < chunks_.size() && chunks_[chunk_].size - off_ < n) {
    ++chunk_;
    off_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    Block c;
    c.size = std::max(kChunkBytes, n);
    c.bytes = std::make_unique<char[]>(c.size);
    chunks_.push_back(std::move(c));
    off_ = 0;
  }
  void* p = chunks_[chunk_].bytes.get() + off_;
  off_ += n;
  live_ += n;
  tracker_->Charge(n);
  return p;
}

OpsEngine::OpsEngine(const LoweredPlan& plan, OutputSink* sink,
                     SymbolTable* symbols, MemoryTracker* tracker,
                     std::uint64_t max_steps, SchemaValidator* validator,
                     const CancelToken* cancel,
                     std::uint32_t cancel_check_events,
                     const BridgeFactory* bridges)
    : plan_(&plan),
      sink_(sink),
      symbols_(symbols),
      tracker_(tracker),
      max_steps_(max_steps),
      validator_(validator),
      cancel_(cancel),
      cancel_check_events_(cancel_check_events),
      bridge_factory_(bridges),
      arena_(tracker),
      pool_(tracker) {}

OpsEngine::~OpsEngine() {
  // The bridge records must go first: their sub-runs recycle cells and
  // exprs into the run context's slabs, which the engine's owner destroys
  // after us. Segments a run left behind (error or an abandoned engine)
  // settle with the pool's tracker balance.
  bridges_.clear();
}

// ------------------------------------------------------------ segment pool

void* OpsEngine::SegmentPool::Carve(std::size_t n) {
  if (n > kChunkBytes) {
    blocks_.emplace_back(new char[n]);
    return blocks_.back().get();
  }
  if (static_cast<std::size_t>(end_ - cur_) < n) {
    blocks_.emplace_back(new char[kChunkBytes]);
    cur_ = blocks_.back().get();
    end_ = cur_ + kChunkBytes;
  }
  void* p = cur_;
  cur_ += n;
  return p;
}

OpsEngine::Segment* OpsEngine::SegmentPool::NewHeader() {
  Segment* s = free_headers_;
  if (s != nullptr) {
    free_headers_ = s->next;
  } else {
    s = new (Carve(sizeof(Segment))) Segment;
  }
  tracker_->Charge(sizeof(Segment));
  charged_ += sizeof(Segment);
  return s;
}

void OpsEngine::SegmentPool::FreeHeader(Segment* s) {
  tracker_->Release(sizeof(Segment));
  charged_ -= sizeof(Segment);
  s->next = free_headers_;
  free_headers_ = s;
}

void* OpsEngine::SegmentPool::NewObject(std::size_t bytes) {
  const std::size_t k = bytes / 8;
  void* p = nullptr;
  if (k < free_objects_.size() && free_objects_[k] != nullptr) {
    p = free_objects_[k];
    free_objects_[k] = *static_cast<void**>(p);
  } else {
    p = Carve(bytes);
  }
  tracker_->Charge(bytes);
  charged_ += bytes;
  return p;
}

void OpsEngine::SegmentPool::FreeObject(void* p, std::size_t bytes) {
  const std::size_t k = bytes / 8;
  if (k >= free_objects_.size()) free_objects_.resize(k + 1, nullptr);
  *static_cast<void**>(p) = free_objects_[k];
  free_objects_[k] = p;
  tracker_->Release(bytes);
  charged_ -= bytes;
}

unsigned OpsEngine::SegmentPool::ClassOf(const Chunk* c) {
  return static_cast<unsigned>(
             __builtin_ctzll(std::uint64_t{c->cap} + sizeof(Chunk))) -
         kSlotShift;
}

OpsEngine::Chunk* OpsEngine::SegmentPool::NewChunk(std::uint32_t min_cap,
                                                   unsigned min_class) {
  const std::uint64_t need = std::uint64_t{min_cap} + sizeof(Chunk);
  unsigned k = need <= (std::uint64_t{1} << kSlotShift)
                   ? 0
                   : static_cast<unsigned>(64 - __builtin_clzll(need - 1)) -
                         kSlotShift;
  k = std::max(k, min_class);
  const std::size_t slot = std::size_t{1} << (k + kSlotShift);
  Chunk* c = free_chunks_[k];
  if (c != nullptr) {
    free_chunks_[k] = c->next;
  } else {
    c = static_cast<Chunk*>(Carve(slot));
    c->cap = static_cast<std::uint32_t>(slot - sizeof(Chunk));
  }
  tracker_->Charge(slot);
  charged_ += slot;
  return c;
}

void OpsEngine::SegmentPool::FreeChain(ChunkChain* chain) {
  if (chain->tail == nullptr) return;
  Chunk* c = chain->tail->next;
  chain->tail->next = nullptr;  // open the ring
  chain->tail = nullptr;
  while (c != nullptr) {
    Chunk* next = c->next;
    const unsigned k = ClassOf(c);
    const std::size_t slot = std::size_t{1} << (k + kSlotShift);
    tracker_->Release(slot);
    charged_ -= slot;
    c->next = free_chunks_[k];
    free_chunks_[k] = c;
    c = next;
  }
}

// ---------------------------------------------------------------- segments

OpsEngine::Segment* OpsEngine::NewSegment() {
  Segment* s = pool_.NewHeader();
  s->chain = ChunkChain{};
  s->next = nullptr;
  s->prev_bits = 0;
  if (++live_segments_ > segments_peak_) segments_peak_ = live_segments_;
  return s;
}

void OpsEngine::RecycleSegment(Segment* s) {
  if (s->dead()) --dead_segments_;
  pool_.FreeChain(&s->chain);
  s->prev_bits = 0;  // reads as open: Coalesce skips stale closed_ entries
  pool_.FreeHeader(s);
  --live_segments_;
}

OpsEngine::Segment* OpsEngine::SplitAfter(Segment* cur) {
  // With nothing buffered in `cur` (all it wrote went to the sink or onto a
  // closed predecessor), the spawned writer's output belongs exactly at
  // cur's position: hand `cur` over instead of closing it behind a new
  // segment.
  if (cur->chain.empty()) return cur;
  CloseSegment(cur);
  return InsertAfter(cur);
}

OpsEngine::Segment* OpsEngine::InsertAfter(Segment* prev) {
  Segment* s = NewSegment();
  s->next = prev->next;
  s->set_prev(prev);
  if (s->next != nullptr) s->next->set_prev(s);
  prev->next = s;
  return s;
}

char* OpsEngine::SegmentRoom(Segment* s, std::uint32_t n) {
  // Small segments stay small: the first chunk is the smallest slot that
  // holds the first record, and each further chunk doubles the slot class
  // (up to kGrowMaxClass) — so a chain's slack stays proportional to its
  // content.
  ChunkChain* chain = &s->chain;
  if (chain->empty()) {
    // Nothing buffered yet behind a closed predecessor: appending onto the
    // predecessor's chain is the same byte order (no segment can ever be
    // inserted between the two) and leaves nothing to merge at close.
    Segment* p = s->prev();
    if (p != nullptr && p->closed()) chain = &p->chain;
  }
  Chunk* t = chain->tail;
  if (t == nullptr || t->cap - t->len < n) {
    const unsigned min_class =
        t == nullptr ? 0u
                     : std::min(SegmentPool::ClassOf(t) + 1, kGrowMaxClass);
    t = pool_.NewChunk(n, min_class);
    t->len = 0;
    chain->Push(t);
  }
  char* p = t->bytes() + t->len;
  t->len += n;
  return p;
}

void OpsEngine::Coalesce() {
  // Safe here and nowhere earlier: a segment closed during the event is no
  // longer referenced by any program, consumer or bridge, and FlushHead
  // already ran, so the head is open (or the chain is empty) and every
  // closed segment has a predecessor. Entries drained by FlushHead or
  // absorbed earlier in this pass read as open and are skipped.
  for (Segment* s : closed_) {
    if (!s->closed()) continue;
    Segment* first = s;
    while (first->prev() != nullptr && first->prev()->closed()) {
      first = first->prev();
    }
    while (first->next != nullptr && first->next->closed()) {
      Absorb(first, first->next);
    }
  }
  closed_.clear();
}

void OpsEngine::Absorb(Segment* into, Segment* from) {
  ChunkChain* src = &from->chain;
  if (!src->empty()) {
    Chunk* only = src->tail;
    if (!into->chain.empty() && only->next == only &&
        only->len <= into->chain.tail->cap) {
      // A one-chunk successor no bigger than the tail chunk is copied:
      // into the tail's free space when it fits, else into the next
      // (doubled) chunk — splicing it would leave a small, partly empty
      // chunk in the middle of the chain.
      std::memcpy(SegmentRoom(into, only->len), only->bytes(), only->len);
      pool_.FreeChain(src);
    } else {
      into->chain.Splice(src);
    }
  }
  into->next = from->next;
  if (into->next != nullptr) into->next->set_prev(into);
  RecycleSegment(from);
}

namespace {
inline void PackTag(char* buf, char tag, std::uint32_t v) {
  buf[0] = tag;
  std::memcpy(buf + 1, &v, sizeof(v));
}

// A 'T' record: tag, length, bytes — TextRecordSize(text) bytes at `buf`.
// Lengths are packed as uint32, like every record length.
inline std::uint32_t TextRecordSize(std::string_view text) {
  return 5 + static_cast<std::uint32_t>(text.size());
}
inline void PackText(char* buf, std::string_view text) {
  const auto n = static_cast<std::uint32_t>(text.size());
  PackTag(buf, 'T', n);
  std::memcpy(buf + 5, text.data(), n);
}
}  // namespace

void OpsEngine::EmitStart(Segment* s, SymbolId sym) {
  if (s == live_) {
    sink_->StartElement(symbols_->name(sym));
    ++output_events_;
    return;
  }
  PackTag(SegmentRoom(s, 5), 'S', sym);
}

void OpsEngine::EmitEnd(Segment* s, SymbolId sym) {
  if (s == live_) {
    sink_->EndElement(symbols_->name(sym));
    ++output_events_;
    return;
  }
  PackTag(SegmentRoom(s, 5), 'E', sym);
}

void OpsEngine::EmitTextSym(Segment* s, SymbolId sym) {
  if (s == live_) {
    sink_->Text(symbols_->name(sym));
    ++output_events_;
    return;
  }
  PackTag(SegmentRoom(s, 5), 'L', sym);
}

void OpsEngine::EmitTextBytes(Segment* s, std::string_view text) {
  if (s == live_) {
    // The zero-copy path: input text reaching the output of a live head
    // goes straight from the parser's buffer to the sink.
    sink_->Text(text);
    ++output_events_;
    return;
  }
  PackText(SegmentRoom(s, TextRecordSize(text)), text);
}

void OpsEngine::ReplayChain(const ChunkChain& chain) {
  if (chain.empty()) return;
  const Chunk* c = chain.tail->next;
  for (;;) {
    const char* p = c->bytes();
    const char* end = p + c->len;
    while (p < end) {
      const char tag = *p++;
      std::uint32_t v;
      std::memcpy(&v, p, sizeof(v));
      p += sizeof(v);
      switch (tag) {
        case 'S':
          sink_->StartElement(symbols_->name(v));
          break;
        case 'E':
          sink_->EndElement(symbols_->name(v));
          break;
        case 'L':
          sink_->Text(symbols_->name(v));
          break;
        default:  // 'T'
          sink_->Text(std::string_view(p, v));
          p += v;
          break;
      }
      ++output_events_;
    }
    if (c == chain.tail) return;
    c = c->next;
  }
}

void OpsEngine::FlushHead() {
  while (head_ != nullptr) {
    Segment* s = head_;
    if (s->closed()) {
      ReplayChain(s->chain);
      head_ = s->next;
      if (head_ != nullptr) head_->set_prev(nullptr);
      if (s == live_) live_ = nullptr;
      RecycleSegment(s);
      continue;
    }
    if (s->fence()) return;  // an undecided select holds the rest
    if (s != live_) {
      // The head is still being written: drain what it buffered and switch
      // it to write-through until its writer splits or closes it.
      ReplayChain(s->chain);
      pool_.FreeChain(&s->chain);
      live_ = s;
    }
    return;
  }
}

Status OpsEngine::ChargeSteps(std::uint64_t n) {
  if (steps_ >= max_steps_ || n > max_steps_ - steps_) {
    return Status::ResourceExhausted(
        "streaming engine exceeded the step budget");
  }
  steps_ += n;
  return Status::OK();
}

// ----------------------------------------------------------------- bridges

// A bridge inside a select's losing region keeps running to its anchor's
// close, writing into nothing.
void OpsEngine::SegSink::StartElement(std::string_view name) {
  if (seg_->dead()) return;
  engine_->EmitStart(seg_,
                     engine_->symbols_->Intern(NodeKind::kElement, name));
}

void OpsEngine::SegSink::EndElement(std::string_view name) {
  if (seg_->dead()) return;
  engine_->EmitEnd(seg_,
                   engine_->symbols_->Intern(NodeKind::kElement, name));
}

void OpsEngine::SegSink::Text(std::string_view content) {
  if (seg_->dead()) return;
  engine_->EmitTextBytes(seg_, content);
}

void OpsEngine::StartElementBridge(std::uint32_t site, Segment* seg,
                                   const XmlEvent* event, SymbolId sym) {
  if (bridge_factory_ == nullptr || !*bridge_factory_) {
    if (exec_status_.ok()) {
      exec_status_ =
          Status::Internal("hybrid plan executed without a bridge factory");
    }
    CloseSegment(seg);  // nothing will ever write it
    return;
  }
  auto rec = std::make_unique<BridgeRec>(this, seg);
  rec->seg = seg;
  rec->anchor_depth = depth_;
  rec->run = (*bridge_factory_)(site, &rec->sink);
  ++bridges_spawned_;
  // The routing in Feed only reaches bridges that already exist, so the
  // anchor's own StartElement is delivered here.
  XmlEvent anchor = *event;
  anchor.symbol = sym;
  Status s = rec->run->Feed(anchor);
  if (!s.ok() && exec_status_.ok()) exec_status_ = std::move(s);
  bridges_.push_back(std::move(rec));
}

void OpsEngine::RunInlineBridge(std::uint32_t site, Segment* cur,
                                const XmlEvent* event) {
  if (bridge_factory_ == nullptr || !*bridge_factory_) {
    if (exec_status_.ok()) {
      exec_status_ =
          Status::Internal("hybrid plan executed without a bridge factory");
    }
    return;
  }
  // A text or eps anchor is a complete sub-input: run it synchronously into
  // the caller's segment (one text event, or nothing at all).
  SegSink sink(this, cur);
  std::unique_ptr<BridgeRun> run = (*bridge_factory_)(site, &sink);
  ++bridges_spawned_;
  Status s = Status::OK();
  if (event != nullptr) s = run->Feed(*event);
  if (s.ok()) s = run->Finish();
  if (!s.ok() && exec_status_.ok()) exec_status_ = std::move(s);
}

Status OpsEngine::FeedBridges(const XmlEvent& event) {
  for (std::unique_ptr<BridgeRec>& rec : bridges_) {
    XQMFT_RETURN_NOT_OK(rec->run->Feed(event));
  }
  return Status::OK();
}

Status OpsEngine::CompleteBridges() {
  Status result = Status::OK();
  while (!bridges_.empty() && bridges_.back()->anchor_depth == depth_) {
    std::unique_ptr<BridgeRec> rec = std::move(bridges_.back());
    bridges_.pop_back();
    Status s = rec->run->Finish();
    CloseSegment(rec->seg);
    if (!s.ok() && result.ok()) result = std::move(s);
  }
  return result;
}

// -------------------------------------------------------------- execution

void OpsEngine::ExecProgram(const LoweredProgramRef& ref, Segment* cur,
                            SymbolId sym, std::string_view text,
                            const XmlEvent* event, Consumer* child_out,
                            std::uint32_t* child_n, Consumer* sib_out,
                            std::uint32_t* sib_n) {
  const LoweredInsn* pc = plan_->code.data() + ref.off;
  const LoweredInsn* const end = pc + ref.len;
  while (pc != end) {
    const LoweredInsn insn = *pc++;
    switch (insn.op) {
      case LowerOp::kOpenLit:
        EmitStart(cur, insn.arg);
        break;
      case LowerOp::kCloseLit:
        EmitEnd(cur, insn.arg);
        break;
      case LowerOp::kOpenCur:
        EmitStart(cur, sym);
        break;
      case LowerOp::kCloseCur:
        EmitEnd(cur, sym);
        break;
      case LowerOp::kTextLit:
        EmitTextSym(cur, insn.arg);
        break;
      case LowerOp::kTextCur:
        EmitTextBytes(cur, text);
        break;
      case LowerOp::kChild: {
        if (pc == end) {
          // Tail spawn: the child inherits the writer's segment outright.
          child_out[(*child_n)++] = Consumer{insn.arg, {cur}};
          return;
        }
        Segment* child_seg = SplitAfter(cur);
        child_out[(*child_n)++] = Consumer{insn.arg, {child_seg}};
        cur = InsertAfter(child_seg);
        break;
      }
      case LowerOp::kSib: {
        if (pc == end) {
          sib_out[(*sib_n)++] = Consumer{insn.arg, {cur}};
          return;
        }
        Segment* sib_seg = SplitAfter(cur);
        sib_out[(*sib_n)++] = Consumer{insn.arg, {sib_seg}};
        cur = InsertAfter(sib_seg);
        break;
      }
      case LowerOp::kSelBegin:
        cur = BeginSelect(insn.arg, cur);
        break;
      case LowerOp::kSelAlt:
        cur = NextAlternative(cur);
        break;
      case LowerOp::kSelEnd:
        cur = EndSelect(insn.arg, cur, text, child_out, child_n, sib_out,
                        sib_n);
        break;
      case LowerOp::kSelCall:
      case LowerOp::kSelArg:
      case LowerOp::kPick:
        break;  // selector programs only (ExecSelector)
      case LowerOp::kBridge: {
        const std::uint32_t site = insn.arg & kBridgeSiteMask;
        const BridgeCtx bctx =
            static_cast<BridgeCtx>(insn.arg >> kBridgeCtxShift);
        if (bctx == BridgeCtx::kElement) {
          if (pc == end) {
            // Tail bridge: the sub-run takes over the segment outright; it
            // closes at the anchor's EndElement.
            StartElementBridge(site, cur, event, sym);
            return;
          }
          Segment* bseg = SplitAfter(cur);
          StartElementBridge(site, bseg, event, sym);
          cur = InsertAfter(bseg);
        } else {
          RunInlineBridge(site, cur,
                          bctx == BridgeCtx::kText ? event : nullptr);
        }
        break;
      }
    }
  }
  CloseSegment(cur);
}

OpsEngine::Segment* OpsEngine::BeginSelect(std::uint32_t idx, Segment* cur) {
  Select* sel = NewSelect(plan_->selects[idx].n_alts);
  // The caller's output so far ends at fence 0.
  CloseSegment(cur);
  Segment** fences = sel->fences();
  fences[0] = InsertFence(cur, sel);
  for (std::uint32_t i = 1; i <= sel->n_alts; ++i) {
    fences[i] = InsertFence(fences[i - 1], sel);
  }
  open_selects_.push_back(OpenSelect{sel, 0});
  return InsertAfter(fences[0]);
}

OpsEngine::Segment* OpsEngine::NextAlternative(Segment* cur) {
  OpenSelect& top = open_selects_.back();
  CloseSegment(cur);
  return InsertAfter(top.sel->fences()[++top.alt]);
}

OpsEngine::Segment* OpsEngine::EndSelect(std::uint32_t idx, Segment* cur,
                                         std::string_view text,
                                         Consumer* child_out,
                                         std::uint32_t* child_n,
                                         Consumer* sib_out,
                                         std::uint32_t* sib_n) {
  Select* sel = open_selects_.back().sel;
  open_selects_.pop_back();
  CloseSegment(cur);
  Segment* after = InsertAfter(sel->fences()[sel->n_alts]);
  const LoweredSelect& ls = plan_->selects[idx];
  const LoweredProgramRef* cluster = &ls.cluster;
  if (!ls.content.empty()) {
    if (const LoweredProgramRef* hit = FindContent(ls.content, text)) {
      cluster = hit;
    }
  }
  alt_values_.resize(ls.n_alts);
  for (std::uint32_t i = 0; i < ls.n_alts; ++i) {
    alt_values_[i] = AltValue(i);
  }
  // May decide at once (a content-keyed text anchor); `after` stays.
  ExecSelector(*cluster, sel, &sel->root, alt_values_.data(), nullptr,
               child_out, child_n, sib_out, sib_n);
  return after;
}

void OpsEngine::ExecSelector(const LoweredProgramRef& ref, Select* sel,
                             Slot* result, const Value* vals, ChoiceRec* rec,
                             Consumer* child_out, std::uint32_t* child_n,
                             Consumer* sib_out, std::uint32_t* sib_n) {
  if (rec != nullptr && sel->decided) {
    FreeRecord(rec);  // the select no longer needs this consumer
    return;
  }
  const LoweredInsn* pc = plan_->code.data() + ref.off;
  const LoweredInsn* const end = pc + ref.len;
  nested_.clear();
  while (pc != end) {
    const LoweredInsn insn = *pc++;
    switch (insn.op) {
      case LowerOp::kPick:
        Resolve(sel, result, vals[insn.arg]);
        break;
      case LowerOp::kChild:
      case LowerOp::kSib: {
        // Retarget: same record, same result, new state.
        Consumer c;
        c.state = insn.arg;
        c.rec = rec;
        if (insn.op == LowerOp::kChild) {
          child_out[(*child_n)++] = c;
        } else {
          sib_out[(*sib_n)++] = c;
        }
        return;
      }
      case LowerOp::kSelCall: {
        const LoweredInsn* args = pc;
        while (pc != end && pc->op == LowerOp::kSelArg) ++pc;
        ChoiceRec* r =
            NewRecord(sel, static_cast<std::uint32_t>(pc - args));
        Value* out = r->vals();
        for (std::uint32_t j = 0; j < r->n; ++j) {
          const std::uint32_t code = args[j].arg;
          out[j] = (code & kSelArgNested) != 0
                       ? reinterpret_cast<Value>(
                             nested_[code & ~kSelArgNested])
                       : vals[code];
        }
        if ((insn.arg & kSelCallTail) != 0) {
          r->result = result;
        } else {
          r->result = NewSlot(sel);
          nested_.push_back(r->result);
        }
        Consumer c;
        c.state = insn.arg >> kSelCallStateShift;
        c.rec = r;
        if ((insn.arg & kSelCallX2) != 0) {
          sib_out[(*sib_n)++] = c;
        } else {
          child_out[(*child_n)++] = c;
        }
        break;
      }
      default:
        break;  // selector programs hold nothing else
    }
  }
  if (rec != nullptr) FreeRecord(rec);
}

OpsEngine::Select* OpsEngine::NewSelect(std::uint32_t n_alts) {
  auto* sel = static_cast<Select*>(pool_.NewObject(
      sizeof(Select) + (std::size_t{n_alts} + 1) * sizeof(Segment*)));
  sel->root = Slot{0, nullptr};
  sel->front = &sel->root;
  sel->slots = nullptr;
  sel->refs = 0;
  sel->n_alts = n_alts;
  sel->decided = false;
  return sel;
}

OpsEngine::ChoiceRec* OpsEngine::NewRecord(Select* sel, std::uint32_t n) {
  auto* rec = static_cast<ChoiceRec*>(
      pool_.NewObject(sizeof(ChoiceRec) + std::size_t{n} * sizeof(Value)));
  rec->sel = sel;
  rec->n = n;
  ++sel->refs;
  return rec;
}

void OpsEngine::FreeRecord(ChoiceRec* rec) {
  Select* sel = rec->sel;
  pool_.FreeObject(rec, sizeof(ChoiceRec) + std::size_t{rec->n} * sizeof(Value));
  --sel->refs;
  MaybeFreeSelect(sel);
}

OpsEngine::Slot* OpsEngine::NewSlot(Select* sel) {
  auto* slot = static_cast<Slot*>(pool_.NewObject(sizeof(Slot)));
  slot->value = 0;
  slot->next = sel->slots;
  sel->slots = slot;
  return slot;
}

void OpsEngine::FreeSlots(Select* sel) {
  while (sel->slots != nullptr) {
    Slot* next = sel->slots->next;
    pool_.FreeObject(sel->slots, sizeof(Slot));
    sel->slots = next;
  }
}

void OpsEngine::MaybeFreeSelect(Select* sel) {
  if (!sel->decided || sel->refs != 0) return;
  pool_.FreeObject(sel, sizeof(Select) + (std::size_t{sel->n_alts} + 1) *
                                             sizeof(Segment*));
}

void OpsEngine::Resolve(Select* sel, Slot* slot, Value value) {
  slot->value = value;
  if (slot != sel->front) return;  // nothing waits on this result (yet)
  for (;;) {
    const Value v = sel->front->value;
    if (v == 0) return;
    if ((v & 1u) != 0) {
      Decide(sel, static_cast<std::uint32_t>(v >> 1));
      return;
    }
    // Resolved to another pending result: the select now waits on that.
    sel->front = reinterpret_cast<Slot*>(v);
  }
}

void OpsEngine::Decide(Select* sel, std::uint32_t winner) {
  sel->decided = true;
  FreeSlots(sel);
  Segment** fences = sel->fences();
  const std::uint32_t n = sel->n_alts;
  Segment* before = fences[0]->prev();
  Segment* after = fences[n]->next;
  Segment* first = nullptr;
  Segment* last = nullptr;
  for (std::uint32_t i = 0; i < n; ++i) {
    Segment* s = fences[i]->next;
    if (i == winner) {
      if (s != fences[i + 1]) {
        first = s;
        last = fences[i + 1]->prev();
      }
      continue;
    }
    while (s != fences[i + 1]) {
      Segment* next = s->next;
      Discard(s);
      s = next;
    }
  }
  for (std::uint32_t i = 0; i <= n; ++i) RecycleFence(fences[i]);
  if (first == nullptr) {
    first = after;
    last = before;
  } else {
    last->next = after;
    if (after != nullptr) after->set_prev(last);
  }
  if (before != nullptr) {
    before->next = first;
  } else {
    head_ = first;
  }
  if (first != nullptr) first->set_prev(before);
  // Closed segments that now touch merge at event end.
  for (Segment* s : {before, last, after}) {
    if (s != nullptr && s->closed()) closed_.push_back(s);
  }
  MaybeFreeSelect(sel);
}

void OpsEngine::Discard(Segment* s) {
  if (s->fence()) {
    if (s->owner != nullptr) Abandon(s->owner);
    RecycleFence(s);
  } else if (s->closed()) {
    RecycleSegment(s);
  } else {
    // Its writer still holds it: detach, and let the writer recycle it.
    pool_.FreeChain(&s->chain);
    s->next = nullptr;
    s->prev_bits = Segment::kDead;
    ++dead_segments_;
  }
}

void OpsEngine::Abandon(Select* sel) {
  // All of its fences lie in the region being discarded; the walk recycles
  // them, so they forget the select before it can be freed.
  sel->decided = true;
  FreeSlots(sel);
  for (std::uint32_t i = 0; i <= sel->n_alts; ++i) {
    sel->fences()[i]->owner = nullptr;
  }
  MaybeFreeSelect(sel);
}

OpsEngine::Segment* OpsEngine::InsertFence(Segment* prev, Select* owner) {
  Segment* f = InsertAfter(prev);
  f->owner = owner;
  f->prev_bits |= Segment::kFence;
  return f;
}

void OpsEngine::RecycleFence(Segment* s) {
  s->chain = ChunkChain{};
  s->prev_bits = 0;
  pool_.FreeHeader(s);
  --live_segments_;
}

Status OpsEngine::Prime() {
  if (!status_.ok()) return status_;
  if (started_) return Status::OK();
  started_ = true;
  Segment* root = NewSegment();
  head_ = root;
  Scope scope;
  scope.mark = arena_.TakeMark();
  scope.items = AllocConsumers(1);
  scope.items[0] =
      Consumer{static_cast<std::uint32_t>(plan_->initial), {root}};
  scope.count = 1;
  scope.cap = 1;
  scopes_.push_back(scope);
  total_consumers_ = 1;
  spawned_ = 1;
  // Nothing is emitted before the first event (parity with the table
  // engine, whose root call blocks on the pending input cell), but the root
  // segment goes live so the first event's output streams through.
  FlushHead();
  return Status::OK();
}

Status OpsEngine::Feed(const XmlEvent& event) {
  if (!status_.ok()) return status_;
  if (!started_) XQMFT_RETURN_NOT_OK(Prime());
  if (done_) return Status::OK();  // output complete; ignore (table parity)
  // Cancellation check precedes the event's programs AND the FlushHead at
  // the bottom: a tripped run commits nothing past the previous event.
  if (cancel_ != nullptr &&
      ++events_since_cancel_check_ >= cancel_check_events_) {
    events_since_cancel_check_ = 0;
    XQMFT_RETURN_NOT_OK(Sticky(cancel_->Check()));
  }
  if (validator_ != nullptr) {
    XQMFT_RETURN_NOT_OK(Sticky(validator_->Feed(event)));
  }
  // Bridge routing wraps the consumer handlers: an active table sub-run
  // receives every event of its anchor subtree even when the ops consumers
  // skipped it (skip_depth_), and completes at the anchor's close. depth_
  // tracks raw input nesting for exactly this purpose.
  switch (event.type) {
    case XmlEventType::kStartElement:
      if (!bridges_.empty()) XQMFT_RETURN_NOT_OK(Sticky(FeedBridges(event)));
      ++depth_;
      XQMFT_RETURN_NOT_OK(Sticky(OnStartElement(event)));
      break;
    case XmlEventType::kText:
      if (!bridges_.empty()) XQMFT_RETURN_NOT_OK(Sticky(FeedBridges(event)));
      XQMFT_RETURN_NOT_OK(Sticky(OnText(event)));
      break;
    case XmlEventType::kEndElement:
      if (!bridges_.empty()) {
        XQMFT_RETURN_NOT_OK(Sticky(FeedBridges(event)));
        XQMFT_RETURN_NOT_OK(Sticky(CompleteBridges()));
      }
      if (depth_ > 0) --depth_;
      XQMFT_RETURN_NOT_OK(Sticky(OnEndElement()));
      break;
    case XmlEventType::kEndOfDocument:
      XQMFT_RETURN_NOT_OK(Sticky(OnEndOfDocument()));
      break;
    default:
      return Sticky(Status::Internal("unknown event type"));
  }
  FlushHead();
  if (!closed_.empty()) Coalesce();
  if (total_consumers_ == 0 && bridges_.empty()) done_ = true;
  return Status::OK();
}

Status OpsEngine::OnStartElement(const XmlEvent& event) {
  if (skip_depth_ > 0) {
    ++skip_depth_;
    return Status::OK();
  }
  Scope& top = scopes_.back();
  if (top.count == 0) {
    skip_depth_ = 1;
    return Status::OK();
  }
  const SymbolId sym =
      event.symbol != kInvalidSymbol
          ? event.symbol
          : symbols_->Intern(NodeKind::kElement, event.name);

  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));

  // Resolve every consumer's program first: sibling rewrites may reuse
  // top.items in place, so nothing may read it once execution starts.
  scratch_.clear();
  std::uint32_t total_child = 0;
  std::uint32_t total_sib = 0;
  bool all_simple = true;
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    const LoweredState& st = plan_->states[c.state];
    const LoweredProgramRef* prog =
        sym < plan_->width ? &st.element[sym] : &st.element_default;
    all_simple = all_simple && prog->simple_sib;
    total_child += prog->n_child;
    total_sib += prog->n_sib;
    scratch_.push_back(PendingExec{prog, c});
  }

  if (all_simple) {
    // Every consumer just retargets over the siblings and skips the
    // subtree: no allocation, no segment traffic — the scan hot path.
    for (std::uint32_t i = 0; i < top.count; ++i) {
      top.items[i].state = plan_->code[scratch_[i].prog->off].arg;
    }
    spawned_ += top.count;
    skip_depth_ = 1;
    return Status::OK();
  }

  // Sibling continuations replace the scope's consumers. Reuse the array in
  // place when it fits (a constant-size consumer set never allocates at
  // steady depth); grow geometrically otherwise. Growth happens before the
  // child mark so the array survives the child scope's reset — the retired
  // smaller arrays leak only until the parent closes, bounded by the
  // geometric sum.
  Consumer* sibs = top.items;
  std::uint32_t sib_cap = top.cap;
  if (sib_cap < total_sib) {
    sib_cap = std::max(total_sib, top.cap * 2);
    sibs = AllocConsumers(sib_cap);
  }
  const BumpArena::Mark mark = arena_.TakeMark();
  Consumer* children =
      total_child > 0 ? AllocConsumers(total_child) : nullptr;

  std::uint32_t n_child = 0;
  std::uint32_t n_sib = 0;
  for (const PendingExec& p : scratch_) {
    Exec(*p.prog, p.c, sym, std::string_view(), &event, children, &n_child,
         sibs, &n_sib);
  }

  total_consumers_ += n_sib + n_child;
  total_consumers_ -= top.count;
  spawned_ += n_sib + n_child;
  top.items = sibs;
  top.count = n_sib;
  top.cap = sib_cap;

  if (n_child == 0) {
    arena_.Reset(mark);
    skip_depth_ = 1;
  } else {
    Scope scope;
    scope.items = children;
    scope.count = n_child;
    scope.cap = n_child;
    scope.mark = mark;
    scopes_.push_back(scope);
  }
  if (!exec_status_.ok()) return exec_status_;
  return Status::OK();
}

Status OpsEngine::OnText(const XmlEvent& event) {
  if (skip_depth_ > 0) return Status::OK();
  Scope& top = scopes_.back();
  if (top.count == 0) return Status::OK();

  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));

  scratch_.clear();
  std::uint32_t total_sib = 0;
  bool all_simple = true;
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    const LoweredState& st = plan_->states[c.state];
    const LoweredProgramRef* prog = &st.text;
    if (prog->content_switch) {
      if (const LoweredProgramRef* hit =
              FindContent(st.text_content, event.text)) {
        prog = hit;
      }
    }
    all_simple = all_simple && prog->simple_sib;
    total_sib += prog->n_sib;
    scratch_.push_back(PendingExec{prog, c});
  }

  if (all_simple) {
    for (std::uint32_t i = 0; i < top.count; ++i) {
      top.items[i].state = plan_->code[scratch_[i].prog->off].arg;
    }
    spawned_ += top.count;
    return Status::OK();
  }

  Consumer* sibs = top.items;
  std::uint32_t sib_cap = top.cap;
  if (sib_cap < total_sib) {
    sib_cap = std::max(total_sib, top.cap * 2);
    sibs = AllocConsumers(sib_cap);
  }

  // Text programs never spawn children (x1 over a text node lowers to the
  // callee's spliced epsilon program), so no child array and no scope push.
  std::uint32_t n_sib = 0;
  for (const PendingExec& p : scratch_) {
    std::uint32_t n_child = 0;
    Exec(*p.prog, p.c, kInvalidSymbol, event.text, &event, nullptr,
         &n_child, sibs, &n_sib);
  }

  total_consumers_ += n_sib;
  total_consumers_ -= top.count;
  spawned_ += n_sib;
  top.items = sibs;
  top.count = n_sib;
  top.cap = sib_cap;
  if (!exec_status_.ok()) return exec_status_;
  return Status::OK();
}

Status OpsEngine::OnEndElement() {
  if (skip_depth_ > 0) {
    --skip_depth_;
    return Status::OK();
  }
  if (scopes_.size() == 1) {
    return Status::InvalidArgument("unbalanced end element event");
  }
  Scope top = scopes_.back();
  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    std::uint32_t n_child = 0;
    std::uint32_t n_sib = 0;
    // Epsilon programs are emission-only (eps bridges included) or a
    // selector's pick; ExecProgram closes the segment.
    Exec(plan_->states[c.state].eps, c, kInvalidSymbol, std::string_view(),
         nullptr, nullptr, &n_child, nullptr, &n_sib);
  }
  total_consumers_ -= top.count;
  scopes_.pop_back();
  arena_.Reset(top.mark);
  if (!exec_status_.ok()) return exec_status_;
  return Status::OK();
}

Status OpsEngine::OnEndOfDocument() {
  if (skip_depth_ > 0 || scopes_.size() > 1) {
    return Status::InvalidArgument("end of document with unclosed elements");
  }
  Scope& top = scopes_.back();
  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    std::uint32_t n_child = 0;
    std::uint32_t n_sib = 0;
    Exec(plan_->states[c.state].eps, c, kInvalidSymbol, std::string_view(),
         nullptr, nullptr, &n_child, nullptr, &n_sib);
  }
  total_consumers_ -= top.count;
  top.count = 0;
  input_done_ = true;
  if (!exec_status_.ok()) return exec_status_;
  return Status::OK();
}

Status OpsEngine::Finish() {
  if (status_.ok()) {
    if (!started_) Prime();  // Sticky() inside records any failure
    if (status_.ok() && !done_ && !input_done_) {
      XmlEvent end;
      end.type = XmlEventType::kEndOfDocument;
      Feed(end);
    }
    if (status_.ok() && !done_) {
      // Unreachable via the public API (end-of-document either completes
      // the run or errors); guard against direct misuse.
      Sticky(
          Status::Internal("streaming engine finished with output pending"));
    }
  }
  return status_;
}

}  // namespace lower
}  // namespace xqmft
