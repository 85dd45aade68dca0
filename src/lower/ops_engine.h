// Opcode execution core for lowered plans.
//
// Where the table engine materializes the output as a lazy thunk graph, the
// ops engine executes one straight-line program per (consumer, input event)
// and never allocates a thunk:
//
//   * A *consumer* is a (state, output segment) pair positioned in some
//     forest of the input. Each element/text event runs the consumer's
//     program for that label; kSib instructions yield the consumer's
//     continuations over the following siblings, kChild instructions spawn
//     consumers over the element's children. At the end of a forest
//     (EndElement of the parent) the epsilon program runs and the consumer
//     dies.
//   * Consumer records live in a bump arena. The static lowering analysis
//     already proved them non-escaping — a consumer never outlives the
//     subtree of the scope that spawned it — so closing an element resets
//     the arena to the mark taken when it opened, retiring the whole
//     subtree's records in O(1) instead of refcounting each cell.
//   * Output is a doubly linked chain of *segments*: single-writer spans
//     ordered by final output position. A program writes its emissions into
//     its segment; a spawn splits the segment (or hands it over whole when
//     it buffers nothing) so the spawned consumer's output lands exactly
//     where the call appeared in the rule. The chain head drains to the
//     sink as soon as its writer closes it — and an *open* head goes
//     "live", forwarding writes straight to the sink with no buffering,
//     which is the steady state of a single-consumer scan.
//   * A segment is a 24-byte pooled header owning a *chunk chain* of packed
//     records ('S'/'E'/'L' + symbol id, 'T' + length + bytes); a record
//     never straddles two chunks. Chunks come from a free-list pool in
//     power-of-two slots: the first is the smallest that holds the first
//     record, later ones double (to 4 KiB), so small segments stay small.
//     A segment with nothing buffered behind a closed predecessor appends
//     straight onto the predecessor's chain (same byte order: nothing can
//     be inserted between them).
//   * Coalescing invariant: at the end of every event, after the head has
//     drained, each segment closed during the event merges with its closed
//     neighbours — a one-chunk successor no bigger than the tail chunk is
//     copied, anything else spliced in O(1). Only event end is safe: no
//     program, consumer or bridge references a closed segment then, and the
//     head is open. So no two adjacent segments are both closed, and the
//     live segments number at most 2 × open writers + 1 — bounded by the
//     consumers on the current input path, not by the buffered output
//     (StreamStats::segments_peak reports the maximum).
//   * Peak memory (StreamStats::peak_bytes) counts what the engine holds:
//     live arena bytes (consumer records) plus segment headers and whole
//     segment chunk slots in use. Free-list and arena capacity kept for
//     reuse is not counted. For a copying query the
//     peak is the packed buffered output plus O(live consumers).
//   * A *select* (kSelBegin .. kSelEnd) runs a predicate's selector cluster
//     on the core. Fence segments bound one held region per alternative at
//     the call position; each alternative's code writes into its region
//     like any other code, and nothing behind the first fence drains or goes
//     live until the select is decided. The cluster runs as *selector
//     consumers*: scope entries whose payload is a choice record (the
//     select, the slot their result resolves, one value per parameter —
//     an alternative or a nested call's pending slot) instead of a segment.
//     A kPick resolves the consumer's slot; when the slot the select waits
//     on resolves to an alternative, the select keeps that region in place,
//     unlinks the others (recycling what is closed, marking what still has
//     a writer dead) and removes its fences. Consumers writing a dead
//     segment and selector consumers of a decided select stop at their next
//     program. Selects, slots and choice records come from the segment
//     pool's free lists and are charged to the tracker: records are
//     recycled when their consumer resolves, retargets or stops, slots when
//     the select is decided, the select once no record refers to it.
//     (They cannot live in the scope arena: a select under a long sibling
//     run is decided long before the enclosing forest closes.)
//   * kBridge instructions execute *hybrid* plans (calls to non-selector
//     parameter states): the site's anchor subtree is run through a
//     table-machine sub-run (built by the BridgeFactory the engine was
//     given) whose output lands in a dedicated segment at the call
//     position. The ops core keeps scanning concurrently; the sub-run is fed
//     every event of the anchor subtree and finished at the anchor's close.
//
// Same contract as the table machine behind Engine: done() may become true
// before the input ends (drivers stop feeding), errors are sticky, Finish
// synthesizes the end-of-document. Selection between the two lives in
// stream/engine.cc.
#ifndef XQMFT_LOWER_OPS_ENGINE_H_
#define XQMFT_LOWER_OPS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lower/lower.h"
#include "util/cancel.h"
#include "util/memory_tracker.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

class SchemaValidator;

namespace lower {

class OpsEngine {
 public:
  /// `plan` must outlive the engine (it is the CompiledPlan-cached lowering).
  /// `symbols` is the run-local table events are interned through; `tracker`
  /// accounts segment buffers and live consumer records (the ops-engine
  /// analogue of the cell/expr accounting behind Figure 4). `cancel` (may be
  /// null) is polled every `cancel_check_events` fed events; a trip becomes
  /// the sticky run status before the event does any work, so the sink ends
  /// at the previous event boundary and Finish never drains the segments a
  /// cancelled run left buffered (stream/engine.h's cancelled-run contract).
  /// `bridges` builds the table-machine sub-runs behind kBridge sites; it
  /// must outlive the engine and may be null only for non-hybrid plans
  /// (reaching a kBridge without a factory is a run error).
  OpsEngine(const LoweredPlan& plan, OutputSink* sink, SymbolTable* symbols,
            MemoryTracker* tracker, std::uint64_t max_steps,
            SchemaValidator* validator, const CancelToken* cancel = nullptr,
            std::uint32_t cancel_check_events = 128,
            const BridgeFactory* bridges = nullptr);
  ~OpsEngine();
  OpsEngine(const OpsEngine&) = delete;
  OpsEngine& operator=(const OpsEngine&) = delete;

  Status Prime();
  Status Feed(const XmlEvent& event);
  /// Feeds the end-of-document if the driver has not; sticky status.
  Status Finish();
  bool done() const { return done_; }

  std::size_t output_events() const { return output_events_; }
  std::uint64_t steps() const { return steps_; }
  /// Consumer records served from the arena (reported as cells_arena).
  std::uint64_t consumers_spawned() const { return spawned_; }
  /// Table-machine sub-runs started for kBridge sites.
  std::uint64_t bridge_runs() const { return bridges_spawned_; }
  /// Most output segments alive at once.
  std::size_t segments_peak() const { return segments_peak_; }

 private:
  // One chunk of packed records: a header followed by `cap` payload bytes.
  // A record never straddles two chunks, so every chain replays chunk by
  // chunk. Chunks come from the segment pool.
  struct Chunk {
    Chunk* next;
    std::uint32_t len;
    std::uint32_t cap;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  };

  // A chain of chunks, kept circular so one pointer serves both ends:
  // `tail` is the chunk appends go to and tail->next the first chunk.
  // Trivial (no initializer) so a segment can overlay it with a fence's
  // owner; build empty chains as ChunkChain{}.
  struct ChunkChain {
    Chunk* tail;

    bool empty() const { return tail == nullptr; }
    // Links `c` (len 0 or filled) after the current tail.
    void Push(Chunk* c) {
      if (tail == nullptr) {
        c->next = c;
      } else {
        c->next = tail->next;
        tail->next = c;
      }
      tail = c;
    }
    // Moves every chunk of `other` onto the end of this chain in O(1).
    void Splice(ChunkChain* other) {
      if (other->tail == nullptr) return;
      if (tail != nullptr) {
        Chunk* first = tail->next;
        tail->next = other->tail->next;
        other->tail->next = first;
      }
      tail = other->tail;
      other->tail = nullptr;
    }
  };

  struct Select;

  // A single-writer span of the output stream, in a doubly linked chain
  // ordered by final output position. The header is 24 bytes: `prev_bits`
  // holds the predecessor with three flags in the low bits (headers are
  // 8-aligned). Closed segments have no writer and are merged with closed
  // neighbours at event end (Coalesce). A fence bounds a select's held
  // regions: never written, never closed, so nothing merges or drains past
  // it. A dead segment was unlinked from the chain by a decided select
  // while it still had a writer; the writer recycles it.
  struct Segment {
    static constexpr std::uintptr_t kClosed = 1;
    static constexpr std::uintptr_t kFence = 2;
    static constexpr std::uintptr_t kDead = 4;
    static constexpr std::uintptr_t kFlags = 7;

    union {
      ChunkChain chain;  ///< buffered records; empty while the segment is live
      Select* owner;     ///< fences: the undecided select, or null
    };
    Segment* next;
    std::uintptr_t prev_bits;

    Segment* prev() const {
      return reinterpret_cast<Segment*>(prev_bits & ~kFlags);
    }
    void set_prev(Segment* p) {
      prev_bits = reinterpret_cast<std::uintptr_t>(p) | (prev_bits & kFlags);
    }
    bool closed() const { return (prev_bits & kClosed) != 0; }
    bool fence() const { return (prev_bits & kFence) != 0; }
    bool dead() const { return (prev_bits & kDead) != 0; }
  };
  static_assert(sizeof(Segment) == 24, "segment headers stay 24 bytes");

  // A value in a choice record: odd = alternative (v >> 1) of the select,
  // even = a Slot* still pending (or resolved since).
  using Value = std::uintptr_t;
  static Value AltValue(std::uint32_t alt) {
    return (static_cast<Value>(alt) << 1) | 1u;
  }

  // The result of one nested cluster call: 0 while pending, else the value
  // it resolved to.
  struct Slot {
    Value value;
    Slot* next;  ///< the select's slot list, freed when it is decided
  };

  // One select: followed in memory by n_alts + 1 fence pointers (fence i
  // opens alternative i's region; the last closes the final one).
  struct Select {
    Slot root;            ///< the cluster call's own result
    Slot* front;          ///< the slot whose resolution decides the select
    Slot* slots;          ///< nested results created so far
    std::uint32_t refs;   ///< live choice records pointing here
    std::uint32_t n_alts;
    bool decided;
    Segment** fences() { return reinterpret_cast<Segment**>(this + 1); }
  };

  // A selector consumer's payload: followed in memory by n parameter values.
  struct ChoiceRec {
    Select* sel;
    Slot* result;  ///< the slot this consumer's pick resolves
    std::uint32_t n;
    Value* vals() { return reinterpret_cast<Value*>(this + 1); }
  };

  // Free-list pool behind segment headers and segment chunks. Chunks come
  // in power-of-two slot classes (32 B << k, header included, so records up
  // to 4 GiB - 16 B fit, matching the packed uint32 lengths); slots up to
  // 64 KiB are carved from shared blocks, larger ones get a block each.
  // Freed slots go back to their class's list and are reused, never
  // returned before the engine dies. The tracker is charged for the slots
  // in use (header bytes plus whole chunk slots), not for free capacity.
  class SegmentPool {
   public:
    explicit SegmentPool(MemoryTracker* tracker) : tracker_(tracker) {}
    ~SegmentPool() { tracker_->Release(charged_); }

    Segment* NewHeader();
    void FreeHeader(Segment* s);
    // Selects, slots and choice records: `bytes` (a multiple of 8) from a
    // per-size free list.
    void* NewObject(std::size_t bytes);
    void FreeObject(void* p, std::size_t bytes);
    // A chunk in the smallest class that holds `min_cap` bytes, at least
    // class `min_class`.
    Chunk* NewChunk(std::uint32_t min_cap, unsigned min_class);
    void FreeChain(ChunkChain* chain);
    static unsigned ClassOf(const Chunk* c);

   private:
    static constexpr unsigned kSlotClasses = 28;

    void* Carve(std::size_t n);

    MemoryTracker* tracker_;
    std::vector<std::unique_ptr<char[]>> blocks_;
    char* cur_ = nullptr;
    char* end_ = nullptr;
    Segment* free_headers_ = nullptr;
    Chunk* free_chunks_[kSlotClasses] = {};
    std::vector<void*> free_objects_;  ///< by bytes / 8
    std::size_t charged_ = 0;
  };

  struct Consumer {
    std::uint32_t state;
    union {
      Segment* seg;    ///< ordinary consumers: where the output goes
      ChoiceRec* rec;  ///< selector consumers (selector-state programs)
    };
  };
  static_assert(sizeof(Consumer) == 16, "consumer records stay 16 bytes");

  // Bump allocator for consumer records. Reset(mark) retires everything
  // allocated since Mark() in O(1); chunks are retained for reuse. Only the
  // live (allocated-since-reset) bytes are charged to the tracker, matching
  // how the slab engines charge live cells but not free-list capacity.
  class BumpArena {
   public:
    struct Mark {
      std::size_t chunk = 0;
      std::size_t off = 0;
      std::size_t live = 0;
    };

    explicit BumpArena(MemoryTracker* tracker) : tracker_(tracker) {}
    ~BumpArena() { tracker_->Release(live_); }

    void* Alloc(std::size_t n);
    Mark TakeMark() const { return Mark{chunk_, off_, live_}; }
    void Reset(const Mark& m) {
      tracker_->Release(live_ - m.live);
      chunk_ = m.chunk;
      off_ = m.off;
      live_ = m.live;
    }

   private:
    struct Block {
      std::unique_ptr<char[]> bytes;
      std::size_t size = 0;
    };

    MemoryTracker* tracker_;
    std::vector<Block> chunks_;
    std::size_t chunk_ = 0;  ///< current chunk index
    std::size_t off_ = 0;    ///< bump offset in the current chunk
    std::size_t live_ = 0;   ///< bytes allocated since the outermost reset
  };

  // The consumers positioned in one open forest: the top-level forest for
  // scopes_[0], an open element's children otherwise. `mark` is the arena
  // position when the scope opened; closing the scope resets to it.
  struct Scope {
    Consumer* items = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;  ///< in-place reuse bound for sibling rewrites
    BumpArena::Mark mark;
  };

  // Program resolution snapshot taken before execution: sibling rewrites may
  // reuse the scope's own array in place, so consumers are copied out first.
  struct PendingExec {
    const LoweredProgramRef* prog;
    Consumer c;
  };

  // Adapts the OutputSink interface back onto a segment: a bridged table
  // sub-run emits resolved names, which are re-interned and written as
  // packed records (or streamed straight through when the segment is the
  // live head). Symbol ids are shared — the sub-run uses the same run table.
  class SegSink : public OutputSink {
   public:
    SegSink(OpsEngine* engine, Segment* seg) : engine_(engine), seg_(seg) {}
    void StartElement(std::string_view name) override;
    void EndElement(std::string_view name) override;
    void Text(std::string_view content) override;

   private:
    OpsEngine* engine_;
    Segment* seg_;
  };

  // One in-flight kBridge sub-run over an element anchor. Lives from the
  // anchor's StartElement (fed synthetically at creation, since the routing
  // in Feed only reaches bridges that already exist) to its EndElement, at
  // which point the run is finished and the segment closed. Text/eps anchors
  // never create a record: their sub-runs complete inline.
  struct BridgeRec {
    BridgeRec(OpsEngine* engine, Segment* seg) : sink(engine, seg) {}
    SegSink sink;
    std::unique_ptr<BridgeRun> run;
    Segment* seg = nullptr;
    std::uint64_t anchor_depth = 0;
  };

  Status Sticky(Status s) {
    if (!s.ok() && status_.ok()) status_ = std::move(s);
    return status_.ok() ? Status::OK() : status_;
  }
  Status ChargeSteps(std::uint64_t n);

  Status OnStartElement(const XmlEvent& event);
  Status OnText(const XmlEvent& event);
  Status OnEndElement();
  Status OnEndOfDocument();

  // Runs one program over the current event. `cur` is the consumer's
  // segment; `event` the driving input event (null for epsilon programs —
  // only bridges read it). Spawns append to child_out/sib_out (counts via
  // *child_n / *sib_n). Closes `cur` unless the final instruction handed it
  // off. Failures (a bridge site without a factory, a sub-run error) land in
  // exec_status_ — callers check after the event's programs ran.
  void ExecProgram(const LoweredProgramRef& ref, Segment* cur, SymbolId sym,
                   std::string_view text, const XmlEvent* event,
                   Consumer* child_out, std::uint32_t* child_n,
                   Consumer* sib_out, std::uint32_t* sib_n);
  // Runs consumer `c`'s program `ref`: a selector program for a selector
  // consumer, nothing (but recycling its segment) for a consumer whose
  // region a select discarded, else ExecProgram. Defined here so every
  // event's consumer loop inlines it.
  void Exec(const LoweredProgramRef& ref, const Consumer& c, SymbolId sym,
            std::string_view text, const XmlEvent* event,
            Consumer* child_out, std::uint32_t* child_n, Consumer* sib_out,
            std::uint32_t* sib_n) {
    if (ref.selector) {
      ChoiceRec* rec = c.rec;
      ExecSelector(ref, rec->sel, rec->result, rec->vals(), rec, child_out,
                   child_n, sib_out, sib_n);
    } else if (dead_segments_ != 0 && c.seg->dead()) {
      RecycleSegment(c.seg);  // a losing alternative's writer stops
    } else {
      ExecProgram(ref, c.seg, sym, text, event, child_out, child_n, sib_out,
                  sib_n);
    }
  }
  // Runs selector program `ref` for `sel` with parameter values `vals`; its
  // tail resolves or hands on `result`. `rec` is the running consumer's
  // record (null at a call site): kept by a retarget, recycled otherwise,
  // and recycled unrun once the select is decided.
  void ExecSelector(const LoweredProgramRef& ref, Select* sel, Slot* result,
                    const Value* vals, ChoiceRec* rec, Consumer* child_out,
                    std::uint32_t* child_n, Consumer* sib_out,
                    std::uint32_t* sib_n);

  // The select opcodes, out of ExecProgram's loop: each returns the segment
  // the program writes next.
  Segment* BeginSelect(std::uint32_t idx, Segment* cur);
  Segment* NextAlternative(Segment* cur);
  Segment* EndSelect(std::uint32_t idx, Segment* cur, std::string_view text,
                     Consumer* child_out, std::uint32_t* child_n,
                     Consumer* sib_out, std::uint32_t* sib_n);

  // Select machinery.
  Select* NewSelect(std::uint32_t n_alts);
  ChoiceRec* NewRecord(Select* sel, std::uint32_t n);
  void FreeRecord(ChoiceRec* rec);
  Slot* NewSlot(Select* sel);
  void FreeSlots(Select* sel);
  void MaybeFreeSelect(Select* sel);
  // `slot` resolved to `value`; decides the select when that settles the
  // slot it waits on.
  void Resolve(Select* sel, Slot* slot, Value value);
  // Keeps alternative `winner`'s region, discards the others, drops the
  // fences.
  void Decide(Select* sel, std::uint32_t winner);
  // One segment of a losing region (see Decide).
  void Discard(Segment* s);
  // Stops an undecided select whose whole region is being discarded.
  void Abandon(Select* sel);
  Segment* InsertFence(Segment* prev, Select* owner);
  void RecycleFence(Segment* s);

  Consumer* AllocConsumers(std::uint32_t n) {
    return static_cast<Consumer*>(arena_.Alloc(n * sizeof(Consumer)));
  }

  Segment* NewSegment();
  void RecycleSegment(Segment* s);
  void CloseSegment(Segment* s) {
    if (s->dead()) {
      RecycleSegment(s);
      return;
    }
    s->prev_bits |= Segment::kClosed;
    closed_.push_back(s);
  }
  // The segment a spawned writer takes at the split point: `cur` itself
  // when it buffers nothing, else a new one after `cur` (which closes).
  Segment* SplitAfter(Segment* cur);
  Segment* InsertAfter(Segment* prev);

  // Room for an n-byte unit (whole records) at the end of a segment's chain.
  char* SegmentRoom(Segment* s, std::uint32_t n);

  void EmitStart(Segment* s, SymbolId sym);
  void EmitEnd(Segment* s, SymbolId sym);
  void EmitTextSym(Segment* s, SymbolId sym);
  void EmitTextBytes(Segment* s, std::string_view text);
  // The one replay routine: every record of `chain`, in order, to the sink.
  void ReplayChain(const ChunkChain& chain);
  void FlushHead();
  // Merges each segment closed during this event with its closed
  // neighbours (see the header comment for the invariant).
  void Coalesce();
  void Absorb(Segment* into, Segment* from);

  // Bridge machinery: starts the sub-run for `site` over an element anchor
  // writing into `seg` (the anchor StartElement is fed from `event`), or
  // runs a text/eps anchor to completion inline.
  void StartElementBridge(std::uint32_t site, Segment* seg,
                          const XmlEvent* event, SymbolId sym);
  void RunInlineBridge(std::uint32_t site, Segment* cur,
                       const XmlEvent* event);
  Status FeedBridges(const XmlEvent& event);
  Status CompleteBridges();  ///< finish bridges anchored at depth_

  const LoweredPlan* plan_;
  OutputSink* sink_;
  SymbolTable* symbols_;
  MemoryTracker* tracker_;
  const std::uint64_t max_steps_;
  SchemaValidator* validator_;
  const CancelToken* cancel_;
  const std::uint32_t cancel_check_events_;
  const BridgeFactory* bridge_factory_;
  std::uint32_t events_since_cancel_check_ = 0;

  BumpArena arena_;
  SegmentPool pool_;
  Segment* head_ = nullptr;  ///< oldest undrained segment of the chain
  Segment* live_ = nullptr;  ///< the open head, written through to the sink
  std::vector<Segment*> closed_;  ///< closed during this event
  std::size_t live_segments_ = 0;
  // Dead segments whose writer has not yet stopped: while zero (always, on
  // plans without selects) no consumer needs its segment checked.
  std::size_t dead_segments_ = 0;
  std::size_t segments_peak_ = 0;
  std::vector<Scope> scopes_;
  std::vector<PendingExec> scratch_;
  // Selects a running program has opened but not yet ended (alternatives
  // may hold nested selects), with the alternative being written.
  struct OpenSelect {
    Select* sel;
    std::uint32_t alt;
  };
  std::vector<OpenSelect> open_selects_;
  std::vector<Slot*> nested_;     ///< ExecSelector: this program's nested slots
  std::vector<Value> alt_values_;  ///< kSelEnd: the alternatives as values
  std::uint64_t skip_depth_ = 0;     ///< open elements with no consumer
  std::uint64_t total_consumers_ = 0;

  // Active element-anchored bridge sub-runs, a stack ordered by anchor
  // depth (anchors nest with the input). depth_ counts open elements of the
  // whole input — independent of skip_depth_, which only governs consumer
  // scopes; a bridge keeps receiving the events of a subtree the ops
  // consumers skipped.
  std::vector<std::unique_ptr<BridgeRec>> bridges_;
  std::uint64_t depth_ = 0;
  std::uint64_t bridges_spawned_ = 0;
  Status exec_status_ = Status::OK();  ///< first failure inside ExecProgram

  bool started_ = false;
  bool input_done_ = false;
  bool done_ = false;
  Status status_ = Status::OK();
  std::uint64_t steps_ = 0;
  std::uint64_t spawned_ = 0;
  std::size_t output_events_ = 0;
};

}  // namespace lower
}  // namespace xqmft

#endif  // XQMFT_LOWER_OPS_ENGINE_H_
