// Single-pass multi-query execution: one shared event stream fanned into N
// push-mode engines (stream/engine.h). The input is tokenized exactly once
// — the inversion of parallel/'s one-query/many-shards split — and the
// union projection automaton (union_projection.h) drops events no plan can
// observe before they reach any engine; a rejected element's subtree is
// skipped by the source itself (EventSource::SkipElement), so its bytes are
// never tokenized into events.
//
// Symbol spaces: the shared source binds to the run's master table; each
// engine keeps its own run-local table (its rule ids live there), bridged
// by a lazily grown dense master-id -> engine-id remap, so the per-event
// per-engine cost is an array index, not a hash lookup.
#ifndef XQMFT_MULTIQUERY_MULTI_RUN_H_
#define XQMFT_MULTIQUERY_MULTI_RUN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "multiquery/projection.h"
#include "multiquery/union_projection.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "xml/event_source.h"
#include "xml/events.h"

namespace xqmft {

/// One plan of a multi-query run.
struct MultiPlanSpec {
  const Mft* mft = nullptr;
  /// The plan's source projection (CompiledPlan::projection()); null is
  /// treated as whole_document and disables the union automaton for the
  /// whole run. Must outlive the run.
  const QueryProjection* projection = nullptr;
  /// Per-plan step budget, cancel token etc. A `validator` is allowed only
  /// in a one-plan run and switches the union projection off (it must see
  /// every event). `sax` must tokenize identically across all plans.
  StreamOptions options;
  OutputSink* sink = nullptr;
};

struct MultiPlanResult {
  /// Per-plan engine failure (rule miss, step budget): sticky, isolated —
  /// sibling plans are unaffected. Source-level failures (XML errors) abort
  /// every plan that had not already completed.
  Status status;
  /// Filled even for failed plans (whatever accumulated). bytes_in counts
  /// the full shared input: it reports what this plan's serial run would
  /// have consumed, not a per-plan share.
  StreamStats stats;
  std::uint64_t events_fed = 0;  ///< events this engine consumed
};

struct MultiQueryStats {
  std::uint64_t events_total = 0;    ///< events the shared source produced
  /// Events produced and then dropped by the union projection: a skipped
  /// subtree counts only its start event, since the source skips the rest
  /// without producing events.
  std::uint64_t events_skipped = 0;
  /// Subtrees the source skipped (EventSource::SkipElement) and the input
  /// bytes those skips consumed — the bytes_consumed() delta around each.
  std::uint64_t subtrees_skipped = 0;
  std::uint64_t bytes_skipped = 0;
  std::size_t bytes_in = 0;          ///< shared input bytes, counted once
  bool projection_enabled = false;
};

/// \brief Drives one shared event source through every plan's engine in a
/// single pass — the one loop that feeds engines; every run (core/pipeline.h)
/// streams each document through it, one plan or many. Use once: construct,
/// Run, read results().
class MultiQueryRun {
 public:
  /// `union_projection` merges the plans' projections and skips subtrees no
  /// plan can observe at the source. `cancel` is the run-level token, polled
  /// in the shared pump (every 256 events) and inside each source skip
  /// (every 64 KiB) so projection-skipped stretches — where no engine sees
  /// events — cannot outrun a deadline; a trip aborts every unfinished
  /// plan with the token's status, and plans that already completed keep
  /// their results. Engines poll their own StreamOptions::cancel. Must
  /// outlive the run; null means not cancellable.
  MultiQueryRun(std::vector<MultiPlanSpec> plans, bool union_projection = true,
                const CancelToken* cancel = nullptr);
  ~MultiQueryRun();
  MultiQueryRun(const MultiQueryRun&) = delete;
  MultiQueryRun& operator=(const MultiQueryRun&) = delete;

  /// Streams `events` to completion (or until every plan has finished or
  /// failed — the run stops reading early when no engine can produce
  /// further output). The source is bound to the run's master symbol table.
  /// Returns setup and source-level errors, which also land in results()
  /// for every plan they abort; per-plan engine failures land in results()
  /// only.
  Status Run(EventSource* events);

  const std::vector<MultiPlanResult>& results() const { return results_; }
  const MultiQueryStats& stats() const { return stats_; }

 private:
  struct SymbolRemap {
    SymbolTable* dst = nullptr;  ///< the engine's run-local table
    std::vector<SymbolId> ids;   ///< master id -> engine id, grown lazily
    SymbolId Map(const XmlEvent& event);
  };

  Status CheckPlans() const;
  /// Finishes engine `i` and fills its stats, byte accounting included.
  void FinishPlan(std::size_t i, EventSource* events);
  /// Aborts the pass on a source error or run-level cancellation.
  Status Abort(EventSource* events, Status st);

  std::vector<MultiPlanSpec> plans_;
  bool union_projection_;
  const CancelToken* cancel_;
  SymbolTable master_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<SymbolRemap> remaps_;
  std::vector<MultiPlanResult> results_;
  std::vector<std::size_t> first_output_bytes_;
  MultiQueryStats stats_;
  bool ran_ = false;
};

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_MULTI_RUN_H_
