// Public facade: the paper's full pipeline behind one compiled artifact and
// one run entry point.
//
//   MinXQuery text --parse--> AST --T,F (Section 3)--> MFT
//                  --optimize (Section 4.1)--> streaming-friendly MFT
//                  --streaming engine [30]--> XML-to-XML stream processor
//
// The compiled artifact is split along the serving boundary the paper's
// pitch implies (translate once, stream arbitrarily many documents):
//
//   CompiledPlan — immutable and shareable: the parsed query, the
//                  translated and optimized MFT with its rule dispatch
//                  fully compiled and its base SymbolTable interned at
//                  build time. Safe to share read-only across any number
//                  of concurrent runs and threads; what a query cache
//                  hands out.
//   Run          — every streaming run: plans x inputs -> sinks. One plan
//                  over many inputs (or over the shards of a pretok input)
//                  fans out across worker threads with an ordered merge;
//                  several plans share one tokenization per input. Either
//                  way each document streams through MultiQueryRun, the one
//                  loop that feeds engines, under the union of the plans'
//                  source projections.
//
// Typical use:
//
//   auto plan = CompiledPlan::Compile("<out>{$input//a}</out>");
//   StringSink sink;
//   Status st = Run({plan.value().get()},
//                   {ParallelInput::XmlFile("input.xml")}, {&sink});
#ifndef XQMFT_CORE_PIPELINE_H_
#define XQMFT_CORE_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mft/mft.h"
#include "mft/optimize.h"
#include "multiquery/multi_run.h"
#include "multiquery/projection.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "util/status.h"
#include "xml/event_source.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

namespace xqmft {

struct PipelineOptions {
  /// Run the Section 4.1 parameter/stay/reachability optimizations. The
  /// unoptimized transducer buffers the whole input (Figure 4's no-opt
  /// curves); disable only for measurement.
  bool optimize = true;
  OptimizeOptions optimizer;
  /// Streaming defaults baked into the plan. stream.validator and
  /// stream.cancel must be null: both are per-run mutable state that would
  /// be reachable from every concurrent run of a shared plan — pass them per
  /// run through RunOptions instead.
  StreamOptions stream;
};

/// \brief One input document of a run (see Run).
///
/// The file and in-memory kinds are opened by the run; `value` is a path for
/// the file kinds and the raw bytes otherwise. The two borrowed kinds stream
/// a caller-owned source (stdin, a chunked test source, a fault-injecting
/// wrapper), which must outlive the run and is read exactly once.
struct ParallelInput {
  enum class Kind {
    kXmlFile,      ///< text XML file (memory-mapped when possible)
    kPretokFile,   ///< pretok event cache file
    kXmlText,      ///< in-memory text XML
    kPretokBytes,  ///< in-memory pretok event stream
    kByteSource,   ///< borrowed text XML byte source
    kEventSource,  ///< borrowed, already-tokenized event source
  };

  Kind kind = Kind::kXmlFile;
  std::string value;
  ByteSource* bytes = nullptr;    ///< kByteSource only
  EventSource* events = nullptr;  ///< kEventSource only

  static ParallelInput XmlFile(std::string path) {
    return {Kind::kXmlFile, std::move(path)};
  }
  static ParallelInput PretokFile(std::string path) {
    return {Kind::kPretokFile, std::move(path)};
  }
  static ParallelInput XmlText(std::string xml) {
    return {Kind::kXmlText, std::move(xml)};
  }
  static ParallelInput PretokBytes(std::string bytes) {
    return {Kind::kPretokBytes, std::move(bytes)};
  }
  static ParallelInput Bytes(ByteSource* source) {
    return {Kind::kByteSource, {}, source, nullptr};
  }
  /// The caller is responsible for tokenization compatibility: the events
  /// must have been produced under the plans' SAX options.
  static ParallelInput Events(EventSource* source) {
    return {Kind::kEventSource, {}, nullptr, source};
  }
};

/// \brief An immutable, shareable compiled query: parse + translate +
/// optimize happen exactly once, the rule dispatch and base symbol table
/// are compiled eagerly at build time, and nothing is mutated afterwards.
///
/// Immutability is structural, not conventional: every accessor is const,
/// the lazily-cached pieces of the Mft (dispatch tables, interned rule ids)
/// are forced before the constructor returns, and a plan with a schema
/// validator or cancel token (per-run mutable state) is rejected at build
/// time. A `shared_ptr<const CompiledPlan>` can therefore be handed to any
/// number of concurrent runs, worker threads, or cache entries without
/// synchronization.
class CompiledPlan {
 public:
  /// Parses, validates, translates, optimizes (by default), and compiles
  /// the rule dispatch.
  static Result<std::shared_ptr<const CompiledPlan>> Compile(
      const std::string& query_text, PipelineOptions options = {});

  /// Wraps a hand-written transducer (e.g. the CLI's `mft` command) in the
  /// same immutable serving artifact: validates, compiles the dispatch,
  /// shares like any other plan. No query or optimize report is attached.
  static Result<std::shared_ptr<const CompiledPlan>> FromMft(
      Mft mft, PipelineOptions options = {});

  /// The executable transducer (optimized if so configured). Its dispatch
  /// and base symbol table are compiled; treat as read-only.
  const Mft& mft() const { return mft_; }
  /// The transducer as produced by the Section 3 translation (empty for
  /// FromMft-built plans).
  const Mft& unoptimized_mft() const { return raw_mft_; }
  /// What the optimizer did.
  const OptimizeReport& optimize_report() const { return report_; }
  /// True when this plan was compiled from query text (Compile, not
  /// FromMft); query() may only be called then.
  bool has_query() const { return query_ != nullptr; }
  /// The parsed query.
  const QueryExpr& query() const { return *query_; }
  const PipelineOptions& options() const { return options_; }

  /// The plan's source projection (multiquery/projection.h), derived once at
  /// compile time: the absolute paths whose matches the query can observe,
  /// or whole_document when nothing can be skipped (FromMft plans, queries
  /// outside the projectable fragment). Part of the immutable artifact so
  /// runs union projections without re-walking query ASTs.
  const QueryProjection& projection() const { return projection_; }

  /// Approximate resident bytes of the compiled artifact (states, rules,
  /// dispatch tables, interned symbols) — the accounting a query cache
  /// reports; an estimate, not an allocator measurement.
  std::size_t ApproxBytes() const;

  /// One-plan shorthands for Run over one file or one borrowed event
  /// source, kept for the benchmark's in-process probe
  /// (perfbench/probe.cc); everything else calls Run.
  Status StreamFile(const std::string& path, OutputSink* sink,
                    StreamStats* stats = nullptr) const;
  Status StreamEvents(EventSource* events, OutputSink* sink,
                      StreamStats* stats = nullptr) const;

  /// Non-streaming reference evaluation (whole document in memory); used
  /// for differential testing and debugging.
  Result<Forest> Evaluate(const Forest& input) const;

 private:
  CompiledPlan() = default;

  std::unique_ptr<QueryExpr> query_;
  Mft raw_mft_;
  Mft mft_;
  OptimizeReport report_;
  PipelineOptions options_;
  QueryProjection projection_;
};

/// \brief Per-run knobs of Run. Everything baked into a plan (step budget,
/// SAX options, engine choice) stays in the plan; these are the pieces that
/// belong to one run.
struct RunOptions {
  /// Worker threads for a one-plan run with several work items. 0 = one per
  /// hardware thread; clamped to the item count. Runs with more than one
  /// plan are serial per document and accept only 1.
  std::size_t threads = 1;
  /// Run-level cooperative cancellation (deadline, client disconnect):
  /// installed in every engine and also polled in the shared pump, so
  /// projection-skipped stretches cannot outrun a deadline. Must outlive
  /// the run; null means not cancellable.
  const CancelToken* cancel = nullptr;
  /// Per-plan tokens, parallel to the plan vector (empty or short = the
  /// run-level token for the missing plans). A tripped member fails only
  /// its own plan; siblings keep streaming.
  std::vector<const CancelToken*> per_plan_cancel;
  /// Merge the plans' projections and skip subtrees no plan can observe at
  /// the source; off means every engine sees every event.
  bool union_projection = true;
  /// One-pass schema validation of the input during the run (per-run
  /// stateful). Only for a one-plan run over a single unsharded input; a
  /// validator must see every event, so it switches projection off.
  SchemaValidator* validator = nullptr;
  /// Single-document sharding of pretok inputs in a one-plan run: each
  /// pretok input splits at top-level forest boundaries into at most
  /// `shards` work items, each evaluated as its own document (see
  /// parallel/pretok_split.h). 1 = no splitting; 0 = one item per
  /// top-level tree, so the decomposition — and therefore the output on a
  /// multi-tree forest — depends only on the input, never on the machine.
  std::size_t shards = 1;
};

/// \brief What one run did, per plan and for the shared passes.
struct RunResult {
  struct Plan {
    /// The plan's first failure (setup, source, or engine); OK otherwise.
    Status status;
    /// One entry per work item the plan streamed (an input, or one shard
    /// of a sharded pretok input), in input order.
    std::vector<StreamStats> per_input;
    /// per_input summed into one record; peaks (memory, segments) are the
    /// max across items, which need not coincide in time, and output
    /// staged in the ordered merge is not tracked. One item's record
    /// passes through unchanged.
    StreamStats total;
    std::uint64_t events_fed = 0;  ///< events the plan's engines consumed
  };
  std::vector<Plan> plans;  ///< parallel to the plan vector
  std::size_t documents = 0;  ///< shared passes run (work items)
  /// Shared-pass counters summed over documents; bytes_in counts every
  /// tokenized byte once, however many plans read it.
  MultiQueryStats pass;
};

/// The one streaming entry point: streams every input through every plan.
/// `sinks` parallels `plans`; each plan's sink receives its outputs for the
/// inputs concatenated in input order.
///
/// One plan: each input (or each shard, see RunOptions::shards) is a work
/// item; items fan out across RunOptions::threads workers and merge into the
/// sink in input order, byte-identical to a serial run for any thread
/// count. A run of exactly one item streams straight into the sink; with
/// more items each item's output is staged, so a failing item leaves the
/// sink holding only the successful items before it.
///
/// Several plans: every input is tokenized once and feeds every plan still
/// live (a plan that failed on an earlier input is not fed later ones);
/// per-plan failures are isolated and sinks receive output as it is
/// emitted.
///
/// Plans must tokenize identically (SAX options). Returns the lowest-index
/// plan failure when every plan failed or `result` is null, OK otherwise;
/// setup errors (bad arguments, a validator on a multi-item run) fail every
/// plan.
Status Run(const std::vector<const CompiledPlan*>& plans,
           const std::vector<ParallelInput>& inputs,
           const std::vector<OutputSink*>& sinks,
           const RunOptions& options = {}, RunResult* result = nullptr);

}  // namespace xqmft

#endif  // XQMFT_CORE_PIPELINE_H_
