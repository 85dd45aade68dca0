// Multi-query serving: (cached plan × input batch) execution.
//
// A QueryService owns the process-wide QueryCache and executes requests of
// the shape "this query over these documents with this many workers"
// through Run (core/pipeline.h): one input streams straight into the
// response sink; several fan out across workers with an ordered merge, so
// responses are byte-identical to streaming the batch serially whatever the
// thread count. Compile cost is
// paid at most once per distinct query and reported separately from stream
// cost in the per-request stats — the compile-amortization story
// bench_service measures.
#ifndef XQMFT_SERVICE_QUERY_SERVICE_H_
#define XQMFT_SERVICE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "service/query_cache.h"
#include "util/cancel.h"
#include "util/status.h"

namespace xqmft {

/// \brief One serving request: a query over a batch of documents.
struct ServiceRequest {
  std::string query;
  /// Documents to stream, in output order.
  std::vector<ParallelInput> inputs;
  /// Worker threads for the batch (0 = one per hardware thread; 1 = serial).
  std::size_t threads = 1;
  /// Skip the Section 4.1 optimizations (measurement requests).
  bool no_opt = false;
  /// Wall-clock budget for the streaming pass, in milliseconds; 0 = none.
  /// When `cancel` is provided the deadline is armed on it (if the caller
  /// has not armed one already — a server arms from admission time so queue
  /// wait counts); otherwise Execute arms a request-local token. A trip
  /// aborts the run with kDeadlineExceeded at the next engine check.
  std::uint64_t deadline_ms = 0;
  /// Cooperative cancellation for this request (client disconnect, server
  /// shutdown). Must outlive the call; null = not cancellable (unless
  /// deadline_ms arms a local token).
  CancelToken* cancel = nullptr;
};

/// \brief What one request cost, compile and stream separated.
struct ServiceRequestStats {
  bool cache_hit = false;
  double compile_ms = 0.0;  ///< 0 when the plan was cached
  double stream_ms = 0.0;   ///< batch mode: the group's shared-pass wall time
  std::vector<StreamStats> per_input;
  StreamStats total;  ///< summed; peak_bytes is the max across inputs
  // --- batch-mode (ExecuteBatch) fields; untouched by Execute ---
  /// Per-request outcome: batch execution isolates failures, so a bad query
  /// or a mid-stream engine error lands here instead of failing the batch.
  Status status = Status::OK();
  /// True when another request in the batch resolved to the same plan over
  /// the same documents: this request's output is a replay of the sibling's
  /// engine run, not a second streaming pass.
  bool deduped = false;
  std::uint64_t events_fed = 0;  ///< events this request's engine consumed
  /// Events the union projection dropped at the shared source for this
  /// request's group, and the subtrees and input bytes the source skipped
  /// for it (all identical for every request in the group).
  std::uint64_t events_skipped = 0;
  std::uint64_t subtrees_skipped = 0;
  std::uint64_t bytes_skipped = 0;
};

/// \brief Cost of one ExecuteBatch call, with shared work attributed once.
///
/// The headline counter is `parsed_bytes`: bytes tokenized across the batch
/// counted once per distinct document, however many requests read that
/// document — the single-parse property the multi-query engine exists for.
/// `per_request[i].total.bytes_in` still reports the conventional per-request
/// view (every byte its plans observed), so
/// sum(per_request[].total.bytes_in) >= parsed_bytes, with equality only
/// when no two requests share a document.
struct ServiceBatchStats {
  std::size_t documents = 0;         ///< documents streamed (each once)
  std::uint64_t parsed_bytes = 0;    ///< bytes tokenized, once per document
  std::size_t unique_plans = 0;      ///< distinct compiled plans streamed
  std::size_t deduped_requests = 0;  ///< requests replayed from a sibling
  double stream_ms = 0.0;            ///< wall time summed over group passes
  std::vector<ServiceRequestStats> per_request;
};

/// \brief Executes requests against a shared compile-once cache.
/// Thread-safe: concurrent Execute calls share plans through the cache and
/// run independent engines.
class QueryService {
 public:
  explicit QueryService(QueryCacheOptions cache_options = {},
                        PipelineOptions base_options = {});

  /// Streams the request's batch into `sink` (outputs concatenate in input
  /// order). The plan comes from the cache — compiled now only if this is
  /// the first sighting of the query.
  Status Execute(const ServiceRequest& request, OutputSink* sink,
                 ServiceRequestStats* stats = nullptr);

  /// Executes a batch of requests with shared work done once: requests over
  /// an identical document list form a group, each group's distinct plans
  /// (deduplicated through the cache, so two spellings of one query share an
  /// engine) stream every document in a single pass under the union
  /// projection automaton, and each request's sink receives a replay of its
  /// plan's recorded output. Responses are byte-identical to issuing the
  /// requests serially through Execute.
  ///
  /// `sinks` parallels `requests`. `request.threads` is ignored: the shared
  /// pass is serial per document (combining multi-query execution with
  /// document-set sharding is future work). `run_options` carries the
  /// batch-wide knobs (union projection, batch cancel token); per-plan
  /// tokens are derived from the members. `request.cancel` is honored per
  /// member: a token that tripped before the pass excludes the member up
  /// front (no compile, no slot); a single-member slot streams under its
  /// member's token, so a mid-pass trip detaches just that plan; and a
  /// member sharing a deduped slot with live siblings is denied its replay
  /// once its own token trips. Per-request failures (compile
  /// errors, engine errors) are isolated in `stats->per_request[i].status`;
  /// the returned Status is non-OK for batch-level problems (empty batch,
  /// size mismatch), when `stats` is null (first failing request, lowest
  /// index), or when every request failed.
  Status ExecuteBatch(const std::vector<ServiceRequest>& requests,
                      const std::vector<OutputSink*>& sinks,
                      ServiceBatchStats* stats = nullptr,
                      const RunOptions& run_options = {});

  QueryCache* cache() { return &cache_; }
  const QueryCache& cache() const { return cache_; }
  /// The options every request's plan is compiled under (before per-request
  /// no_opt). The wire layer uses these to run fault-injected streams
  /// through the same pipeline configuration as normal requests.
  const PipelineOptions& base_options() const { return base_options_; }

 private:
  PipelineOptions base_options_;
  QueryCache cache_;
};

}  // namespace xqmft

#endif  // XQMFT_SERVICE_QUERY_SERVICE_H_
