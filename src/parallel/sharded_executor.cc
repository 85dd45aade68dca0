#include "parallel/sharded_executor.h"

#include <atomic>
#include <thread>
#include <vector>

#include "parallel/merge_sink.h"

namespace xqmft {

std::size_t ResolveThreads(std::size_t threads, std::size_t item_count) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  if (threads > item_count) threads = item_count;
  return threads == 0 ? 1 : threads;
}

Status ShardedExecutor::Run(std::size_t item_count, const ItemFn& item,
                            OutputSink* downstream, std::size_t threads) {
  if (item_count == 0) return Status::OK();
  // One item has nothing to order or isolate from: stream it unstaged.
  if (item_count == 1) return item(0, downstream);
  threads = ResolveThreads(threads, item_count);

  if (threads <= 1) {
    // Serial fast path: no worker threads, items run in order on the
    // calling thread. Output is still staged per item so the error
    // contract matches the merged path exactly — a failing item's partial
    // output never reaches the downstream sink at any thread count.
    for (std::size_t i = 0; i < item_count; ++i) {
      EventBuffer buffer;
      XQMFT_RETURN_NOT_OK(item(i, &buffer));
      buffer.Replay(downstream);
    }
    return Status::OK();
  }

  OrderedMerge merge(downstream, item_count);
  // The work queue: a shared atomic cursor. Workers steal the next
  // unclaimed index as they finish, so slow shards never gate fast ones
  // (dynamic load balancing at item granularity).
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (!merge.saw_error()) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= item_count) return;
      EventBuffer buffer;
      Status st = item(i, &buffer);
      merge.Commit(i, std::move(buffer), std::move(st));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker N-1
  for (std::thread& t : pool) t.join();
  return merge.Finish();
}

}  // namespace xqmft
