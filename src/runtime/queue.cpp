#include "deco/runtime/queue.h"

#include <utility>

#include "deco/core/clock.h"
#include "deco/core/telemetry.h"
#include "deco/tensor/check.h"

namespace deco::runtime {

OverflowPolicy overflow_policy_from_name(const std::string& name) {
  if (name == "block") return OverflowPolicy::kBlock;
  if (name == "shed_oldest" || name == "shed") return OverflowPolicy::kShedOldest;
  DECO_CHECK(false, "unknown overflow policy '" + name +
                    "' (expected block | shed_oldest)");
  return OverflowPolicy::kBlock;
}

std::string overflow_policy_name(OverflowPolicy p) {
  return p == OverflowPolicy::kBlock ? "block" : "shed_oldest";
}

SegmentQueue::SegmentQueue(int64_t depth, OverflowPolicy policy)
    : depth_(depth), policy_(policy) {
  DECO_CHECK(depth >= 1, "SegmentQueue: depth must be >= 1");
}

bool SegmentQueue::push(Tensor segment) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) {
    ++stats_.rejected;
    return false;
  }
  if (static_cast<int64_t>(items_.size()) >= depth_) {
    if (policy_ == OverflowPolicy::kShedOldest) {
      items_.pop_front();
      ++stats_.shed;
      static core::telemetry::Counter& shed_c =
          core::telemetry::counter("runtime/segments_shed");
      shed_c.add(1);
    } else {
      ++stats_.block_waits;
      const int64_t t0 = core::now_ns();
      not_full_.wait(lock, [&] {
        return closed_ || static_cast<int64_t>(items_.size()) < depth_;
      });
      stats_.block_wait_ns += core::now_ns() - t0;
      {
        static core::telemetry::Histogram& wait_h = core::telemetry::histogram(
            "runtime/enqueue_wait_us",
            {10, 100, 1000, 10000, 100000, 1000000, 10000000});
        wait_h.observe((core::now_ns() - t0) / 1000);
      }
      if (closed_) {
        ++stats_.rejected;
        return false;
      }
    }
  }
  items_.push_back(std::move(segment));
  ++stats_.pushed;
  if (static_cast<int64_t>(items_.size()) > stats_.max_depth)
    stats_.max_depth = static_cast<int64_t>(items_.size());
  return true;
}

bool SegmentQueue::try_pop(Tensor& out) {
  bool popped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    popped = true;
  }
  // Wake one blocked producer outside the lock; a freed slot admits exactly
  // one waiting push.
  if (popped) not_full_.notify_one();
  return true;
}

void SegmentQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
}

bool SegmentQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int64_t SegmentQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(items_.size());
}

QueueStats SegmentQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace deco::runtime
