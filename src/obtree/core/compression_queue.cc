// Copyright 2026 The obtree Authors.

#include "obtree/core/compression_queue.h"

namespace obtree {

void CompressionQueue::Push(CompressionTask task, bool update_if_present) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = tasks_.find(task.node);
  if (it == tasks_.end()) {
    tasks_.emplace(task.node, std::move(task));
    size_.store(tasks_.size(), std::memory_order_release);
    return;
  }
  if (update_if_present) {
    it->second = std::move(task);
  }
}

void CompressionQueue::PushFromHolder(PageId node, uint32_t level, Key high,
                                      Timestamp stamp,
                                      const std::vector<PageId>& stack) {
  std::lock_guard<std::mutex> l(mu_);
  CompressionTask& task = tasks_[node];
  if (task.node == node && task.high == high) return;  // nothing new
  task = CompressionTask{node, level, high, stamp, stack};
  size_.store(tasks_.size(), std::memory_order_release);
}

bool CompressionQueue::Pop(CompressionTask* out) {
  std::lock_guard<std::mutex> l(mu_);
  if (tasks_.empty()) return false;
  auto best = tasks_.begin();
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->second.level > best->second.level) best = it;
  }
  *out = std::move(best->second);
  tasks_.erase(best);
  size_.store(tasks_.size(), std::memory_order_release);
  in_flight_.insert(out->stamp);
  return true;
}

void CompressionQueue::FinishTask(Timestamp stamp) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = in_flight_.find(stamp);
  if (it != in_flight_.end()) in_flight_.erase(it);
}

bool CompressionQueue::Remove(PageId node) {
  std::lock_guard<std::mutex> l(mu_);
  if (tasks_.erase(node) == 0) return false;
  size_.store(tasks_.size(), std::memory_order_release);
  return true;
}

bool CompressionQueue::Contains(PageId node) const {
  std::lock_guard<std::mutex> l(mu_);
  return tasks_.count(node) > 0;
}

Timestamp CompressionQueue::MinStamp() const {
  std::lock_guard<std::mutex> l(mu_);
  Timestamp min = kMaxTimestamp;
  for (const auto& [node, task] : tasks_) {
    if (task.stamp < min) min = task.stamp;
  }
  if (!in_flight_.empty() && *in_flight_.begin() < min) {
    min = *in_flight_.begin();
  }
  return min;
}

}  // namespace obtree
