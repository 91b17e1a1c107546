// Copyright 2026 The obtree Authors.

#include "obtree/core/compression_queue.h"

namespace obtree {

void CompressionQueue::Push(CompressionTask task, bool update_if_present) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = tasks_.find(task.node);
  if (it == tasks_.end()) {
    tasks_.emplace(task.node, std::move(task));
    return;
  }
  if (update_if_present) {
    it->second = std::move(task);
  }
}

bool CompressionQueue::Pop(CompressionTask* out) {
  std::lock_guard<std::mutex> l(mu_);
  if (tasks_.empty() || paused_ > 0) return false;
  auto best = tasks_.begin();
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->second.level > best->second.level) best = it;
  }
  *out = std::move(best->second);
  tasks_.erase(best);
  in_flight_.insert(out->stamp);
  return true;
}

void CompressionQueue::FinishTask(Timestamp stamp) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = in_flight_.find(stamp);
  if (it != in_flight_.end()) in_flight_.erase(it);
  if (in_flight_.empty()) no_in_flight_.notify_all();
}

void CompressionQueue::Pause() {
  std::unique_lock<std::mutex> l(mu_);
  ++paused_;
  no_in_flight_.wait(l, [this]() { return in_flight_.empty(); });
}

void CompressionQueue::Resume() {
  std::lock_guard<std::mutex> l(mu_);
  --paused_;
}

bool CompressionQueue::Remove(PageId node) {
  std::lock_guard<std::mutex> l(mu_);
  return tasks_.erase(node) > 0;
}

bool CompressionQueue::Contains(PageId node) const {
  std::lock_guard<std::mutex> l(mu_);
  return tasks_.count(node) > 0;
}

size_t CompressionQueue::Size() const {
  std::lock_guard<std::mutex> l(mu_);
  return tasks_.size();
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

void CompressionQueue::RegisterWith(EpochManager* epoch) {
  epoch->RegisterExternalMinProvider([this]() { return MinStamp(); });
}

}  // namespace obtree
