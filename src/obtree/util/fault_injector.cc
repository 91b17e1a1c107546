// Copyright 2026 The obtree Authors.

#include "obtree/util/fault_injector.h"

#include <chrono>
#include <thread>

namespace obtree {

std::atomic<uint64_t> FaultInjector::trap_refs_{0};

FaultInjector& FaultInjector::Instance() {
  // Leaked on purpose: sites may be evaluated by threads that outlive main
  // (e.g. detached pool workers during process teardown).
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

uint64_t FaultInjector::NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dULL;
}

void FaultInjector::Arm(const std::string& site, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sites_.find(site);
  const bool was_live = it != sites_.end() && !it->second.exhausted;
  Site s;
  s.spec = spec;
  s.armed_by = std::this_thread::get_id();
  // Never let the stream start at 0 (xorshift fixpoint).
  s.rng_state = spec.seed ? spec.seed : 0x9e3779b97f4a7c15ULL;
  sites_[site] = s;
  if (!was_live) {
    ++armed_count_;
    AddTrapRef();
  }
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  if (!it->second.exhausted) {
    --armed_count_;
    ReleaseTrapRef();
  }
  sites_.erase(it);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (uint64_t i = 0; i < armed_count_; ++i) ReleaseTrapRef();
  armed_count_ = 0;
  sites_.clear();
}

FaultOutcome FaultInjector::Evaluate(const char* site, bool error_eligible) {
  FaultOutcome out;
  if (tl_exempt_depth_ > 0) return out;
  uint64_t stall_us = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (armed_count_ == 0) return out;
    auto it = sites_.find(site);
    if (it == sites_.end()) return out;
    Site& s = it->second;
    if (s.exhausted) return out;
    if (s.spec.action == FaultAction::kError && !error_eligible) {
      // Don't consume a trigger for a hit that could not have fired.
      return out;
    }
    if (s.spec.calling_thread_only &&
        s.armed_by != std::this_thread::get_id()) {
      return out;
    }
    const uint64_t hit = ++s.hits;
    if (hit <= s.spec.skip_first) return out;
    if (s.spec.every_nth > 1 && (hit - 1) % s.spec.every_nth != 0) return out;
    if (s.spec.probability < 1.0) {
      const double roll =
          static_cast<double>(NextRand(&s.rng_state) >> 11) * 0x1.0p-53;
      if (roll >= s.spec.probability) return out;
    }
    ++s.fires;
    if (s.spec.max_fires > 0 && s.fires >= s.spec.max_fires) {
      s.exhausted = true;
      --armed_count_;
      ReleaseTrapRef();
    }
    if (s.spec.action == FaultAction::kError) {
      out.inject_error = true;
      return out;
    }
    if (s.spec.action == FaultAction::kCrash) {
      out.crash = true;
      return out;
    }
    stall_us = s.spec.stall_us;
  }
  // Sleep outside the registry lock so a stall never serializes other sites.
  if (stall_us > 0) {
    out.stall_us = stall_us;
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
  return out;
}

FaultSiteStats FaultInjector::SiteStats(const std::string& site) const {
  std::lock_guard<std::mutex> lk(mu_);
  FaultSiteStats st;
  auto it = sites_.find(site);
  if (it != sites_.end()) {
    st.hits = it->second.hits;
    st.fires = it->second.fires;
  }
  return st;
}

std::vector<std::string> FaultInjector::ArmedSites() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  for (const auto& kv : sites_) {
    if (!kv.second.exhausted) names.push_back(kv.first);
  }
  return names;
}

}  // namespace obtree
