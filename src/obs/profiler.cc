#include "obs/profiler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <utility>

namespace kea::obs {

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PhaseNode* FindChild(const PhaseNode* parent, const char* name,
                     std::memory_order order) {
  for (PhaseNode* c = parent->first_child.load(order); c != nullptr;
       c = c->next_sibling) {
    if (c->name == name) return c;
  }
  return nullptr;
}
}  // namespace

PhaseProfiler& PhaseProfiler::Get() {
  static PhaseProfiler* p = new PhaseProfiler();  // leaked like Registry
  return *p;
}

PhaseNode* PhaseProfiler::Child(PhaseNode* parent, const char* name) {
  if (parent == nullptr) parent = &root_;
  // A child list only ever grows at its head, and a node's fields are set
  // before the release store that publishes it, so readers walk it without
  // a lock; only creation takes mu_, and re-checks under it.
  if (PhaseNode* c = FindChild(parent, name, std::memory_order_acquire)) {
    return c;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (PhaseNode* c = FindChild(parent, name, std::memory_order_relaxed)) {
    return c;
  }
  auto node = std::make_unique<PhaseNode>();
  node->name = name;
  node->parent = parent;
  node->next_sibling = parent->first_child.load(std::memory_order_relaxed);
  PhaseNode* raw = node.get();
  nodes_.push_back(std::move(node));
  parent->first_child.store(raw, std::memory_order_release);
  return raw;
}

std::string PhaseProfiler::CollapsedStack() const {
  std::vector<std::pair<std::string, uint64_t>> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& node : nodes_) {
      if (node->count.load(std::memory_order_relaxed) == 0) continue;
      std::string path = node->name;
      for (const PhaseNode* p = node->parent; p != &root_; p = p->parent) {
        path = p->name + ";" + path;
      }
      rows.emplace_back(std::move(path),
                        node->self_ns.load(std::memory_order_relaxed));
    }
  }
  // Sorted by path so the rendering is deterministic given the same timings.
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& [path, self_ns] : rows) {
    out += path + " " + std::to_string(self_ns) + "\n";
  }
  return out;
}

uint64_t PhaseProfiler::scope_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& node : nodes_) {
    n += node->count.load(std::memory_order_relaxed);
  }
  return n;
}

double PhaseProfiler::calibrated_scope_cost_ns() const {
  uint64_t bits = calibrated_ns_bits_.load(std::memory_order_relaxed);
  if (bits != 0) return std::bit_cast<double>(bits);
  // A scope's cost is dominated by its two steady_clock reads; calibrate
  // with clock-read pairs. A lower bound: the child lookup and two relaxed
  // adds come on top.
  constexpr int kIters = 4096;
  const int64_t begin = NowNs();
  for (int i = 0; i < kIters; ++i) {
    volatile int64_t sink = NowNs();
    (void)sink;
  }
  const double per_scope =
      2.0 * static_cast<double>(NowNs() - begin) / kIters;
  calibrated_ns_bits_.store(std::bit_cast<uint64_t>(per_scope),
                            std::memory_order_relaxed);
  return per_scope;
}

std::string PhaseProfiler::SelfOverheadSummary() const {
  const uint64_t scopes = scope_count();
  const double cost = calibrated_scope_cost_ns();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "profiler scopes=%llu est_cost_ns_per_scope=%.1f "
                "est_total_overhead_ms=%.3f",
                static_cast<unsigned long long>(scopes), cost,
                scopes * cost / 1e6);
  return buf;
}

bool PhaseProfiler::WriteCollapsedFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = CollapsedStack();
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const std::string trailer = "# " + SelfOverheadSummary() + "\n";
  ok = std::fwrite(trailer.data(), 1, trailer.size(), f) == trailer.size() &&
       ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

void PhaseProfiler::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& node : nodes_) {
    node->self_ns.store(0, std::memory_order_relaxed);
    node->count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace kea::obs
