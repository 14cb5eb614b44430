#include "support/workspace.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

namespace lra {
namespace {

constexpr std::size_t kAlign = 64;             // cache-line alignment
constexpr std::size_t kFirstBlock = 1 << 20;   // 1 MiB initial reservation

std::size_t align_up(std::size_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }

// Registry of live arenas plus a retired tally, so aggregate() stays
// monotonic when pool workers (and their thread_local arenas) are torn down
// by set_num_threads().
struct Registry {
  std::mutex mu;
  std::vector<Workspace*> live;
  WorkspaceStats retired;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives thread_local arenas
  return *r;
}

}  // namespace

Workspace::Workspace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
  r.retired.arenas += 1;  // "arenas ever created" counts at birth
}

Workspace::~Workspace() {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
                 r.live.end());
    r.retired.capacity += capacity_.load(std::memory_order_relaxed);
    r.retired.high_water = std::max(
        r.retired.high_water, high_water_.load(std::memory_order_relaxed));
    r.retired.allocs += allocs_.load(std::memory_order_relaxed);
    r.retired.grows += grows_.load(std::memory_order_relaxed);
  }
  for (Block& b : blocks_) ::operator delete[](b.data, std::align_val_t{kAlign});
}

Workspace& Workspace::current() {
  thread_local Workspace ws;
  return ws;
}

void* Workspace::allocate(std::size_t n) {
  n = align_up(std::max<std::size_t>(n, 1));
  // Offsets stay aligned because every block starts aligned and every
  // allocation size is rounded up to the alignment.
  if (cur_block_ < blocks_.size() &&
      cur_offset_ + n <= blocks_[cur_block_].size) {
    cur_offset_ += n;
    in_use_ += n;
  } else {
    // Advance to the next block that fits; reserve a new one if none does.
    // (Bytes stranded at the tail of skipped blocks stay reserved but are
    // not charged to in_use_; capacity_ tracks the true footprint.)
    std::size_t b = cur_block_ + (cur_block_ < blocks_.size() ? 1 : 0);
    while (b < blocks_.size() && blocks_[b].size < n) ++b;
    if (b == blocks_.size()) {
      const std::size_t sz = std::max(
          n, blocks_.empty() ? kFirstBlock : blocks_.back().size * 2);
      char* data = static_cast<char*>(
          ::operator new[](sz, std::align_val_t{kAlign}));
      blocks_.push_back({data, sz});
      capacity_.store(capacity_.load(std::memory_order_relaxed) + sz,
                      std::memory_order_relaxed);
      grows_.store(grows_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
    cur_block_ = b;
    cur_offset_ = n;
    in_use_ += n;
  }
  allocs_.store(allocs_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  if (in_use_ > high_water_.load(std::memory_order_relaxed))
    high_water_.store(in_use_, std::memory_order_relaxed);
  return blocks_[cur_block_].data + cur_offset_ - n;
}

Workspace::Scope::Scope()
    : ws_(Workspace::current()),
      mark_block_(ws_.cur_block_),
      mark_offset_(ws_.cur_offset_),
      mark_in_use_(ws_.in_use_) {}

Workspace::Scope::~Scope() {
  ws_.cur_block_ = mark_block_;
  ws_.cur_offset_ = mark_offset_;
  ws_.in_use_ = mark_in_use_;
}

double* Workspace::Scope::doubles(std::size_t n) {
  return static_cast<double*>(ws_.allocate(n * sizeof(double)));
}

double* Workspace::Scope::zeroed_doubles(std::size_t n) {
  double* p = doubles(n);
  std::memset(p, 0, n * sizeof(double));
  return p;
}

void* Workspace::Scope::bytes(std::size_t n) { return ws_.allocate(n); }

WorkspaceStats Workspace::aggregate() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  WorkspaceStats s = r.retired;
  for (const Workspace* w : r.live) {
    s.capacity += w->capacity_.load(std::memory_order_relaxed);
    s.high_water = std::max(s.high_water,
                            w->high_water_.load(std::memory_order_relaxed));
    s.allocs += w->allocs_.load(std::memory_order_relaxed);
    s.grows += w->grows_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace lra
