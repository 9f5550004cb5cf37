// bytes.cpp — thread-local buffer freelists and the process-global
// allocation statistics behind SharedBytes (see bytes.hpp, docs/BUFFERS.md).
#include "common/bytes.hpp"

#include <atomic>

#include "common/metrics.hpp"

namespace ftcorba {

namespace {

// Process-global, always compiled: the benches read these even when the
// metrics registry is compiled out (FTMP_METRICS=OFF).
std::atomic<std::uint64_t> g_fresh{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_copied{0};

// Mirrors into the metrics registry (no-op handles when disabled).
struct Instruments {
  metrics::CounterHandle fresh = metrics::counter(
      "ftmp_stack_alloc_buffers_total",
      "Owned datagram buffers materialised (heap allocations on the path)",
      "buffers", "stack");
  metrics::CounterHandle pool_hits = metrics::counter(
      "ftmp_stack_alloc_pool_hits_total",
      "Datagram buffers served from a thread-local freelist", "buffers",
      "stack");
  metrics::CounterHandle copied = metrics::counter(
      "ftmp_stack_alloc_copied_bytes_total",
      "Bytes memcpy'd into owned buffers (pool copies, reassembly, patches)",
      "bytes", "stack");
};

Instruments& instruments() {
  static Instruments i;
  return i;
}

// Per-thread freelist of recycled vectors. `tl_list` is nulled before the
// list is destroyed so releases racing with thread teardown fall back to a
// plain delete instead of touching a dead freelist.
struct Freelist;
thread_local Freelist* tl_list = nullptr;

struct Freelist {
  static constexpr std::size_t kMaxBuffers = 64;
  std::vector<Bytes> free;
  Freelist() { tl_list = this; }
  ~Freelist() { tl_list = nullptr; }
};

// Accessor guarantees construction on first acquire in each thread (a
// namespace-scope thread_local's dynamic initializer is only guaranteed to
// run once the variable itself is odr-used).
Freelist& freelist() {
  thread_local Freelist fl;
  return fl;
}

void note_fresh() {
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  instruments().fresh.add();
}

void note_hit() {
  g_hits.fetch_add(1, std::memory_order_relaxed);
  instruments().pool_hits.add();
}

void note_copied(std::size_t n) {
  g_copied.fetch_add(n, std::memory_order_relaxed);
  instruments().copied.add(n);
}

// An empty vector from the calling thread's freelist (capacity kept) or a
// fresh one, counted as a pool hit only when the recycled capacity already
// holds `size` bytes (growing it to `size` reallocates).
Bytes take_recycled(std::size_t size) {
  Freelist* list = &freelist();
  if (list->free.empty()) {
    note_fresh();
    return Bytes{};
  }
  Bytes buf = std::move(list->free.back());
  list->free.pop_back();
  if (buf.capacity() >= size) {
    note_hit();
  } else {
    note_fresh();
  }
  return buf;
}

void pool_release(Bytes&& buf) {
  Freelist* list = tl_list;
  if (list == nullptr || list->free.size() >= Freelist::kMaxBuffers) return;
  buf.clear();
  list->free.push_back(std::move(buf));
}

}  // namespace

AllocStats alloc_stats() {
  AllocStats s;
  s.fresh_buffers = g_fresh.load(std::memory_order_relaxed);
  s.pool_hits = g_hits.load(std::memory_order_relaxed);
  s.copied_bytes = g_copied.load(std::memory_order_relaxed);
  return s;
}

void alloc_stats_reset() {
  g_fresh.store(0, std::memory_order_relaxed);
  g_hits.store(0, std::memory_order_relaxed);
  g_copied.store(0, std::memory_order_relaxed);
}

Bytes pool_acquire(std::size_t size) {
  Bytes buf = take_recycled(size);
  buf.resize(size);
  return buf;
}

SharedBytes SharedBytes::copy_of(BytesView src) {
  // assign() writes each byte once; pool_acquire would zero-fill first.
  Bytes buf = take_recycled(src.size());
  buf.assign(src.begin(), src.end());
  note_copied(src.size());
  return share_pooled(std::move(buf));
}

SharedBytes SharedBytes::share_pooled(Bytes&& buf) {
  SharedBytes out;
  out.owner_ = std::shared_ptr<const Bytes>(
      new Bytes(std::move(buf)),
      [](const Bytes* p) {
        pool_release(std::move(*const_cast<Bytes*>(p)));
        delete p;
      });
  out.data_ = out.owner_->data();
  out.size_ = out.owner_->size();
  return out;
}

namespace detail {
void note_adopted_buffer() { note_fresh(); }
void note_copied_bytes(std::size_t n) { note_copied(n); }
}  // namespace detail

}  // namespace ftcorba
