#include "refclock.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "client.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace bgpbench {

namespace {

/// Median time of one calibration route computation on the reference VM
/// (machine.txt), with all four cores computing at once.
constexpr double kReferenceComputeS = 1.65e-3;

/// Route computations per thread in one burst; a burst takes ~12 ms.
constexpr int kComputations = 8;

/// An array that starts on a page boundary. Where the heap puts an array
/// changes which cache sets it maps to, and a plain vector's placement moved
/// a calibration by up to a third from one process to another; page-aligned
/// arrays read the same in any process.
template <typename T>
class PageArray {
 public:
  explicit PageArray(std::size_t size) {
    constexpr std::size_t kPage = 4096;
    const std::size_t bytes =
        (std::max<std::size_t>(size, 1) * sizeof(T) + kPage - 1) / kPage * kPage;
    data_ = static_cast<T*>(std::aligned_alloc(kPage, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
  }
  ~PageArray() { std::free(data_); }
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
};

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// One relationship's neighbour lists in CSR form: the neighbours of v are
/// targets[offsets[v] .. offsets[v + 1]).
struct Links {
  PageArray<std::uint32_t> offsets;
  PageArray<std::uint32_t> targets;

  Links(std::uint32_t nodes, const Edges& edges) : offsets(nodes + 1), targets(edges.size()) {
    for (std::uint32_t v = 0; v <= nodes; ++v) offsets[v] = 0;
    for (const auto& [from, to] : edges) ++offsets[from + 1];
    for (std::uint32_t v = 0; v < nodes; ++v) offsets[v + 1] += offsets[v];
    std::vector<std::uint32_t> fill(nodes);
    for (std::uint32_t v = 0; v < nodes; ++v) fill[v] = offsets[v];
    for (const auto& [from, to] : edges) targets[fill[from]++] = to;
  }
};

/// The calibration kernel: the stable routing state of a prefix announced
/// by two origins under the Gao-Rexford preferences (customer over peer over
/// provider routes, then shorter paths), on a fixed synthetic AS hierarchy
/// the size of the paper's graph. It is the kind of work bgpsim's engines do
/// (frontier expansion over relationship lists, a route comparison per AS),
/// written apart from them, so no change to bgpsim changes it. Its speed
/// follows theirs: over fifteen minutes in which the VM's speed moved by up
/// to 1.4x, bgpsim's cold and warm attacks per unit of this computation
/// spread by an IQR/median of 0.02-0.04 across 10 s windows, against
/// 0.15-0.19 in wall time. A plain breadth-first search followed less well
/// (0.04-0.06), and moved only 0.8x as far as the attacks did.
class Calibration {
 public:
  static constexpr std::uint32_t kNodes = 42697;
  static constexpr std::uint32_t kTier1 = 16;
  static constexpr std::uint32_t kTransit = 2000;

  Calibration() : Calibration(hierarchy()) {}

  /// Route computation `k` of a burst (fixed origins) with thread `t`'s
  /// buffers; returns the number of ASes that chose the second origin.
  std::uint64_t compute(unsigned t, int k) {
    const std::uint32_t legit = kTier1 + static_cast<std::uint32_t>(k * 131) % (kTransit - kTier1);
    const std::uint32_t attacker =
        kTier1 + static_cast<std::uint32_t>(k * 71 + 1000) % (kTransit - kTier1);
    Scratch& s = *scratch_[t];
    PageArray<Route>& rt = s.routes;
    for (std::uint32_t v = 0; v < kNodes; ++v) rt[v] = Route{};
    rt[legit] = {kCustomer, 1, 0, legit};
    rt[attacker] = {kCustomer, 2, 0, attacker};

    // Customer routes climb to providers, one path length at a time.
    std::uint32_t size = 0;
    s.frontier[size++] = legit;
    s.frontier[size++] = attacker;
    while (size > 0) {
      std::uint32_t next_size = 0;
      for (std::uint32_t i = 0; i < size; ++i) {
        const std::uint32_t v = s.frontier[i];
        const Route offer{kCustomer, rt[v].origin, static_cast<std::uint16_t>(rt[v].len + 1), v};
        for (std::uint32_t e = providers_.offsets[v]; e < providers_.offsets[v + 1]; ++e) {
          const std::uint32_t p = providers_.targets[e];
          if (better(offer, rt[p])) {
            if (rt[p].cls == kNone) s.next[next_size++] = p;
            rt[p] = offer;
          }
        }
      }
      for (std::uint32_t i = 0; i < next_size; ++i) s.frontier[i] = s.next[i];
      size = next_size;
    }
    // Customer routes cross one peer link.
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      if (rt[v].cls != kCustomer) continue;
      const Route offer{kPeer, rt[v].origin, static_cast<std::uint16_t>(rt[v].len + 1), v};
      for (std::uint32_t e = peers_.offsets[v]; e < peers_.offsets[v + 1]; ++e) {
        const std::uint32_t p = peers_.targets[e];
        if (better(offer, rt[p])) rt[p] = offer;
      }
    }
    // Every route descends to customers, shorter routes first.
    std::array<std::uint32_t, kMaxLen + 2> start{};
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      if (rt[v].cls != kNone) ++start[std::min<std::uint32_t>(rt[v].len, kMaxLen) + 1];
    }
    for (std::uint32_t l = 0; l <= kMaxLen; ++l) start[l + 1] += start[l];
    std::uint32_t tail = start[kMaxLen + 1];
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      if (rt[v].cls != kNone) s.next[start[std::min<std::uint32_t>(rt[v].len, kMaxLen)]++] = v;
    }
    for (std::uint32_t head = 0; head < tail; ++head) {
      const std::uint32_t v = s.next[head];
      const Route offer{kProvider, rt[v].origin, static_cast<std::uint16_t>(rt[v].len + 1), v};
      for (std::uint32_t e = customers_.offsets[v]; e < customers_.offsets[v + 1]; ++e) {
        const std::uint32_t c = customers_.targets[e];
        if (rt[c].cls == kNone) {
          rt[c] = offer;
          s.next[tail++] = c;
        } else if (rt[c].cls == kProvider && better(offer, rt[c])) {
          rt[c] = offer;
        }
      }
    }
    std::uint64_t second = 0;
    for (std::uint32_t v = 0; v < kNodes; ++v) second += rt[v].origin == 2;
    return second;
  }

 private:
  static constexpr std::uint8_t kCustomer = 0, kPeer = 1, kProvider = 2, kNone = 3;
  static constexpr std::uint32_t kMaxLen = 63;

  struct Route {
    std::uint8_t cls = kNone;
    std::uint8_t origin = 0;
    std::uint16_t len = 0xffff;
    std::uint32_t via = 0xffffffff;
  };

  static bool better(const Route& a, const Route& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.len != b.len) return a.len < b.len;
    return a.via < b.via;
  }

  struct Scratch {
    PageArray<Route> routes{kNodes};
    PageArray<std::uint32_t> frontier{kNodes};
    PageArray<std::uint32_t> next{kNodes};
  };

  struct Hierarchy {
    Edges up, down, across;
  };

  /// 16 fully peered tier-1 ASes, transit ASes up to #2000 with two random
  /// peers each, and every AS below the tier-1s buying from one to three
  /// random providers among the transit ASes before it. Built from its own
  /// splitmix64 stream.
  static Hierarchy hierarchy() {
    std::uint64_t state = 0x62677062656e6368;
    const auto next = [&state](std::uint32_t bound) {
      std::uint64_t z = (state += 0x9e3779b97f4a7c15);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
      z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
      return static_cast<std::uint32_t>((z ^ (z >> 31)) % bound);
    };
    Hierarchy h;
    for (std::uint32_t a = 0; a < kTier1; ++a) {
      for (std::uint32_t b = 0; b < kTier1; ++b) {
        if (a != b) h.across.push_back({a, b});
      }
    }
    for (std::uint32_t v = kTier1; v < kNodes; ++v) {
      const std::uint32_t providers = 1 + next(3);
      for (std::uint32_t i = 0; i < providers; ++i) {
        const std::uint32_t p = next(std::min(v, kTransit));
        h.up.push_back({v, p});
        h.down.push_back({p, v});
      }
      if (v >= kTransit) continue;
      for (int i = 0; i < 2; ++i) {
        const std::uint32_t q = kTier1 + next(kTransit - kTier1);
        if (q == v) continue;
        h.across.push_back({v, q});
        h.across.push_back({q, v});
      }
    }
    return h;
  }

  explicit Calibration(const Hierarchy& h)
      : providers_(kNodes, h.up), customers_(kNodes, h.down), peers_(kNodes, h.across) {
    for (unsigned t = 0; t < kThreads; ++t) scratch_.push_back(std::make_unique<Scratch>());
  }

  Links providers_;
  Links customers_;
  Links peers_;
  std::vector<std::unique_ptr<Scratch>> scratch_;
};

}  // namespace

double measure_slowdown() {
  static Calibration calibration;
  std::vector<double> per_thread(kThreads, 1.0);
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together: every core computes while the others do.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      std::vector<double> times;
      for (int k = 0; k < kComputations; ++k) {
        const double t0 = now_s();
        sums[t] += calibration.compute(t, k);
        times.push_back(now_s() - t0);
      }
      per_thread[t] = median(times) / kReferenceComputeS;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every thread computed the same routes.
  if (std::adjacent_find(sums.begin(), sums.end(), std::not_equal_to<>()) != sums.end()) {
    throw std::logic_error("calibration computations disagree");
  }
  double total = 0.0;
  for (const double s : per_thread) total += s;
  return total / static_cast<double>(kThreads);
}

void ReferenceClock::burst() {
  Burst b;
  b.start_s = now_s();
  b.slowdown = measure_slowdown();
  b.end_s = now_s();
  bursts_.push_back(b);
}

double ReferenceClock::integrate(const Interval& wall, bool scaled) const {
  if (bursts_.empty()) return wall.to_s - wall.from_s;
  const std::size_t n = bursts_.size();
  double total = 0.0;
  // Gap k lies between burst k-1 and burst k (gap 0 before the first burst,
  // gap n after the last).
  for (std::size_t k = 0; k <= n; ++k) {
    const double lo = k == 0 ? wall.from_s : std::max(wall.from_s, bursts_[k - 1].end_s);
    const double hi = k == n ? wall.to_s : std::min(wall.to_s, bursts_[k].start_s);
    if (hi <= lo) continue;
    const double slowdown = k == 0   ? bursts_[0].slowdown
                            : k == n ? bursts_[n - 1].slowdown
                                     : 0.5 * (bursts_[k - 1].slowdown + bursts_[k].slowdown);
    total += scaled ? (hi - lo) / slowdown : hi - lo;
  }
  return total;
}

std::vector<double> ReferenceClock::ref_durations(const std::vector<Interval>& wall) const {
  std::vector<double> out;
  out.reserve(wall.size());
  for (const Interval& i : wall) out.push_back(ref_s(i));
  return out;
}

std::vector<double> ReferenceClock::ref_rates(const std::vector<Segment>& segments) const {
  std::vector<double> out;
  out.reserve(segments.size());
  for (const Segment& s : segments) out.push_back(s.units / ref_s(s.wall));
  return out;
}

double ReferenceClock::mean_slowdown() const {
  double total = 0.0;
  for (const Burst& b : bursts_) total += b.slowdown;
  return bursts_.empty() ? 1.0 : total / static_cast<double>(bursts_.size());
}

}  // namespace bgpbench
