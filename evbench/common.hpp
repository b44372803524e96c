// evbench/common.hpp
//
// Shared plumbing of the repo benchmark: the host clock, quantiles, RSS
// probes, the host-noise spin probe, named correctness gates, metric sets,
// and the in-memory span log the traced run writes out as a Chrome trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace evbench {

/// Monotonic host time in microseconds since an arbitrary process epoch.
inline double host_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/// Peak and current resident set size of this process in MiB (VmHWM /
/// VmRSS from /proc/self/status; 0 where unavailable).
double rss_peak_mb();
double rss_now_mb();

/// Single-thread spin probe of host scheduling noise: the largest gap
/// between consecutive clock reads and the number of gaps over 1 ms.
struct HostNoise {
  double gap_max_us = 0.0;
  std::int64_t gaps_over_1ms = 0;
  double probe_ms = 0.0;
};
HostNoise probe_host_noise(double duration_ms);

/// Cumulative all-CPU jiffies from /proc/stat: `steal` (time the hypervisor
/// ran someone else on our virtual CPUs) and the total. Zero where absent.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks read_cpu_ticks();
/// Steal time between two readings as a percentage of all CPU time.
double steal_pct(const CpuTicks &before, const CpuTicks &after);

/// Splits a timed phase into host windows and records the share of CPU time
/// the hypervisor stole in each, so that metrics are taken from the quiet
/// windows: on a virtual machine, stolen time stretches every wall-clock
/// sample of its window whatever the program does.
class HostWindows {
public:
  /// Windows close at the first tick() after `min_us` of host time.
  explicit HostWindows(double min_us);
  /// Closes the current window when it is old enough; returns the index of
  /// the window the next sample belongs to.
  std::size_t tick();
  /// Closes the current window unconditionally.
  void close();
  /// Per window: kept or not. Windows with at most 1 % steal are kept; when
  /// fewer than a third of them are that quiet, the least-stolen third is.
  [[nodiscard]] std::vector<bool> quiet() const;
  [[nodiscard]] const std::vector<double> &steal() const { return steal_; }
  /// "kept K of N windows (steal median x %, max y %)".
  [[nodiscard]] std::string summary() const;

private:
  double min_us_;
  double start_us_;
  CpuTicks last_;
  std::vector<double> steal_;
};

/// The samples of `values` whose window (`window[i]`) is kept.
std::vector<double> kept(const std::vector<double> &values,
                         const std::vector<std::size_t> &window,
                         const std::vector<bool> &quiet);

/// Named correctness gates. A failed gate counts into the run's `failed`
/// total and makes the run exit non-zero with the reason on stderr.
class Gate {
public:
  /// Records one check; returns `ok`.
  bool check(bool ok, const std::string &reason, const std::string &detail);
  /// Records `attempted` operations of the workload, `failed` of them failed.
  void record(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// reason -> first detail seen, for every failed gate.
  [[nodiscard]] const std::map<std::string, std::string> &reasons() const {
    return reasons_;
  }
  void merge(const Gate &other);

private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, std::string> reasons_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One span of the traced run. `id` ties the spans of one request (or one
/// compile round) together; `tid` is the row it is drawn on.
struct Span {
  const char *name = "";
  const char *layer = "";
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::int64_t id = -1;
};

/// Bounded, thread-safe in-memory span log. Spans beyond the capacity are
/// counted and dropped so a long traced run keeps constant memory.
class SpanLog {
public:
  explicit SpanLog(std::size_t capacity = 400'000) : capacity_(capacity) {
    spans_.reserve(capacity_);
  }
  void add(const Span &span);
  void add(const char *name, const char *layer, int tid, double start_us,
           double end_us, std::int64_t id = -1) {
    add(Span{name, layer, tid, start_us, end_us - start_us, id});
  }
  /// Reserves `count` consecutive span ids; returns the first.
  std::int64_t reserve_ids(std::int64_t count) {
    return next_id_.fetch_add(count);
  }
  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  /// Per-layer self time in ms: each span's duration minus the part of it
  /// covered by its children — the spans with the same id that lie inside
  /// it (a compile round's stages, a request's submit/queue/backend/response).
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;
  /// Writes a Chrome trace_event JSON file; false on I/O failure.
  bool write_chrome_trace(const std::string &path,
                          const std::map<std::string, double> &self_ms) const;

private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
  std::atomic<std::int64_t> next_id_{0};
};

/// Formats a double with all its significant digits for the JSON line.
std::string json_number(double v);
std::string json_escape(const std::string &s);

}  // namespace evbench
