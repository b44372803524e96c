#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace evbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  auto hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double> &values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

double status_field_mb(const char *field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

}  // namespace

double rss_peak_mb() { return status_field_mb("VmHWM"); }
double rss_now_mb() { return status_field_mb("VmRSS"); }

HostNoise probe_host_noise(double duration_ms) {
  HostNoise noise;
  const double start = host_us();
  const double end = start + duration_ms * 1000.0;
  double last = start;
  for (;;) {
    double now = host_us();
    double gap = now - last;
    noise.gap_max_us = std::max(noise.gap_max_us, gap);
    if (gap > 1000.0) ++noise.gaps_over_1ms;
    last = now;
    if (now >= end) break;
  }
  noise.probe_ms = (last - start) / 1000.0;
  return noise;
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_pct(const CpuTicks &before, const CpuTicks &after) {
  const double total = after.total - before.total;
  return total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0;
}

HostWindows::HostWindows(double min_us)
    : min_us_(min_us), start_us_(host_us()), last_(read_cpu_ticks()) {}

std::size_t HostWindows::tick() {
  if (host_us() - start_us_ >= min_us_) close();
  return steal_.size();
}

void HostWindows::close() {
  const CpuTicks now = read_cpu_ticks();
  if (now.total <= last_.total) return;  // no tick yet: nothing to judge
  steal_.push_back(steal_pct(last_, now));
  last_ = now;
  start_us_ = host_us();
}

std::vector<bool> HostWindows::quiet() const {
  std::vector<bool> keep(steal_.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < steal_.size(); ++i) {
    keep[i] = steal_[i] <= 1.0;
    count += keep[i] ? 1 : 0;
  }
  const std::size_t third = (steal_.size() + 2) / 3;
  if (count >= third) return keep;
  std::vector<std::size_t> order(steal_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_[a] < steal_[b];
  });
  keep.assign(steal_.size(), false);
  for (std::size_t i = 0; i < third; ++i) keep[order[i]] = true;
  return keep;
}

std::string HostWindows::summary() const {
  std::size_t count = 0;
  for (bool k : quiet()) count += k ? 1 : 0;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "kept %zu of %zu host windows (steal median %.2f%%, max %.2f%%)",
                count, steal_.size(), median(steal_),
                steal_.empty() ? 0.0 : *std::max_element(steal_.begin(), steal_.end()));
  return buf;
}

std::vector<double> kept(const std::vector<double> &values,
                         const std::vector<std::size_t> &window,
                         const std::vector<bool> &quiet) {
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (window[i] < quiet.size() && quiet[window[i]]) out.push_back(values[i]);
  return out;
}

bool Gate::check(bool ok, const std::string &reason,
                 const std::string &detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    reasons_.emplace(reason, detail);
  }
  return ok;
}

void Gate::merge(const Gate &other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto &[reason, detail] : other.reasons_)
    reasons_.emplace(reason, detail);
}

void SpanLog::add(const Span &span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::layer_self_ms() const {
  std::vector<Span> spans = snapshot();
  std::map<std::int64_t, std::vector<const Span *>> by_id;
  for (const Span &s : spans) by_id[s.id].push_back(&s);
  std::map<std::string, double> by_layer;
  for (const Span &s : spans) {
    const double end = s.start_us + s.dur_us;
    std::vector<std::pair<double, double>> covered;
    if (s.id >= 0) {
      for (const Span *c : by_id[s.id]) {
        const double c_end = c->start_us + c->dur_us;
        if (c != &s && c->dur_us < s.dur_us && c->start_us >= s.start_us &&
            c_end <= end)
          covered.emplace_back(c->start_us, c_end);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0, reach = s.start_us;
    for (const auto &[lo, hi] : covered) {
      if (hi <= reach) continue;
      union_us += hi - std::max(lo, reach);
      reach = hi;
    }
    by_layer[s.layer] += (s.dur_us - union_us) / 1000.0;
  }
  return by_layer;
}

bool SpanLog::write_chrome_trace(
    const std::string &path,
    const std::map<std::string, double> &self_ms) const {
  std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span &s : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.dur_us);
    if (s.id >= 0) out << ",\"args\":{\"id\":" << s.id << "}";
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
      << dropped_ << ",\"layer_self_ms\":{";
  first = true;
  for (const auto &[layer, ms] : self_ms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(layer) << "\":" << json_number(ms);
  }
  out << "}}}\n";
  return static_cast<bool>(out);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string &s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace evbench
