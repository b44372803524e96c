// evbench: the repo benchmark program.
//
//   evbench --workload <compile_cold|compile_edit|serve_b1|serve_batched>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>] [--corrupt compile|serve]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs a traced segment of every workload (the named one gets the
// largest share), reports the per-layer metrics, the tracing overhead, and
// writes the spans as a Chrome trace. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}. A failed correctness gate
// prints its reason on stderr and exits 1. --corrupt is the self-test hook.
// Kernel sources are read from tests/data/hpcc under the working directory.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using evbench::Metrics;
using evbench::RunOptions;
using evbench::WorkloadResult;

constexpr const char *kWorkloads[] = {"compile_cold", "compile_edit",
                                      "serve_b1", "serve_batched"};

WorkloadResult run_workload(const std::string &name, const RunOptions &opt) {
  if (name == "compile_cold") return evbench::run_compile(opt, false);
  if (name == "compile_edit") return evbench::run_compile(opt, true);
  return evbench::run_serve(opt, name == "serve_batched");
}

int usage(const char *why) {
  std::fprintf(stderr,
               "evbench: %s\nusage: evbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--corrupt compile|serve]\n",
               why);
  return 2;
}

void print_result(bool correct, const evbench::Gate &gate,
                  const Metrics &metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": ";
  line += std::to_string(gate.attempted());
  line += ", \"failed\": ";
  line += std::to_string(gate.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto &[name, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"";
    line += evbench::json_escape(name);
    line += "\": {\"value\": ";
    line += evbench::json_number(m.value);
    line += ", \"unit\": \"";
    line += evbench::json_escape(m.unit);
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char **argv) {
  std::string workload, trace_out, corrupt;
  RunOptions opt;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char *value = argv[++i];
    if (arg == "--workload") workload = value;
    else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace") trace = std::atoi(value);
    else if (arg == "--trace-out") trace_out = value;
    else if (arg == "--corrupt") opt.corrupt = value;
    else return usage(("unknown option " + arg).c_str());
  }
  bool known = false;
  for (const char *w : kWorkloads) known = known || workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  if (!opt.corrupt.empty() && opt.corrupt != "compile" && opt.corrupt != "serve")
    return usage("--corrupt takes compile or serve");

  // Host noise before the timed phase: a noisy host, not a regression.
  const evbench::HostNoise noise = evbench::probe_host_noise(200.0);
  std::printf("host: spin probe %.0f ms, max gap %.1f us, %lld gaps > 1 ms\n",
              noise.probe_ms, noise.gap_max_us,
              static_cast<long long>(noise.gaps_over_1ms));

  const evbench::CpuTicks ticks0 = evbench::read_cpu_ticks();
  evbench::Gate gate;
  Metrics metrics;
  if (trace == 0) {
    WorkloadResult r = run_workload(workload, opt);
    gate.merge(r.gate);
    metrics = r.e2e;
    metrics["rss_peak_mb"] = {evbench::rss_peak_mb(), "MB"};
  } else {
    evbench::SpanLog spans;
    // Untraced twins of one compile and one serve segment: the gap to the
    // traced segments is the tracing overhead.
    RunOptions plain = opt;
    plain.seconds = opt.seconds * 0.125;
    WorkloadResult cold_plain = run_workload("compile_cold", plain);
    WorkloadResult b1_plain = run_workload("serve_b1", plain);
    gate.merge(cold_plain.gate);
    gate.merge(b1_plain.gate);

    std::map<std::string, WorkloadResult> traced;
    for (const char *w : kWorkloads) {
      RunOptions t = opt;
      t.traced = true;
      t.spans = &spans;
      t.seconds = opt.seconds * (workload == w ? 0.3 : 0.15);
      WorkloadResult r = run_workload(w, t);
      gate.merge(r.gate);
      for (const auto &[name, m] : r.layers) metrics[name] = m;
      traced.emplace(w, std::move(r));
    }
    auto e2e = [](const WorkloadResult &r, const char *name) {
      auto it = r.e2e.find(name);
      return it == r.e2e.end() ? 0.0 : it->second.value;
    };
    metrics["trace.overhead.compile_p50"] = {
        e2e(traced.at("compile_cold"), "latency_p50_us") /
                e2e(cold_plain, "latency_p50_us") - 1.0,
        "ratio"};
    metrics["trace.overhead.throughput"] = {
        1.0 - e2e(traced.at("serve_b1"), "throughput_per_s") /
                  e2e(b1_plain, "throughput_per_s"),
        "ratio"};
    metrics["host.preempt_gap_max_us"] = {noise.gap_max_us, "us"};
    metrics["host.preempt_gaps_over_1ms"] = {
        static_cast<double>(noise.gaps_over_1ms), "count"};
    metrics["error_rate"] = {
        static_cast<double>(gate.failed()) /
            static_cast<double>(std::max<std::int64_t>(gate.attempted(), 1)),
        "ratio"};
    auto self_ms = spans.layer_self_ms();
    std::printf("traced: %zu spans (%lld dropped); layer self time:",
                spans.snapshot().size(), static_cast<long long>(spans.dropped()));
    for (const auto &[layer, ms] : self_ms) std::printf(" %s=%.1fms", layer.c_str(), ms);
    std::printf("\n");
    metrics["trace.spans"] = {static_cast<double>(spans.snapshot().size()), "count"};
    if (!trace_out.empty()) {
      bool ok = spans.write_chrome_trace(trace_out, self_ms);
      gate.check(ok, "trace.write_failed", trace_out);
      if (ok) std::printf("traced: wrote %s\n", trace_out.c_str());
    }
  }

  const double steal = evbench::steal_pct(ticks0, evbench::read_cpu_ticks());
  std::printf("host: %.2f%% of CPU time stolen by the hypervisor during the run\n",
              steal);
  if (trace == 1) metrics["host.steal_pct"] = {steal, "%"};

  const bool correct = gate.reasons().empty() && gate.failed() == 0;
  for (const auto &[reason, detail] : gate.reasons())
    std::fprintf(stderr, "evbench: FAILED %s: %s\n", reason.c_str(), detail.c_str());
  print_result(correct, gate, metrics);
  return correct ? 0 : 1;
}
