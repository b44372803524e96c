// compile_cold / compile_edit: Basecamp::compile_many over the HPCC kernel
// set (seven EKL kernels at extents 16, 32, 64 plus ptrans.cfd = 22 jobs).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/trace.hpp"
#include "platform/xrt.hpp"
#include "sdk/basecamp.hpp"
#include "support/rng.hpp"
#include "transforms/ekl_eval.hpp"
#include "transforms/loop_eval.hpp"
#include "workloads.hpp"

namespace evbench {

namespace sdk = everest::sdk;
using everest::numerics::Tensor;
using everest::support::Pcg32;

int compile_workers() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

namespace {

constexpr const char *kKernelDir = "tests/data/hpcc";
constexpr int kEditRoundsPerEpoch = 100;
/// Rounds of a traced segment whose stage spans go into the trace file
/// (metrics use every round).
constexpr std::size_t kSpannedRounds = 40;
constexpr const char *kEklKernels[] = {"stream", "gemm",    "ptrans", "fft",
                                       "randomaccess", "linpack", "beff"};
constexpr std::int64_t kExtents[] = {16, 32, 64};

struct Job {
  std::string kernel;  // file stem; "ptrans_cfd" for the CFDlang program
  sdk::CompileJob job;
};

std::string read_file(const std::string &path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Tensor random_tensor(Pcg32 &rng, everest::numerics::Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) t.flat(i) = rng.uniform(-1.0, 1.0);
  return t;
}

std::int64_t draw(Pcg32 &rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.bounded(static_cast<std::uint32_t>(hi - lo + 1)));
}

/// Seeded bindings for one EKL kernel at primary extent `e`. Secondary
/// extents (contraction depth, batch, update count, ranks) are drawn from a
/// narrow band, so simulated device time is a per-seed constant that moves
/// only a little between seeds.
everest::transforms::EklBindings make_bindings(const std::string &kernel,
                                               std::int64_t e, Pcg32 &rng) {
  everest::transforms::EklBindings b;
  auto put = [&](const char *name, everest::numerics::Shape shape) {
    b.inputs.emplace(name, random_tensor(rng, std::move(shape)));
  };
  if (kernel == "stream") {
    put("a", {e});
    put("b", {e});
  } else if (kernel == "gemm") {
    std::int64_t k = draw(rng, e - 3, e);
    put("a", {e, k});
    put("b", {k, e});
    put("c0", {e, e});
  } else if (kernel == "ptrans") {
    put("a", {e, e});
    put("c", {e, e});
  } else if (kernel == "fft") {
    std::int64_t q = draw(rng, 6, 8);
    put("xr", {q, e});
    put("xi", {q, e});
    put("cosm", {e, e});
    put("sinm", {e, e});
  } else if (kernel == "randomaccess") {
    std::int64_t u = draw(rng, 4 * e - 3, 4 * e);
    put("t", {e});
    Tensor idx({u});
    for (std::int64_t i = 0; i < u; ++i)
      idx.flat(i) = static_cast<double>(draw(rng, 0, e - 1));
    b.inputs.emplace("idx", std::move(idx));
    put("val", {u});
  } else if (kernel == "linpack") {
    std::int64_t j = draw(rng, e - 3, e);
    put("a", {e, j});
    put("l", {e});
    put("u", {j});
  } else if (kernel == "beff") {
    std::int64_t r = draw(rng, 6, 8);
    put("m", {r, e});
  }
  return b;
}

/// The 22 seeded jobs in a fixed order (the order sets the pool's critical
/// path, so drawing it would make the round time seed-dependent). Empty on a
/// missing source.
std::vector<Job> make_jobs(Pcg32 &rng, std::string *error) {
  const std::string dir = kKernelDir;
  std::vector<Job> jobs;
  for (const char *kernel : kEklKernels) {
    std::string path = dir + "/" + kernel + ".ekl";
    std::string source = read_file(path);
    if (source.empty()) {
      *error = "cannot read " + path;
      return {};
    }
    for (std::int64_t e : kExtents) {
      Job j;
      j.kernel = kernel;
      j.job.kind = sdk::CompileJob::Kind::Ekl;
      j.job.name = std::string(kernel) + "@" + std::to_string(e);
      j.job.source = source;
      j.job.bindings = make_bindings(kernel, e, rng);
      jobs.push_back(std::move(j));
    }
  }
  std::string cfd = read_file(dir + "/ptrans.cfd");
  if (cfd.empty()) {
    *error = "cannot read " + dir + "/ptrans.cfd";
    return {};
  }
  Job j;
  j.kernel = "ptrans_cfd";
  j.job.kind = sdk::CompileJob::Kind::Cfdlang;
  j.job.name = "ptrans.cfd";
  j.job.source = cfd;
  jobs.push_back(std::move(j));
  return jobs;
}

std::string replace_first(std::string s, const std::string &from,
                          const std::string &to) {
  auto pos = s.find(from);
  if (pos != std::string::npos) s.replace(pos, from.size(), to);
  return s;
}

std::string replace_all(std::string s, const std::string &from,
                        const std::string &to) {
  for (auto pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size()))
    s.replace(pos, from.size(), to);
  return s;
}

/// A meaning-changing edit of `base`, unique per `serial` within an epoch:
/// a new literal for kernels that have one (stream, gemm), otherwise a new
/// primary extent above every base extent (a new shape in the CFDlang
/// source), so no two edits of one epoch share a cache key.
sdk::CompileJob edit_job(const Job &base, int serial, Pcg32 &rng) {
  sdk::CompileJob job = base.job;
  char literal[32];
  if (base.kernel == "stream") {
    std::snprintf(literal, sizeof literal, "%.6f", 0.42 + 1e-4 * (serial + 1));
    job.source = replace_first(job.source, "0.42 * b", std::string(literal) + " * b");
  } else if (base.kernel == "gemm") {
    std::snprintf(literal, sizeof literal, "%.6f", 0.5 + 1e-4 * (serial + 1));
    job.source = replace_first(job.source, "0.5 * sum", std::string(literal) + " * sum");
  } else if (base.kernel == "ptrans_cfd") {
    std::string n = std::to_string(9 + serial);
    job.source = replace_all(job.source, "[8, 8]", "[" + n + ", " + n + "]");
  } else {
    job.bindings = make_bindings(base.kernel, 65 + serial, rng);
  }
  job.name += "~edit" + std::to_string(serial);
  return job;
}

std::uint64_t fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of everything a compile produces that a user consumes.
std::uint64_t digest(const sdk::CompileResult &r) {
  std::uint64_t h = fnv1a(r.frontend_ir ? r.frontend_ir->str() : "-");
  h = fnv1a(r.teil_ir ? r.teil_ir->str() : "-", h);
  h = fnv1a(r.loop_ir ? r.loop_ir->str() : "-", h);
  h = fnv1a(r.system_ir ? r.system_ir->str() : "-", h);
  char buf[128];
  std::snprintf(buf, sizeof buf, "%lld/%lld/%.17g/%d",
                static_cast<long long>(r.kernel.total_cycles),
                static_cast<long long>(r.kernel.dataflow_cycles),
                r.estimate.total_us, r.datapath_bits);
  return fnv1a(buf, h);
}

double max_rel_error(const Tensor &ref, const Tensor &got) {
  if (ref.shape() != got.shape()) return INFINITY;
  double err = 0.0;
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    double scale = std::max(1.0, std::abs(ref.data()[i]));
    err = std::max(err, std::abs(ref.data()[i] - got.data()[i]) / scale);
  }
  return err;
}

/// Gate: the compiled loop IR computes what the kernel means — EKL jobs
/// against transforms::evaluate_ekl on the frontend IR, the CFDlang job
/// against B = transpose(A) + C computed here.
void check_semantics(const Job &job, const sdk::CompileResult &r, Pcg32 &rng,
                     Gate &gate) {
  const std::string what = job.job.name;
  if (!r.loop_ir) {
    gate.check(false, "compile.loop_ir_missing", what);
    return;
  }
  std::map<std::string, Tensor> expected;
  std::map<std::string, Tensor> inputs;
  if (job.job.kind == sdk::CompileJob::Kind::Cfdlang) {
    Tensor a = random_tensor(rng, {8, 8}), c = random_tensor(rng, {8, 8});
    Tensor b({8, 8});
    for (std::int64_t i = 0; i < 8; ++i)
      for (std::int64_t j = 0; j < 8; ++j) b(i, j) = a(j, i) + c(i, j);
    inputs.emplace("A", std::move(a));
    inputs.emplace("C", std::move(c));
    expected.emplace("B", std::move(b));
  } else {
    auto ref = everest::transforms::evaluate_ekl(*r.frontend_ir, job.job.bindings);
    if (!gate.check(static_cast<bool>(ref), "compile.reference_eval_failed",
                    what + ": " + (ref ? "" : ref.error().message)))
      return;
    expected = std::move(*ref);
    inputs = job.job.bindings.inputs;
  }
  auto got = everest::transforms::evaluate_loops(*r.loop_ir, inputs);
  if (!gate.check(static_cast<bool>(got), "compile.loop_eval_failed",
                  what + ": " + (got ? "" : got.error().message)))
    return;
  double err = 0.0;
  for (const auto &[name, tensor] : expected) {
    auto it = got->find(name);
    err = std::max(err, it == got->end() ? INFINITY
                                         : max_rel_error(tensor, it->second));
  }
  gate.check(err < 1e-9, "compile.loop_ir_mismatch",
             what + ": max relative error " + std::to_string(err));
}

bool has_stage(const sdk::CompileResult &r, const char *prefix) {
  for (const auto &t : r.timings)
    if (t.stage.rfind(prefix, 0) == 0) return true;
  return false;
}

/// The layer a Basecamp pipeline stage belongs to (nullptr: unattributed).
const char *stage_layer(const std::string &stage) {
  if (stage.rfind("parse-", 0) == 0) return "frontend";
  if (stage.rfind("lower-", 0) == 0 || stage == "esn-reorder" ||
      stage == "base2-legalize")
    return "transforms";
  if (stage == "canonicalize") return "ir";
  if (stage == "hls-schedule") return "hls";
  if (stage.rfind("olympus-", 0) == 0) return "olympus";
  if (stage == "cache-lookup") return "sdk";
  return nullptr;
}

constexpr const char *kStageLayers[] = {"frontend", "transforms", "ir",
                                        "hls",      "olympus",    "sdk"};

/// Stage time of one round (ms), by layer, from CompileResult::timings.
struct StageSums {
  std::map<std::string, double> by_layer;
  double total = 0.0;
  void add(const sdk::CompileResult &r) {
    for (const auto &t : r.timings) {
      if (const char *layer = stage_layer(t.stage)) by_layer[layer] += t.ms;
      total += t.ms;
    }
  }
};

/// Adds the round span and copies the Basecamp's pipeline-stage spans of
/// that round into the span log under the round's id, packing the
/// overlapping per-worker spans into lanes.
void export_round_spans(sdk::Basecamp &bc, SpanLog &log, double start_us,
                        double end_us) {
  const std::int64_t id = log.reserve_ids(1);
  log.add("compile_many", "sdk", 0, start_us, end_us, id);
  const double offset = host_us() - bc.recorder().now_us();
  auto events = bc.recorder().events();
  std::sort(events.begin(), events.end(), [](const auto &a, const auto &b) {
    return a.start_us < b.start_us;
  });
  std::vector<double> lane_end;
  for (const auto &ev : events) {
    if (ev.category != "sdk.pipeline") continue;
    const char *layer = stage_layer(ev.name);
    if (!layer) continue;
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > ev.start_us) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0.0);
    lane_end[lane] = ev.start_us + ev.duration_us;
    log.add(layer, layer, 10 + static_cast<int>(lane), ev.start_us + offset,
            ev.start_us + offset + ev.duration_us, id);
  }
}

/// Deploys every compiled kernel once on a fresh alveo-u55c; returns the
/// summed simulated device time and the DMA/compute span totals.
struct DeployTotals {
  double kernel_sim_us = 0, dma_sim_us = 0, compute_sim_us = 0;
};
DeployTotals deploy_all(sdk::Basecamp &bc,
                        const std::vector<everest::support::Expected<sdk::CompileResult>> &results,
                        Gate &gate) {
  DeployTotals totals;
  auto spec = bc.device_by_name("alveo-u55c");
  if (!gate.check(static_cast<bool>(spec), "deploy.no_target", "alveo-u55c"))
    return totals;
  for (const auto &r : results) {
    if (!r) continue;
    everest::obs::TraceRecorder device_rec;
    everest::platform::Device device(*spec);
    device.attach_recorder(&device_rec);
    auto us = bc.deploy_and_run(device, *r);
    if (!gate.check(static_cast<bool>(us) && *us > 0.0, "deploy.failed",
                    us ? "non-positive device time" : us.error().message))
      continue;
    totals.kernel_sim_us += *us;
    for (const auto &ev : device_rec.events()) {
      if (ev.category == "xrt.dma") totals.dma_sim_us += ev.duration_us;
      if (ev.category == "xrt.kernel") totals.compute_sim_us += ev.duration_us;
    }
  }
  return totals;
}

}  // namespace

WorkloadResult run_compile(const RunOptions &opt, bool edit) {
  WorkloadResult out;
  Gate &gate = out.gate;
  Pcg32 rng(opt.seed, edit ? 0xed17ULL : 0xc01dULL);
  std::string error;
  std::vector<Job> jobs = make_jobs(rng, &error);
  if (jobs.empty()) {
    gate.check(false, "compile.inputs_missing", error);
    return out;
  }
  std::vector<sdk::CompileJob> batch;
  for (const auto &j : jobs) batch.push_back(j.job);
  const int workers = compile_workers();
  const std::size_t n = batch.size();

  // Serial reference compile: digests every later round must reproduce, the
  // semantic gate, and the deployed kernel set.
  sdk::Basecamp reference;
  const double serial_t0 = host_us();
  auto ref = reference.compile_many(batch, 1);
  const double serial_ms = (host_us() - serial_t0) / 1000.0;
  std::vector<std::uint64_t> ref_digest(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!gate.check(static_cast<bool>(ref[i]), "compile.failed",
                    batch[i].name + ": " + (ref[i] ? "" : ref[i].error().message)))
      return out;
    ref_digest[i] = digest(*ref[i]);
  }
  std::vector<everest::support::Expected<sdk::CompileResult>> checked = ref;
  if (opt.corrupt == "compile" && n > 1) {
    // Self-test: hand the gates a compiled output that is not this job's.
    std::swap(checked[0]->loop_ir, checked[1]->loop_ir);
  }
  for (std::size_t i = 0; i < n; ++i) {
    check_semantics(jobs[i], *checked[i], rng, gate);
    gate.check(digest(*checked[i]) == ref_digest[i], "compile.not_byte_identical",
               batch[i].name + " (serial reference)");
  }
  DeployTotals deployed = deploy_all(reference, ref, gate);

  // Timed epochs.
  std::vector<double> setup_s, round_ms, stage_efficiency;
  std::vector<double> nocache_ms, serial_fraction, ops_visited;
  std::map<std::string, std::vector<double>> layer_ms;  // per round
  std::int64_t direct_hits = 0, content_hits = 0, content_base = 0,
               pass_hits = 0, pass_lookups = 0;
  double arena_high_water = 0.0;
  // Host window of every round, set-up and paired round.
  HostWindows windows(500'000.0);
  std::size_t window = 0;
  std::vector<std::size_t> round_window, setup_window, pair_window;
  sdk::Basecamp checker;  // uncached, for the edited jobs' identity gate
  everest::obs::TraceRecorder global_rec;
  std::unique_ptr<everest::obs::ScopedGlobalRecorder> scoped_global;
  if (opt.traced)
    scoped_global =
        std::make_unique<everest::obs::ScopedGlobalRecorder>(&global_rec);
  int edit_serial = 0;
  std::vector<std::size_t> edit_order(n);
  for (std::size_t i = 0; i < n; ++i) edit_order[i] = i;
  std::size_t edit_cursor = n;
  std::int64_t epoch = 0;

  auto record_round = [&](const std::vector<everest::support::Expected<sdk::CompileResult>> &results,
                          double ms) {
    StageSums sums;
    for (const auto &r : results)
      if (r) sums.add(*r);
    std::int64_t failed = 0;
    for (const auto &r : results) failed += r ? 0 : 1;
    gate.record(static_cast<std::int64_t>(results.size()), failed);
    round_ms.push_back(ms);
    round_window.push_back(window);
    for (const char *layer : kStageLayers)
      layer_ms[layer].push_back(sums.by_layer[layer]);
    stage_efficiency.push_back(sums.total / (ms * workers));
  };

  const double deadline = host_us() + opt.seconds * 1e6;
  do {
    ++epoch;
    edit_serial = 0;
    const double s0 = host_us();
    auto bc = std::make_unique<sdk::Basecamp>();
    auto cache = std::make_unique<sdk::CompileCache>();
    bc->attach_cache(cache.get());
    if (edit) {
      // compile_edit set-up includes warming the cache with all 22 jobs.
      auto warm = bc->compile_many(batch, workers);
      setup_s.push_back((host_us() - s0) / 1e6);
      setup_window.push_back(window);
      for (std::size_t i = 0; i < n; ++i)
        gate.check(warm[i] && digest(*warm[i]) == ref_digest[i],
                   "compile.not_byte_identical", batch[i].name + " (warm-up)");
      if (opt.traced) bc->recorder().clear();
      for (int round = 0; round < kEditRoundsPerEpoch; ++round) {
        // Edited pairs walk seeded permutations of the 22 jobs, so every job
        // is edited equally often and the mix of round costs is the same
        // for every seed.
        if (edit_cursor + 1 >= n) {
          for (std::size_t i = n; i > 1; --i)
            std::swap(edit_order[i - 1],
                      edit_order[rng.bounded(static_cast<std::uint32_t>(i))]);
          edit_cursor = 0;
        }
        const std::size_t a = edit_order[edit_cursor++];
        const std::size_t b = edit_order[edit_cursor++];
        batch[a] = edit_job(jobs[a], edit_serial++, rng);
        batch[b] = edit_job(jobs[b], edit_serial++, rng);
        const std::int64_t pass_h0 = cache->pass_tier().hits();
        const std::int64_t pass_m0 = cache->pass_tier().misses();
        const double t0 = host_us();
        auto results = bc->compile_many(batch, workers);
        const double ms = (host_us() - t0) / 1000.0;
        if (opt.traced && round_ms.size() < kSpannedRounds)
          export_round_spans(*bc, *opt.spans, t0, t0 + ms * 1000.0);
        if (opt.traced) bc->recorder().clear();
        record_round(results, ms);
        for (std::size_t i = 0; i < n; ++i) {
          if (!gate.check(static_cast<bool>(results[i]), "compile.failed",
                          batch[i].name + ": " +
                              (results[i] ? "" : results[i].error().message)))
            continue;
          const bool edited = i == a || i == b;
          const bool backend_ran = has_stage(*results[i], "hls-schedule");
          gate.check(backend_ran == edited,
                     edited ? "compile_edit.edit_did_not_miss"
                            : "compile_edit.unedited_missed",
                     batch[i].name);
          std::uint64_t expect = ref_digest[i];
          if (edited) {
            auto fresh = checker.compile_many({batch[i]}, 1);
            expect = fresh[0] ? digest(*fresh[0]) : 0;
          }
          gate.check(digest(*results[i]) == expect, "compile.not_byte_identical",
                     batch[i].name + " (cached round)");
          const bool parsed = has_stage(*results[i], "parse-");
          if (!parsed) ++direct_hits;
          if (parsed) ++content_base;
          if (parsed && !backend_ran) ++content_hits;
        }
        pass_hits += cache->pass_tier().hits() - pass_h0;
        pass_lookups += cache->pass_tier().hits() - pass_h0 +
                        cache->pass_tier().misses() - pass_m0;
        batch[a] = jobs[a].job;
        batch[b] = jobs[b].job;
        window = windows.tick();
        if (host_us() > deadline) break;
      }
    } else {
      setup_s.push_back((host_us() - s0) / 1e6);
      setup_window.push_back(window);
      const double visited0 = [&] {
        for (const auto &[name, v] : global_rec.counters())
          if (name == "ir.rewrite.ops_visited") return static_cast<double>(v);
        return 0.0;
      }();
      const double t0 = host_us();
      auto results = bc->compile_many(batch, workers);
      const double ms = (host_us() - t0) / 1000.0;
      if (opt.traced) {
        for (const auto &[name, v] : bc->recorder().gauges())
          if (name == "ir.arena.high_water")
            arena_high_water = std::max(arena_high_water, v);
        if (round_ms.size() < kSpannedRounds)
          export_round_spans(*bc, *opt.spans, t0, t0 + ms * 1000.0);
        for (const auto &[name, v] : global_rec.counters())
          if (name == "ir.rewrite.ops_visited")
            ops_visited.push_back(static_cast<double>(v) - visited0);
      }
      record_round(results, ms);
      for (std::size_t i = 0; i < n; ++i)
        gate.check(results[i] && digest(*results[i]) == ref_digest[i],
                   "compile.not_byte_identical", batch[i].name + " (parallel cold)");
      if (opt.traced) {
        // Paired rounds: the same cold round without a cache (the cache's
        // miss-path overhead) and a serial one (stage attribution).
        sdk::Basecamp plain;
        const double p0 = host_us();
        auto uncached = plain.compile_many(batch, workers);
        nocache_ms.push_back((host_us() - p0) / 1000.0);
        sdk::Basecamp serial;
        const double q0 = host_us();
        auto serial_results = serial.compile_many(batch, 1);
        const double serial_round_ms = (host_us() - q0) / 1000.0;
        StageSums sums;
        for (std::size_t i = 0; i < n; ++i) {
          gate.check(uncached[i] && digest(*uncached[i]) == ref_digest[i],
                     "compile.not_byte_identical", batch[i].name + " (no cache)");
          gate.check(serial_results[i] && digest(*serial_results[i]) == ref_digest[i],
                     "compile.not_byte_identical", batch[i].name + " (serial)");
          if (serial_results[i]) sums.add(*serial_results[i]);
        }
        serial_fraction.push_back(sums.total / serial_round_ms);
        pair_window.push_back(window);
      }
      window = windows.tick();
    }
  } while (host_us() < deadline);
  windows.close();

  // Every timing below comes from the quiet host windows.
  const std::vector<bool> quiet = windows.quiet();
  auto by_round = [&](const std::vector<double> &v) {
    return kept(v, round_window, quiet);
  };
  const std::vector<double> rounds = by_round(round_ms);
  const double p50 = median(rounds);
  out.e2e["setup_s"] = {median(kept(setup_s, setup_window, quiet)), "s"};
  out.e2e["latency_p50_us"] = {p50 * 1000.0, "us"};
  out.e2e["latency_p90_us"] = {quantile(rounds, 0.9) * 1000.0, "us"};
  out.e2e["throughput_per_s"] = {static_cast<double>(n) / (mean(rounds) / 1000.0),
                                 "1/s"};
  out.e2e["device_sim_us"] = {deployed.kernel_sim_us, "us"};

  std::printf("%s: %zu of %zu rounds of %zu jobs on %d workers, %lld epochs; "
              "%s; round p50 %.3f ms (serial reference %.3f ms); "
              "kernel set %.3f us simulated\n",
              edit ? "compile_edit" : "compile_cold", rounds.size(),
              round_ms.size(), n, workers, static_cast<long long>(epoch),
              windows.summary().c_str(), p50, serial_ms,
              deployed.kernel_sim_us);

  if (opt.traced) {
    auto &L = out.layers;
    if (!edit) {
      L["frontend.parse_ms"] = {median(by_round(layer_ms["frontend"])), "ms"};
      L["transforms.lower_ms"] = {median(by_round(layer_ms["transforms"])), "ms"};
      L["ir.canonicalize_ms"] = {median(by_round(layer_ms["ir"])), "ms"};
      L["ir.rewrite.ops_visited"] = {median(ops_visited), "count"};
      L["hls.schedule_ms"] = {median(by_round(layer_ms["hls"])), "ms"};
      L["olympus.ms"] = {median(by_round(layer_ms["olympus"])), "ms"};
      L["sdk.cache.miss_overhead_ms"] = {p50 - median(kept(nocache_ms, pair_window, quiet)), "ms"};
      L["sdk.pool.efficiency.cold"] = {median(by_round(stage_efficiency)), "ratio"};
      L["sdk.attributed_fraction"] = {median(kept(serial_fraction, pair_window, quiet)), "ratio"};
      L["ir.arena.high_water_bytes"] = {arena_high_water, "bytes"};
      L["platform.dma_sim_us"] = {deployed.dma_sim_us, "us"};
      L["platform.compute_sim_us"] = {deployed.compute_sim_us, "us"};
      L["sdk.compile_rounds.cold"] = {static_cast<double>(round_ms.size()), "count"};
    } else {
      const double unedited = static_cast<double>(round_ms.size() * (n - 2));
      L["sdk.cache.lookup_ms"] = {median(by_round(layer_ms["sdk"])), "ms"};
      L["sdk.cache.direct_hit_ratio"] = {direct_hits / std::max(1.0, unedited), "ratio"};
      L["sdk.cache.direct_lookups"] = {unedited, "count"};
      L["sdk.cache.content_hit_ratio"] = {
          content_hits / std::max(1.0, static_cast<double>(content_base)), "ratio"};
      L["sdk.cache.content_lookups"] = {static_cast<double>(content_base), "count"};
      L["sdk.cache.pass_hit_ratio"] = {
          pass_hits / std::max(1.0, static_cast<double>(pass_lookups)), "ratio"};
      L["sdk.cache.pass_lookups"] = {static_cast<double>(pass_lookups), "count"};
      L["sdk.pool.efficiency.edit"] = {median(by_round(stage_efficiency)), "ratio"};
      L["sdk.compile_rounds.edit"] = {static_cast<double>(round_ms.size()), "count"};
    }
  }
  return out;
}

}  // namespace evbench
