// serve_b1 / serve_batched: the `basecamp serve` graph (mul2 -> add1) on
// 8-double records behind a simulated alveo-u55c, closed loop from one
// generator thread, three tenants weighted 2:1:1, two dispatchers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>

#include "frontend/condrust_parser.hpp"
#include "platform/xrt.hpp"
#include "runtime/dfg_executor.hpp"
#include "sdk/basecamp.hpp"
#include "serve/backend.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace evbench {

namespace es = everest::serve;
namespace er = everest::runtime;
using everest::support::Pcg32;

namespace {

constexpr std::size_t kRequestsPerEpoch = 60'000;
constexpr std::size_t kRecordWidth = 8;
/// Requests of a traced segment's first epoch that get spans in the trace
/// file (metrics use every request).
constexpr std::size_t kSpannedRequests = 5'000;
constexpr const char *kTenants[] = {"t0", "t0", "t1", "t2"};  // 2:1:1

constexpr const char *kServeGraph = R"(
fn serve_pipe(xs: Stream<f64>) -> Stream<f64> {
    let scaled = mul2(xs);
    let biased = add1(scaled);
    return biased;
}
)";

/// The device-side kernel of the serving graph, compiled through Basecamp
/// and loaded on the simulated card. Its tile extent r is drawn from the
/// seed in a narrow band, so the simulated launch time is a per-seed
/// constant that moves only a little between seeds.
constexpr const char *kServeKernel = R"(kernel serve_pipe
index r, i
input x[r, i]
y = 2.0 * x[r, i] + 1.0
output y
)";

std::shared_ptr<er::NodeRegistry> make_registry() {
  auto registry = std::make_shared<er::NodeRegistry>();
  registry->register_node("mul2", [](const std::vector<const er::Record *> &in) {
    er::Record out = *in.at(0);
    for (double &v : out) v *= 2.0;
    return out;
  });
  registry->register_node("add1", [](const std::vector<const er::Record *> &in) {
    er::Record out = *in.at(0);
    for (double &v : out) v += 1.0;
    return out;
  });
  return registry;
}

/// The graph's function, computed directly: the served-output oracle.
er::Record expected_output(const er::Record &in) {
  er::Record out = in;
  for (double &v : out) v = v * 2.0 + 1.0;
  return out;
}

/// Per-request timestamps written by the timing decorator (indexed by the
/// request serial carried in record[0]).
struct Probe {
  explicit Probe(std::size_t n) : start(n, 0.0), end(n, 0.0) {}
  std::vector<double> start, end;
  std::atomic<std::int64_t> batches{0};
  std::atomic<double> busy_us{0.0};
  SpanLog *spans = nullptr;
  std::int64_t span_id_base = 0;  // span id of request serial 0
  /// Self-test: corrupt one output element of this batch ordinal (-1: off).
  std::int64_t corrupt_batch = -1;
};

int dispatcher_tid() {
  static std::atomic<int> next{100};
  thread_local int tid = next.fetch_add(1);
  return tid;
}

/// Decorator over the public serve::Backend interface: times every batch
/// and stamps each request's backend window.
class TimedBackend final : public es::Backend {
public:
  TimedBackend(std::unique_ptr<es::Backend> inner, Probe *probe)
      : inner_(std::move(inner)), probe_(probe) {}
  const std::string &name() const override { return inner_->name(); }
  const std::vector<std::string> &input_names() const override {
    return inner_->input_names();
  }
  everest::support::Expected<std::map<std::string, er::Stream>> run_batch(
      const std::map<std::string, er::Stream> &inputs) override {
    const double t0 = host_us();
    auto out = inner_->run_batch(inputs);
    const double t1 = host_us();
    const std::int64_t ordinal = probe_->batches.fetch_add(1);
    double busy = probe_->busy_us.load();
    while (!probe_->busy_us.compare_exchange_weak(busy, busy + (t1 - t0))) {
    }
    for (const er::Record &rec : inputs.begin()->second) {
      auto seq = static_cast<std::size_t>(rec.at(0));
      if (seq >= probe_->start.size()) continue;
      probe_->start[seq] = t0;
      probe_->end[seq] = t1;
      if (probe_->spans && seq < kSpannedRequests)
        probe_->spans->add("backend", "serve", dispatcher_tid(), t0, t1,
                           probe_->span_id_base + static_cast<std::int64_t>(seq));
    }
    if (ordinal == probe_->corrupt_batch && out && !out->empty() &&
        !out->begin()->second.empty())
      out->begin()->second.front().back() += 1e-9;
    return out;
  }

private:
  std::unique_ptr<es::Backend> inner_;
  Probe *probe_;
};

struct Served {
  std::unique_ptr<everest::sdk::Basecamp> basecamp;
  std::shared_ptr<const everest::ir::Module> graph;
  std::shared_ptr<const er::NodeRegistry> registry;
  std::unique_ptr<everest::platform::Device> device;
  std::unique_ptr<es::Server> server;
};

/// Builds and starts one server. With a probe, the backend chain make_server
/// would build is assembled here from the same public parts with a timing
/// decorator around each backend.
everest::support::Expected<Served> build_server(std::int64_t tile,
                                                bool batched, Probe *probe) {
  Served s;
  s.basecamp = std::make_unique<everest::sdk::Basecamp>();
  auto graph = everest::frontend::parse_condrust(kServeGraph);
  if (!graph) return graph.error();
  s.graph = *graph;
  s.registry = make_registry();

  everest::transforms::EklBindings bind;
  bind.inputs.emplace("x", everest::numerics::Tensor(
                               {tile, static_cast<std::int64_t>(kRecordWidth)}));
  auto kernel = s.basecamp->compile_ekl(kServeKernel, bind);
  if (!kernel) return kernel.error();
  auto spec = s.basecamp->device_by_name("alveo-u55c");
  if (!spec) return spec.error();
  s.device = std::make_unique<everest::platform::Device>(*spec);
  s.device->attach_recorder(&s.basecamp->recorder());
  if (auto st = s.device->load_kernel("serve_pipe", kernel->kernel); !st.is_ok())
    return st.error();

  es::ServerOptions options;
  options.dispatchers = 2;
  options.batch.max_batch = batched ? 16 : 1;
  options.batch.max_wait_us = batched ? 200.0 : 0.0;
  options.tenants["t0"].weight = 2.0;
  options.tenants["t1"].weight = 1.0;
  options.tenants["t2"].weight = 1.0;

  if (!probe) {
    auto server = s.basecamp->make_server(s.graph, s.registry, options,
                                          s.device.get(), "serve_pipe");
    if (!server) return server.error();
    s.server = std::move(*server);
  } else {
    auto *recorder = &s.basecamp->recorder();
    auto compute = es::DfgBackend::create(s.graph, s.registry, {}, recorder);
    if (!compute) return compute.error();
    auto fpga = es::DeviceBackend::create(s.device.get(), "serve_pipe",
                                          std::move(*compute));
    if (!fpga) return fpga.error();
    auto host = es::DfgBackend::create(s.graph, s.registry, {}, recorder);
    if (!host) return host.error();
    std::vector<std::unique_ptr<es::Backend>> backends;
    backends.push_back(std::make_unique<TimedBackend>(std::move(*fpga), probe));
    backends.push_back(std::make_unique<TimedBackend>(std::move(*host), probe));
    auto server = es::Server::create(std::move(backends), options, recorder);
    if (!server) return server.error();
    s.server = std::move(*server);
  }
  s.server->start();
  return s;
}

/// Median wall time (us) of one direct runtime::execute_dfg call on the
/// serving graph over `records` records.
double time_execute_dfg(const Served &s, std::size_t records, Pcg32 &rng,
                        Gate &gate, SpanLog *spans) {
  er::Stream xs(records, er::Record(kRecordWidth));
  for (auto &rec : xs)
    for (double &v : rec) v = rng.uniform(-1.0, 1.0);
  std::map<std::string, er::Stream> inputs{{"xs", xs}};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = host_us();
    auto out = er::execute_dfg(*s.graph, *s.registry, inputs, 1);
    const double t1 = host_us();
    samples.push_back(t1 - t0);
    if (i < 100) spans->add("execute_dfg", "runtime", 3, t0, t1);
    if (i == 0) {
      bool ok = out && out->size() == 1 && out->begin()->second.size() == records;
      for (std::size_t k = 0; ok && k < records; ++k)
        ok = out->begin()->second[k] == expected_output(xs[k]);
      gate.check(ok, "runtime.execute_dfg_mismatch",
                 std::to_string(records) + " records");
    }
  }
  return median(samples);
}

}  // namespace

WorkloadResult run_serve(const RunOptions &opt, bool batched) {
  WorkloadResult out;
  Gate &gate = out.gate;
  Pcg32 rng(opt.seed, batched ? 0xb16ULL : 0xb1ULL);
  const std::int64_t tile = 128 + static_cast<std::int64_t>(rng.bounded(4));
  const std::size_t window = batched ? 64 : 8;
  const std::size_t n = kRequestsPerEpoch;
  const bool decorated = opt.traced || opt.corrupt == "serve";
  const char *label = batched ? "serve_batched" : "serve_b1";

  std::vector<double> setup_s, epoch_rps, epoch_p50, epoch_p90, epoch_p99,
      device_per_req;
  std::vector<double> submit_us, queue_us, response_us, backend_per_req,
      launch_sim_us, util, batch_mean, events_per_req, samples_per_req;
  double bytes_per_req = -1.0;
  std::int64_t submitted_total = 0, completed_total = 0, shed = 0,
               failovers = 0, breaker = 0;
  double execute_dfg_us = 0.0;
  std::int64_t epochs = 0;

  // One host window per epoch (epoch e is window e - 1).
  HostWindows windows(0.0);
  const double deadline = host_us() + opt.seconds * 1e6;
  do {
    ++epochs;
    // Inputs of this epoch: tenants and records from the seed; record[0]
    // carries the request serial (the id shared by its spans).
    std::vector<es::Request> requests(n);
    for (std::size_t i = 0; i < n; ++i) {
      requests[i].tenant = kTenants[rng.bounded(4)];
      er::Record rec(kRecordWidth);
      rec[0] = static_cast<double>(i);
      for (std::size_t k = 1; k < kRecordWidth; ++k) rec[k] = rng.uniform(-1.0, 1.0);
      requests[i].inputs.emplace("xs", std::move(rec));
    }
    std::vector<er::Record> sent(n);
    for (std::size_t i = 0; i < n; ++i) sent[i] = requests[i].inputs.at("xs");

    Probe probe(decorated ? n : 0);
    SpanLog *spans = opt.traced && epochs == 1 ? opt.spans : nullptr;
    probe.spans = spans;
    if (spans) probe.span_id_base = spans->reserve_ids(kSpannedRequests);
    if (opt.corrupt == "serve") probe.corrupt_batch = 100;
    const double s0 = host_us();
    auto served = build_server(tile, batched, decorated ? &probe : nullptr);
    setup_s.push_back((host_us() - s0) / 1e6);
    if (!gate.check(static_cast<bool>(served), "serve.setup_failed",
                    served ? "" : served.error().message))
      return out;
    es::Server &server = *served->server;
    if (opt.traced && epochs == 1)
      execute_dfg_us =
          time_execute_dfg(*served, batched ? 16 : 1, rng, gate, opt.spans);
    const double clock_offset = host_us() - server.now_us();
    const double device0 = served->device->now_us();
    const double rss0 = rss_now_mb();

    struct InFlight {
      std::size_t seq;
      double submit_us;
      std::future<es::Response> future;
    };
    std::deque<InFlight> inflight;
    std::vector<double> latency;
    latency.reserve(n);
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    std::size_t completed = 0, failed = 0, mismatched = 0, rejected = 0;

    auto complete_oldest = [&] {
      InFlight f = std::move(inflight.front());
      inflight.pop_front();
      const bool was_ready = f.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready;
      es::Response r = f.future.get();
      const double done = host_us();
      latency.push_back(done - f.submit_us);
      ids.push_back(r.request_id);
      if (!r.status.is_ok()) {
        ++failed;
        return;
      }
      ++completed;
      if (r.outputs.size() != 1 ||
          r.outputs.begin()->second != expected_output(sent[f.seq])) {
        ++mismatched;
      }
      if (!opt.traced) return;
      const double admit = r.admit_us + clock_offset;
      const bool spanned = spans && f.seq < kSpannedRequests;
      const std::int64_t id = probe.span_id_base + static_cast<std::int64_t>(f.seq);
      queue_us.push_back(probe.start[f.seq] - admit);
      if (spanned) {
        spans->add("request", "client", 4, f.submit_us, done, id);
        spans->add("queue", "serve", 1, admit, probe.start[f.seq], id);
      }
      if (!was_ready) {
        response_us.push_back(done - probe.end[f.seq]);
        if (spanned) spans->add("response", "serve", 2, probe.end[f.seq], done, id);
      }
    };

    const double t0 = host_us();
    for (std::size_t i = 0; i < n; ++i) {
      if (inflight.size() >= window) complete_oldest();
      const double a = host_us();
      auto future = server.submit(std::move(requests[i]));
      const double b = host_us();
      if (opt.traced) {
        submit_us.push_back(b - a);
        if (spans && i < kSpannedRequests)
          spans->add("submit", "serve", 0, a, b,
                     probe.span_id_base + static_cast<std::int64_t>(i));
      }
      if (!future) {
        ++rejected;
        continue;
      }
      inflight.push_back({i, a, std::move(*future)});
    }
    while (!inflight.empty()) complete_oldest();
    const double wall_us = host_us() - t0;
    const double rss1 = rss_now_mb();
    const double device_us = served->device->now_us() - device0;

    // Gates: every submit resolved exactly once, with the right output.
    auto stats = server.stats();
    std::sort(ids.begin(), ids.end());
    const bool unique = std::adjacent_find(ids.begin(), ids.end()) == ids.end();
    gate.check(unique && ids.size() + rejected == n, "serve.resolved_not_once",
               std::to_string(ids.size()) + " responses for " +
                   std::to_string(n) + " submits");
    const std::int64_t shed_admission =
        stats.shed_queue + stats.shed_rate + stats.shed_drain;
    gate.check(stats.submitted == static_cast<std::int64_t>(n) &&
                   stats.admitted + shed_admission == stats.submitted,
               "serve.admission_ledger",
               "admitted " + std::to_string(stats.admitted) + " + shed " +
                   std::to_string(shed_admission) + " != submitted " +
                   std::to_string(stats.submitted));
    gate.check(mismatched == 0, "serve.output_mismatch",
               std::to_string(mismatched) + " responses differ from 2x+1");
    gate.check(failed == 0 && rejected == 0, "serve.request_failed",
               std::to_string(failed) + " failed, " + std::to_string(rejected) +
                   " shed at admission");
    gate.record(static_cast<std::int64_t>(n),
                static_cast<std::int64_t>(failed + rejected + mismatched));

    epoch_rps.push_back(static_cast<double>(completed) / (wall_us / 1e6));
    epoch_p50.push_back(quantile(latency, 0.5));
    epoch_p90.push_back(quantile(latency, 0.9));
    epoch_p99.push_back(quantile(latency, 0.99));
    device_per_req.push_back(device_us / static_cast<double>(std::max<std::size_t>(completed, 1)));
    submitted_total += stats.submitted;
    completed_total += static_cast<std::int64_t>(completed);
    shed += shed_admission + stats.shed_deadline;
    failovers += stats.failovers;
    breaker += stats.breaker_rejections;
    if (opt.traced) {
      const double done = static_cast<double>(std::max<std::size_t>(completed, 1));
      backend_per_req.push_back(probe.busy_us.load() / done);
      util.push_back(probe.busy_us.load() / (wall_us * 2.0));
      launch_sim_us.push_back(device_us / static_cast<double>(std::max<std::int64_t>(stats.batches, 1)));
      batch_mean.push_back(stats.batch_size.mean());
      auto &rec = served->basecamp->recorder();
      events_per_req.push_back(static_cast<double>(rec.event_count()) / done);
      double samples = 0.0;
      for (const auto &[name, summary] : rec.histograms())
        samples += static_cast<double>(summary.count);
      samples_per_req.push_back(samples / done);
      if (bytes_per_req < 0.0) bytes_per_req = (rss1 - rss0) * 1048576.0 / done;
    }
    server.stop();
    windows.close();
  } while (host_us() < deadline);

  // Every timing below comes from the quiet host windows.
  const std::vector<bool> quiet = windows.quiet();
  std::vector<std::size_t> epoch_window(static_cast<std::size_t>(epochs));
  for (std::size_t e = 0; e < epoch_window.size(); ++e) epoch_window[e] = e;
  auto by_epoch = [&](const std::vector<double> &v) {
    return median(kept(v, epoch_window, quiet));
  };

  out.e2e["setup_s"] = {by_epoch(setup_s), "s"};
  out.e2e["latency_p50_us"] = {by_epoch(epoch_p50), "us"};
  out.e2e["latency_p90_us"] = {by_epoch(epoch_p90), "us"};
  out.e2e["throughput_per_s"] = {by_epoch(epoch_rps), "1/s"};
  out.e2e["device_sim_us"] = {by_epoch(device_per_req), "us"};
  std::printf("%s: %lld epochs of %zu requests (window %zu, tile %lld), %s; "
              "%.0f req/s, p50 %.1f us, p90 %.1f us, p99 %.1f us, "
              "%.6f simulated device us/request\n",
              label, static_cast<long long>(epochs), n, window,
              static_cast<long long>(tile), windows.summary().c_str(),
              by_epoch(epoch_rps), by_epoch(epoch_p50), by_epoch(epoch_p90),
              by_epoch(epoch_p99), by_epoch(device_per_req));

  if (opt.traced) {
    const std::string sfx = batched ? ".b16" : ".b1";
    auto &L = out.layers;
    const double per_submitted = 1.0 / std::max<double>(1.0, submitted_total);
    L["serve.shed_ratio" + sfx] = {shed * per_submitted, "ratio"};
    L["serve.failover_ratio" + sfx] = {failovers * per_submitted, "ratio"};
    L["serve.breaker_rejection_ratio" + sfx] = {breaker * per_submitted, "ratio"};
    L["serve.latency_p99_us" + sfx] = {by_epoch(epoch_p99), "us"};
    L["serve.requests" + sfx] = {static_cast<double>(completed_total), "count"};
    L["runtime.execute_dfg_us" + sfx] = {execute_dfg_us, "us"};
    const double attributed = median(submit_us) + median(queue_us) +
                              by_epoch(backend_per_req) + median(response_us);
    L["serve.attributed_fraction" + sfx] = {attributed / by_epoch(epoch_p50), "ratio"};
    if (!batched) {
      L["serve.submit_us"] = {mean(submit_us), "us"};
      L["serve.backend_us_per_req"] = {by_epoch(backend_per_req), "us"};
      L["serve.response_us"] = {median(response_us), "us"};
      L["obs.events_per_req"] = {median(events_per_req), "count"};
      L["obs.samples_per_req"] = {median(samples_per_req), "count"};
      L["obs.bytes_per_req"] = {bytes_per_req, "bytes"};
    } else {
      L["serve.queue_wait_us"] = {median(queue_us), "us"};
      L["serve.batch_size"] = {by_epoch(batch_mean), "count"};
      L["serve.dispatcher_util"] = {by_epoch(util), "ratio"};
      L["platform.launch_sim_us"] = {by_epoch(launch_sim_us), "us"};
    }
  }
  return out;
}

}  // namespace evbench
