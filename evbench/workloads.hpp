// evbench/workloads.hpp
//
// The four benchmark workloads. Each runs in epochs: a timed set-up (the
// SDK work needed before the measured loop can start), then a fixed count
// of compile rounds or requests, repeated until the time budget is spent.
// Epoch sizes are fixed, so a faster program finishes more epochs, never a
// longer one: per-epoch state such as the obs recorder stays the same size.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace evbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Host seconds the workload loop may run (set-up included).
  double seconds = 1.0;
  /// Traced segment: collect per-layer metrics and spans.
  bool traced = false;
  SpanLog *spans = nullptr;
  /// Self-test only: "compile" or "serve" corrupts one output of that kind
  /// so the matching gate must fail.
  std::string corrupt;
};

struct WorkloadResult {
  Metrics e2e;     // end-to-end metrics
  Metrics layers;  // per-layer metrics (traced segments only)
  Gate gate;
};

WorkloadResult run_compile(const RunOptions &options, bool edit);
WorkloadResult run_serve(const RunOptions &options, bool batched);

/// Compile-pool width used by both compile workloads: min(4, nproc).
int compile_workers();

}  // namespace evbench
