// Per-layer metrics of a traced run. The replay times each layer from
// outside by calling its public functions in CompileService's order for
// every key, under one root span per key; in-process CompileService
// entry points and a probe daemon give the service and network
// overheads; counts come from the traced phase's Stats-frame deltas.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace groverbench {

/// Ordered (name, value) pairs plus human-readable notes.
struct LayerReport {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> notes;
  /// Anything that makes the run incorrect (a probe daemon that did not
  /// shut down cleanly, an in-process verdict that disagrees with the
  /// expected file).
  std::vector<std::string> problems;
};

/// Replay every layer for the 66 keys and run the network probe.
/// `traced` is the traced phase of the workload (its Stats-frame deltas
/// give the count metrics).
[[nodiscard]] LayerReport measureLayers(const Context& ctx,
                                        const Phase& traced,
                                        Tracer& tracer);

/// Every per-layer metric name, in report order (BENCHMARK.json lists
/// the same names).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layerMetricUnits();

}  // namespace groverbench
