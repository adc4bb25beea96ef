#include "layers.hpp"

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

const std::vector<std::string> kCounters = {
    "trace.cache.hits",
    "trace.cache.loads",
    "trace.cache.evictions",
    "trace.cache.prefetches",
    "trace.decode.decoded_bytes",
    "trace.decode.segments_skipped",
    "trace.decode.columns_skipped",
    "exec.tasks",
    "exec.steals",
    "server.cache.hits",
    "server.cache.misses",
    "server.cache.evictions",
    "server.bytes_out",
    "server.overload_rejections",
    "server.timeouts",
};

/// Passes reported with wall time, CPU time and heap growth.
const char* const kPasses[] = {
    layer::kSweep,       layer::kMatch,        layer::kRankIndex,
    layer::kTraffic,     layer::kCausalOrder,  layer::kRaces,
    layer::kCommGraph,   layer::kCommDot,      layer::kCriticalPath,
    layer::kActionGraph, layer::kTraceGraph,   layer::kCallGraph,
};

const char* const kServerOps[] = {"window",   "match",    "traffic",
                                  "races",    "deadlock", "comm_dot"};

}  // namespace

std::vector<double> LayerCounters::read() const {
  auto& registry = tdbg::obs::MetricsRegistry::global();
  std::vector<double> out;
  for (const auto& name : kCounters) {
    out.push_back(static_cast<double>(registry.counter(name).total()));
  }
  return out;
}

std::vector<double> LayerCounters::since(
    const std::vector<double>& before) const {
  auto now = read();
  for (std::size_t i = 0; i < now.size(); ++i) now[i] -= before[i];
  return now;
}

std::map<std::string, double> LayerCounters::medians(
    const std::vector<std::vector<double>>& deltas) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    std::vector<double> column;
    for (const auto& d : deltas) column.push_back(d[i]);
    out[kCounters[i]] = median(column);
  }
  return out;
}

void emit_layers(const Args& args, const Tracer& tracer,
                 std::map<std::string, double> values, Result& result) {
  const auto spans = tracer.spans();
  const auto stats = summarize(spans);
  const auto wall_s = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : median(it->second.wall_ms) / 1e3;
  };
  const auto value = [&](const std::string& name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };

  // Record side.
  const double run_s = wall_s(layer::kMpiRun);
  const double record_s = wall_s(layer::kRecord);
  result.metric("mpi.run_s", run_s, "s");
  result.metric("replay.record_s", record_s, "s");
  result.metric("replay.record_overhead_x",
                run_s > 0 ? record_s / run_s : 0.0, "x");
  result.metric("trace.write_s", wall_s(layer::kWrite), "s");
  result.metric("trace.file_bytes", value("trace.file_bytes"), "B");

  // Read side of the store.
  result.metric("trace.open_ms", wall_s(layer::kOpen) * 1e3, "ms");
  const double hits = value("trace.cache.hits");
  const double loads = value("trace.cache.loads");
  result.metric("trace.cache.hits", hits, "count");
  result.metric("trace.cache.loads", loads, "count");
  result.metric("trace.cache.evictions", value("trace.cache.evictions"),
                "count");
  result.metric("trace.cache.prefetches", value("trace.cache.prefetches"),
                "count");
  result.metric("trace.cache.lookups", hits + loads, "count");
  result.metric("trace.cache.hit_ratio",
                hits + loads > 0 ? hits / (hits + loads) : 0.0, "ratio");
  result.metric("trace.decode.decoded_bytes",
                value("trace.decode.decoded_bytes"), "B");
  result.metric("trace.decode.segments_skipped",
                value("trace.decode.segments_skipped"), "count");
  result.metric("trace.decode.columns_skipped",
                value("trace.decode.columns_skipped"), "count");

  // Passes.
  for (const char* pass : kPasses) {
    const auto it = stats.find(pass);
    const std::string name(pass);
    const auto med = [&](std::vector<double> SpanStats::*field) {
      return it == stats.end() ? 0.0 : median(it->second.*field);
    };
    result.metric(name + "_ms", med(&SpanStats::wall_ms), "ms");
    result.metric(name + "_cpu_ms", med(&SpanStats::cpu_ms), "ms");
    result.metric(name + "_heap_growth_mib",
                  med(&SpanStats::heap_growth_mib), "MiB");
  }
  result.metric("exec.tasks", value("exec.tasks"), "count");
  result.metric("exec.steals", value("exec.steals"), "count");

  // Server.
  for (const char* op : kServerOps) {
    const std::string name = std::string("server.") + op;
    result.metric(name + "_p50_ms", value(name + "_p50_ms"), "ms");
    result.metric(name + "_tail_ms", value(name + "_tail_ms"), "ms");
  }
  result.metric("server.request_p99_ms", value("server.request_p99_ms"),
                "ms");
  const double shits = value("server.cache.hits");
  const double smisses = value("server.cache.misses");
  result.metric("server.cache.hits", shits, "count");
  result.metric("server.cache.misses", smisses, "count");
  result.metric("server.cache.evictions", value("server.cache.evictions"),
                "count");
  result.metric("server.cache.hit_ratio",
                shits + smisses > 0 ? shits / (shits + smisses) : 0.0,
                "ratio");
  result.metric("server.queue_depth_peak", value("server.queue_depth_peak"),
                "count");
  result.metric("server.bytes_out", value("server.bytes_out"), "B");
  result.metric("server.overload_rejections",
                value("server.overload_rejections"), "count");
  result.metric("server.timeouts", value("server.timeouts"), "count");

  // The tracing itself.
  result.metric("tracing.overhead_ms", value("tracing.overhead_ms"), "ms");
  result.metric("tracing.spans", static_cast<double>(spans.size()), "count");
  result.metric("layer_coverage_frac", layer_coverage(spans), "ratio");

  values["layer_coverage_frac"] = layer_coverage(spans);
  tracer.write(args.workdir / ("spans-" + args.workload + ".json"),
               {values.begin(), values.end()});
}

}  // namespace perfbench
