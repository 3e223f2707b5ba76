#include "core/report_io.hpp"

#include <ostream>
#include <sstream>

namespace gnnie {
namespace {

void write_weighting(std::ostream& out, const WeightingReport& rep) {
  out << "{\"total_cycles\":" << rep.total_cycles
      << ",\"compute_cycles\":" << rep.compute_cycles
      << ",\"memory_cycles\":" << rep.memory_cycles
      << ",\"stall_cycles\":" << rep.stall_cycles << ",\"passes\":" << rep.passes
      << ",\"macs\":" << rep.macs << ",\"blocks_total\":" << rep.blocks_total
      << ",\"blocks_skipped\":" << rep.blocks_skipped
      << ",\"lr_moved_blocks\":" << rep.lr_moved_blocks
      << ",\"weight_stream_bytes\":" << rep.weight_stream_bytes
      << ",\"dram_stream_bytes\":" << rep.dram_stream_bytes << ",\"row_cycles\":[";
  for (std::size_t r = 0; r < rep.row_cycles.size(); ++r) {
    out << (r == 0 ? "" : ",") << rep.row_cycles[r];
  }
  out << "]}";
}

void write_aggregation(std::ostream& out, const AggregationReport& rep) {
  out << "{\"total_cycles\":" << rep.total_cycles
      << ",\"compute_cycles\":" << rep.compute_cycles
      << ",\"memory_cycles\":" << rep.memory_cycles << ",\"iterations\":" << rep.iterations
      << ",\"rounds\":" << rep.rounds << ",\"edges_processed\":" << rep.edges_processed
      << ",\"accum_ops\":" << rep.accum_ops << ",\"sfu_ops\":" << rep.sfu_ops
      << ",\"dram_accesses\":" << rep.dram_accesses
      << ",\"random_dram_accesses\":" << rep.random_dram_accesses
      << ",\"dram_bytes\":" << rep.dram_bytes << ",\"evictions\":" << rep.evictions
      << ",\"refetches\":" << rep.refetches << ",\"partial_spills\":" << rep.partial_spills
      << ",\"gamma_escalations\":" << rep.gamma_escalations
      << ",\"livelock_sweep\":" << (rep.livelock_sweep ? "true" : "false")
      << ",\"input_fetch_bytes\":" << rep.input_fetch_bytes
      << ",\"cache_capacity_vertices\":" << rep.cache_capacity_vertices << "}";
}

}  // namespace

void write_report_json(std::ostream& out, const InferenceReport& report) {
  out << "{\"total_cycles\":" << report.total_cycles << ",\"clock_hz\":" << report.clock_hz
      << ",\"runtime_seconds\":" << report.runtime_seconds()
      << ",\"effective_tops\":" << report.effective_tops()
      << ",\"total_macs\":" << report.total_macs
      << ",\"total_accum_ops\":" << report.total_accum_ops
      << ",\"total_sfu_ops\":" << report.total_sfu_ops << ",\"dram\":{\"bytes_read\":"
      << report.dram.bytes_read << ",\"bytes_written\":" << report.dram.bytes_written
      << ",\"row_hit_rate\":" << report.dram.row_hit_rate()
      << ",\"client_bytes\":[" << report.dram.client_bytes[0] << ','
      << report.dram.client_bytes[1] << ',' << report.dram.client_bytes[2] << "]}"
      << ",\"dram_energy_j\":" << report.dram_energy << ",\"layers\":[";
  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    const LayerReport& lr = report.layers[l];
    out << (l == 0 ? "" : ",") << "{\"total_cycles\":" << lr.total_cycles
        << ",\"activation_cycles\":" << lr.activation_cycles << ",\"weighting\":";
    write_weighting(out, lr.weighting);
    if (lr.attention) {
      out << ",\"attention\":{\"total_cycles\":" << lr.attention->total_cycles
          << ",\"compute_cycles\":" << lr.attention->compute_cycles
          << ",\"macs\":" << lr.attention->macs << "}";
    }
    if (lr.mlp2) {
      out << ",\"mlp2\":";
      write_weighting(out, *lr.mlp2);
    }
    out << ",\"aggregation\":";
    write_aggregation(out, lr.aggregation);
    out << "}";
  }
  out << "]}";
}

std::string report_to_json(const InferenceReport& report) {
  std::ostringstream os;
  write_report_json(os, report);
  return os.str();
}

void write_serving_report_json(std::ostream& out, const ServingReport& report) {
  const std::vector<Cycles> latencies = report.sorted_latencies();  // sort once
  // One shape for every report: each feature block and per-record field is
  // present whether or not the feature ran (a disabled feature reports its
  // neutral values), so consumers never branch on the enabled feature set.
  const auto write_list = [&out](const auto& values) {
    out << '[';
    for (std::size_t i = 0; i < values.size(); ++i) out << (i == 0 ? "" : ",") << values[i];
    out << ']';
  };
  out << "{\"schema_version\":" << kServingSchemaVersion << ",\"dies\":" << report.dies
      << ",\"scheduler\":\"" << report.scheduler
      << "\",\"requests\":" << report.requests.size() << ",\"clock_hz\":" << report.clock_hz
      << ",\"makespan_cycles\":" << report.makespan
      << ",\"makespan_seconds\":" << report.makespan_seconds()
      << ",\"throughput_per_second\":" << report.throughput_per_second()
      << ",\"p50_latency_cycles\":" << percentile_of_sorted(latencies, 50.0)
      << ",\"p95_latency_cycles\":" << percentile_of_sorted(latencies, 95.0)
      << ",\"p99_latency_cycles\":" << percentile_of_sorted(latencies, 99.0)
      << ",\"max_latency_cycles\":" << percentile_of_sorted(latencies, 100.0)
      << ",\"mean_queue_depth\":" << report.mean_queue_depth() << ",\"die_utilization\":[";
  for (std::size_t d = 0; d < report.die_busy_cycles.size(); ++d) {
    out << (d == 0 ? "" : ",") << report.die_utilization(d);
  }
  // Fleet rollup (serve/fleet.hpp): the lineup's provisioning cost and each
  // die's config label.
  out << "],\"heterogeneous\":" << (report.heterogeneous ? "true" : "false")
      << ",\"fleet_cost\":" << report.fleet_cost << ",\"die_labels\":[";
  for (std::size_t d = 0; d < report.die_labels.size(); ++d) {
    out << (d == 0 ? "" : ",") << '"' << report.die_labels[d] << '"';
  }
  // Warmth rollup: hit rates, swap counts, and the warm/cold latency split.
  out << "],\"warmth_enabled\":" << (report.warmth_enabled ? "true" : "false")
      << ",\"warm_hit_rate\":" << report.warm_hit_rate()
      << ",\"plan_swaps\":" << report.total_plan_swaps()
      << ",\"warm_p50_latency_cycles\":" << report.warm_latency_percentile(50.0)
      << ",\"warm_p99_latency_cycles\":" << report.warm_latency_percentile(99.0)
      << ",\"cold_p50_latency_cycles\":" << report.cold_latency_percentile(50.0)
      << ",\"cold_p99_latency_cycles\":" << report.cold_latency_percentile(99.0)
      << ",\"die_warm_hit_rate\":[";
  for (std::size_t d = 0; d < report.die_warm_hits.size(); ++d) {
    out << (d == 0 ? "" : ",") << report.die_warm_hit_rate(d);
  }
  out << "],\"die_plan_swaps\":";
  write_list(report.die_plan_swaps);
  // Coalescing rollup.
  out << ",\"max_coalesce\":" << report.max_coalesce
      << ",\"coalesce_rate\":" << report.coalesce_rate()
      << ",\"service_groups\":" << report.total_groups()
      << ",\"mean_batch_size\":" << report.mean_batch_size()
      << ",\"weighting_cycles_saved\":" << report.weighting_cycles_saved
      << ",\"batch_size_counts\":";
  write_list(report.batch_size_counts);
  // Pipelining rollup: the stream-track cycles the two-track timeline hid
  // under compute, and each die's stream-track occupancy.
  out << ",\"pipeline_enabled\":" << (report.pipeline_enabled ? "true" : "false")
      << ",\"pipeline_hidden_cycles\":" << report.pipeline_hidden_cycles
      << ",\"die_stream_cycles\":";
  write_list(report.die_stream_cycles);
  // Plan-variant rollup: how many service slots each family width won at
  // dispatch (empty when no variant family was configured).
  out << ",\"variant_counts\":[";
  for (std::size_t v = 0; v < report.variant_counts.size(); ++v) {
    out << (v == 0 ? "" : ",") << "{\"width\":" << report.variant_counts[v].first
        << ",\"slots\":" << report.variant_counts[v].second << "}";
  }
  // SLO rollup: attainment overall, per stream, and per die, plus the shed
  // counter (serve/slo.hpp). Attainment is 1 when nothing carried an SLO.
  out << "],\"slo_enabled\":" << (report.slo_enabled ? "true" : "false")
      << ",\"shed_requests\":" << report.shed_count()
      << ",\"slo_requests\":" << report.slo_request_count()
      << ",\"slo_attainment\":" << report.slo_attainment()
      << ",\"stream_slo_attainment\":[";
  for (std::size_t s = 0; s < report.streams; ++s) {
    out << (s == 0 ? "" : ",") << report.stream_slo_attainment(s);
  }
  out << "],\"die_slo_attainment\":[";
  for (std::size_t d = 0; d < report.dies; ++d) {
    out << (d == 0 ? "" : ",") << report.die_slo_attainment(d);
  }
  out << "],\"records\":[";
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    const RequestRecord& r = report.requests[i];
    // deadline 0 = this request carries no SLO. A shed record's start and
    // finish both hold the shed time and its die is unattributed (0).
    out << (i == 0 ? "" : ",") << "{\"stream\":" << r.stream << ",\"die\":" << r.die
        << ",\"arrival\":" << r.arrival << ",\"start\":" << r.start
        << ",\"finish\":" << r.finish << ",\"warm_fraction\":" << r.warm_fraction
        << ",\"plan_swap\":" << (r.plan_swap ? "true" : "false")
        << ",\"group_size\":" << r.group_size << ",\"variant_width\":" << r.variant_width
        << ",\"deadline\":" << r.deadline << ",\"shed\":" << (r.shed ? "true" : "false")
        << "}";
  }
  out << "]}";
}

std::string serving_report_to_json(const ServingReport& report) {
  std::ostringstream os;
  write_serving_report_json(os, report);
  return os.str();
}

}  // namespace gnnie
