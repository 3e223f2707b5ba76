// Report serialization: InferenceReport → JSON, for plotting pipelines and
// external analysis of bench results.
#pragma once

#include <iosfwd>
#include <string>

#include "core/report.hpp"

namespace gnnie {

/// Writes the full report (totals, per-layer phase breakdowns, DRAM stats)
/// as a single JSON object.
void write_report_json(std::ostream& out, const InferenceReport& report);
std::string report_to_json(const InferenceReport& report);

/// Version of the serving-report JSON shape written below.
inline constexpr int kServingSchemaVersion = 4;

/// Writes a serving-cluster report (serve::Cluster) as a single JSON object:
/// the leading "schema_version" (kServingSchemaVersion), the
/// latency/throughput rollup, per-die utilization, the fleet, warmth,
/// coalescing, pipeline, plan-variant, and SLO blocks, and the per-request
/// (arrival, start, finish, die, stream, warmth, slot, deadline, shed)
/// records in trace order. Every key is present in every report, whatever
/// features the run enabled: a disabled feature writes its neutral values
/// (zero counters, cold records, attainment 1, an empty variant list).
/// Per-die arrays hold one entry per die.
void write_serving_report_json(std::ostream& out, const ServingReport& report);
std::string serving_report_to_json(const ServingReport& report);

}  // namespace gnnie
