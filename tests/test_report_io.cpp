// Tests for report JSON export: structural validity (balanced braces,
// required keys), numeric fidelity, per-layer content, and the single
// serving-report shape (every key present whatever features ran).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/report_io.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/model.hpp"
#include "serve/cluster.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

InferenceReport make_report(GnnKind kind) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.05), 1);
  ModelConfig m;
  m.kind = kind;
  m.input_dim = d.spec.feature_length;
  m.hidden_dim = 16;
  GnnWeights w = init_weights(m, 3);
  const CompiledModel compiled = Engine(EngineConfig::paper_default(false)).compile(m, w);
  return compiled.run({compiled.plan(d.graph), &d.features}).report;
}

using bench::json_braces_balanced;

TEST(ReportIo, JsonIsStructurallyValid) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportIo, ContainsRequiredKeys) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  for (const char* key :
       {"\"total_cycles\"", "\"runtime_seconds\"", "\"effective_tops\"", "\"dram\"",
        "\"row_hit_rate\"", "\"layers\"", "\"weighting\"", "\"aggregation\"",
        "\"blocks_skipped\"", "\"rounds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, NumbersMatchReport) {
  InferenceReport rep = make_report(GnnKind::kGcn);
  const std::string json = report_to_json(rep);
  EXPECT_NE(json.find("\"total_cycles\":" + std::to_string(rep.total_cycles)),
            std::string::npos);
  EXPECT_NE(json.find("\"total_macs\":" + std::to_string(rep.total_macs)),
            std::string::npos);
}

TEST(ReportIo, GatIncludesAttentionSection) {
  const std::string json = report_to_json(make_report(GnnKind::kGat));
  EXPECT_NE(json.find("\"attention\""), std::string::npos);
  EXPECT_EQ(report_to_json(make_report(GnnKind::kGcn)).find("\"attention\""),
            std::string::npos);
}

TEST(ReportIo, GinIncludesSecondLinear) {
  const std::string json = report_to_json(make_report(GnnKind::kGinConv));
  EXPECT_NE(json.find("\"mlp2\""), std::string::npos);
}

ServingReport make_serving_report() {
  ServingReport rep;
  rep.dies = 2;
  rep.scheduler = "fifo";
  rep.clock_hz = 1.3e9;
  rep.makespan = 400;
  rep.die_busy_cycles = {300, 100};
  for (std::size_t i = 0; i < 3; ++i) {
    RequestRecord r;
    r.stream = i % 2;
    r.die = i % 2;
    r.arrival = i * 50;
    r.start = r.arrival + 10 * i;
    r.finish = r.start + 100;
    rep.requests.push_back(r);
  }
  return rep;
}

TEST(ReportIo, ServingJsonIsStructurallyValidWithRequiredKeys) {
  const std::string json = serving_report_to_json(make_serving_report());
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"dies\"", "\"scheduler\"", "\"makespan_cycles\"", "\"p50_latency_cycles\"",
        "\"p95_latency_cycles\"", "\"p99_latency_cycles\"", "\"mean_queue_depth\"",
        "\"die_utilization\"", "\"throughput_per_second\"", "\"records\"",
        "\"arrival\"", "\"start\"", "\"finish\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, ServingJsonNumbersMatchReport) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_NE(json.find("\"makespan_cycles\":" + std::to_string(rep.makespan)),
            std::string::npos);
  EXPECT_NE(json.find("\"p99_latency_cycles\":" +
                      std::to_string(rep.p99_latency_cycles())),
            std::string::npos);
  EXPECT_NE(json.find("\"scheduler\":\"fifo\""), std::string::npos);
  // One record object per request.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"arrival\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
}

/// Non-overlapping occurrences of `needle` in `json`.
std::size_t occurrences(const std::string& json, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// The "legacy shape" in the name is the pre-warmth block of keys: a
// warmth-disabled report keeps it, and since the serving JSON has one shape
// it also writes the warmth block, at its neutral values.
TEST(ReportIo, ServingJsonWarmthDisabledKeepsLegacyShape) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_NE(json.find("\"makespan_cycles\":" + std::to_string(rep.makespan)),
            std::string::npos);
  EXPECT_NE(json.find("\"die_utilization\":["), std::string::npos);
  EXPECT_NE(json.find("\"warmth_enabled\":false"), std::string::npos);
  EXPECT_NE(json.find("\"plan_swaps\":0,"), std::string::npos);
  for (const char* key : {"\"warm_hit_rate\":", "\"die_warm_hit_rate\":[",
                          "\"die_plan_swaps\":[", "\"warm_p99_latency_cycles\":",
                          "\"cold_p99_latency_cycles\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Every record is cold and swap-free.
  EXPECT_EQ(occurrences(json, "\"warm_fraction\":0,\"plan_swap\":false"), rep.requests.size());
}

ServingReport make_warm_serving_report() {
  ServingReport rep = make_serving_report();
  rep.warmth_enabled = true;
  rep.die_requests = {2, 1};
  rep.die_warm_hits = {1, 0};
  rep.die_plan_swaps = {1, 1};
  rep.requests[0].warm_fraction = 1.0;   // warm hit
  rep.requests[1].plan_swap = true;      // cold swap
  rep.requests[2].plan_swap = true;
  return rep;
}

/// Formats a double exactly as the JSON writer's ostream does.
std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

TEST(ReportIo, ServingJsonWarmthFieldsRoundTrip) {
  const ServingReport rep = make_warm_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"warmth_enabled\":true"), std::string::npos);
  // The rollup values survive serialization verbatim.
  EXPECT_NE(json.find("\"warm_hit_rate\":" + json_number(rep.warm_hit_rate())),
            std::string::npos);
  EXPECT_NE(json.find("\"plan_swaps\":" + std::to_string(rep.total_plan_swaps())),
            std::string::npos);
  EXPECT_NE(json.find("\"warm_p50_latency_cycles\":" +
                      std::to_string(rep.warm_latency_percentile(50.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"warm_p99_latency_cycles\":" +
                      std::to_string(rep.warm_latency_percentile(99.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"cold_p99_latency_cycles\":" +
                      std::to_string(rep.cold_latency_percentile(99.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"die_warm_hit_rate\":[" + json_number(rep.die_warm_hit_rate(0)) +
                      "," + json_number(rep.die_warm_hit_rate(1)) + "]"),
            std::string::npos);
  EXPECT_NE(json.find("\"die_plan_swaps\":[1,1]"), std::string::npos);
  // Every record carries its warmth fields.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"warm_fraction\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
  EXPECT_NE(json.find("\"warm_fraction\":1,\"plan_swap\":false"), std::string::npos);
  EXPECT_NE(json.find("\"warm_fraction\":0,\"plan_swap\":true"), std::string::npos);
}

// A max_coalesce = 1 report (the default) keeps the pre-batching keys and
// writes the batching block at its neutral values: nothing coalesced,
// nothing saved, every record its own group.
TEST(ReportIo, ServingJsonCoalescingDisabledKeepsLegacyShape) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_NE(json.find("\"scheduler\":\"fifo\""), std::string::npos);
  for (const char* neutral :
       {"\"max_coalesce\":1,", "\"coalesce_rate\":0,", "\"weighting_cycles_saved\":0,"}) {
    EXPECT_NE(json.find(neutral), std::string::npos) << neutral;
  }
  for (const char* key :
       {"\"service_groups\":", "\"mean_batch_size\":", "\"batch_size_counts\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(occurrences(json, "\"group_size\":1,"), rep.requests.size());
}

TEST(ReportIo, ServingJsonCoalescingFieldsRoundTrip) {
  ServingReport rep = make_serving_report();
  rep.max_coalesce = 4;
  rep.batch_size_counts = {1, 1};  // one singleton slot, one pair
  rep.weighting_cycles_saved = 77;
  rep.requests[0].group_size = 2;
  rep.requests[1].group_size = 2;
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"max_coalesce\":4"), std::string::npos);
  EXPECT_NE(json.find("\"coalesce_rate\":" + json_number(rep.coalesce_rate())),
            std::string::npos);
  EXPECT_NE(json.find("\"service_groups\":2"), std::string::npos);
  EXPECT_NE(json.find("\"mean_batch_size\":" + json_number(rep.mean_batch_size())),
            std::string::npos);
  EXPECT_NE(json.find("\"weighting_cycles_saved\":77"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_counts\":[1,1]"), std::string::npos);
  // Every record carries its group size.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"group_size\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
}

/// Every bare (unquoted) JSON value token: numbers and true/false.
std::vector<std::string> bare_values(const std::string& json) {
  std::vector<std::string> values;
  bool in_string = false;
  std::string token;
  for (char c : json) {
    if (c == '"') in_string = !in_string;
    if (!in_string && c != '"' && (std::isalnum(static_cast<unsigned char>(c)) ||
                                   c == '.' || c == '-' || c == '+')) {
      token += c;
    } else if (!token.empty()) {
      values.push_back(token);
      token.clear();
    }
  }
  return values;
}

/// Entries of the flat JSON array under `key` (numbers or label strings).
std::size_t array_length(const std::string& json, const std::string& key) {
  const std::size_t open = json.find("\"" + key + "\":[");
  if (open == std::string::npos) return 0;
  const std::size_t first = open + key.size() + 4;
  const std::size_t close = json.find(']', first);
  if (close == first) return 0;
  std::size_t entries = 1;
  for (std::size_t i = first; i < close; ++i) entries += json[i] == ',' ? 1 : 0;
  return entries;
}

// One shape for every serving report: a run with every feature off and a
// run over an empty trace both carry every block and every per-record key,
// lead with the one schema version, size every per-die array to the die
// count, and contain only finite numbers.
TEST(ReportIo, ServingJsonEveryFeatureOffWritesEveryKeyWithFiniteNumbers) {
  test::ServeFixture f;
  const serve::Cluster cluster(f.compiled, 3);
  const ServingReport all_off =
      cluster.simulate(serve::RequestTrace::fixed_interval({f.stream_a()}, 4, 0));
  const ServingReport empty =
      cluster.simulate(serve::RequestTrace::fixed_interval({f.stream_a()}, 0, 0));
  for (const ServingReport* rep : {&all_off, &empty}) {
    const std::string json = serving_report_to_json(*rep);
    SCOPED_TRACE(json.substr(0, 200));
    EXPECT_TRUE(json_braces_balanced(json));
    EXPECT_EQ(json.rfind("{\"schema_version\":" + std::to_string(kServingSchemaVersion) +
                             ",\"dies\":3,",
                         0),
              0u);
    for (const char* key :
         {"requests", "clock_hz", "makespan_seconds", "throughput_per_second",
          "max_latency_cycles", "heterogeneous", "fleet_cost", "warmth_enabled",
          "warm_hit_rate", "plan_swaps", "warm_p50_latency_cycles", "warm_p99_latency_cycles",
          "cold_p50_latency_cycles", "cold_p99_latency_cycles", "max_coalesce",
          "coalesce_rate", "service_groups", "mean_batch_size", "weighting_cycles_saved",
          "batch_size_counts", "pipeline_enabled", "pipeline_hidden_cycles",
          "variant_counts", "slo_enabled", "shed_requests", "slo_requests", "slo_attainment",
          "stream_slo_attainment", "records"}) {
      EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos) << key;
    }
    for (const char* per_die : {"die_utilization", "die_labels", "die_warm_hit_rate",
                                "die_plan_swaps", "die_stream_cycles", "die_slo_attainment"}) {
      EXPECT_EQ(array_length(json, per_die), 3u) << per_die;
    }
    // Disabled features write their neutral values.
    for (const char* neutral :
         {"\"heterogeneous\":false", "\"warmth_enabled\":false", "\"plan_swaps\":0",
          "\"max_coalesce\":1", "\"weighting_cycles_saved\":0",
          "\"pipeline_enabled\":false", "\"pipeline_hidden_cycles\":0",
          "\"variant_counts\":[]", "\"slo_enabled\":false", "\"shed_requests\":0",
          "\"slo_attainment\":1"}) {
      EXPECT_NE(json.find(neutral), std::string::npos) << neutral;
    }
    for (const std::string& value : bare_values(json)) {
      if (value == "true" || value == "false") continue;
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      EXPECT_TRUE(*end == '\0' && std::isfinite(number)) << value;
    }
  }
  // Every record carries every per-record key, in one fixed order.
  const std::string json = serving_report_to_json(all_off);
  std::size_t count = 0, pos = 0;
  const std::string record_tail =
      ",\"warm_fraction\":0,\"plan_swap\":false,\"group_size\":1,\"variant_width\":0,"
      "\"deadline\":0,\"shed\":false}";
  while ((pos = json.find(record_tail, pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, all_off.requests.size());
  EXPECT_NE(serving_report_to_json(empty).find("\"records\":[]}"), std::string::npos);
}

// The name dates from the pre-SLO JSON, which was schema version 1. That
// version is gone: an SLO-less homogeneous report now leads with the one
// schema version and writes the fleet and SLO blocks at their neutral
// values, so consumers see the same version whatever features ran.
TEST(ReportIo, ServingJsonSloDisabledPinsSchemaVersion1) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_EQ(json.rfind("{\"schema_version\":" + std::to_string(kServingSchemaVersion) +
                           ",\"dies\":",
                       0),
            0u)
      << "schema_version must lead the object: " << json.substr(0, 60);
  for (const char* neutral :
       {"\"heterogeneous\":false,", "\"fleet_cost\":0,", "\"die_labels\":[]",
        "\"slo_enabled\":false,", "\"shed_requests\":0,", "\"slo_requests\":0,",
        "\"slo_attainment\":1,", "\"stream_slo_attainment\":[]",
        "\"die_slo_attainment\":[1,1]"}) {
    EXPECT_NE(json.find(neutral), std::string::npos) << neutral;
  }
  EXPECT_EQ(occurrences(json, "\"deadline\":0,\"shed\":false}"), rep.requests.size());
}

ServingReport make_slo_serving_report() {
  ServingReport rep = make_serving_report();
  rep.slo_enabled = true;
  rep.streams = 2;
  // Request 0: met (finish 100 <= deadline 150). Request 1: missed
  // (finish 160 > deadline 155). Request 2: shed at its arrival.
  rep.requests[0].deadline = 150;
  rep.requests[1].deadline = 155;
  rep.requests[2].deadline = 120;
  rep.requests[2].shed = true;
  rep.requests[2].start = rep.requests[2].arrival;
  rep.requests[2].finish = rep.requests[2].arrival;
  return rep;
}

TEST(ReportIo, ServingJsonSloFieldsRoundTrip) {
  const ServingReport rep = make_slo_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"slo_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"shed_requests\":1"), std::string::npos);
  EXPECT_NE(json.find("\"slo_requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"slo_attainment\":" + json_number(rep.slo_attainment())),
            std::string::npos);
  EXPECT_NE(json.find("\"stream_slo_attainment\":[" +
                      json_number(rep.stream_slo_attainment(0)) + "," +
                      json_number(rep.stream_slo_attainment(1)) + "]"),
            std::string::npos);
  EXPECT_NE(json.find("\"die_slo_attainment\":["), std::string::npos);
  // Every record carries its deadline and shed flag.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"deadline\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
  EXPECT_NE(json.find("\"deadline\":150,\"shed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"deadline\":120,\"shed\":true"), std::string::npos);
}

TEST(ReportIo, ServingJsonFleetFieldsRoundTrip) {
  ServingReport rep = make_serving_report();
  rep.heterogeneous = true;
  rep.fleet_cost = 3.25;
  rep.die_labels = {"E", "A"};
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"heterogeneous\":true"), std::string::npos);
  EXPECT_NE(json.find("\"fleet_cost\":3.25"), std::string::npos);
  EXPECT_NE(json.find("\"die_labels\":[\"E\",\"A\"]"), std::string::npos);
}

TEST(ReportIo, WeightingJsonIncludesStreamByteSplit) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_NE(json.find("\"weight_stream_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"dram_stream_bytes\""), std::string::npos);
}

TEST(ReportIo, AggregationJsonIncludesInputFetchBytes) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_NE(json.find("\"input_fetch_bytes\""), std::string::npos);
}

TEST(ReportIo, LayerCountMatches) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"weighting\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);  // two layers
}

}  // namespace
}  // namespace gnnie
