#include "explore/codec.h"

#include <iterator>
#include <sstream>

#include "gen/json.h"
#include "gen/json_backend.h"
#include "util/error.h"

namespace stx::explore {

std::string encode_traces(const xbar::collected_traces& traces) {
  std::ostringstream out;
  out << "stxtraces/v2\n";
  traces.request.save(out);
  traces.response.save(out);
  out << encode_metrics(traces.full);
  return std::move(out).str();
}

xbar::collected_traces decode_traces(const std::string& blob) {
  std::istringstream in(blob);
  std::string magic;
  in >> magic;
  STX_REQUIRE(magic == "stxtraces/v2", "not an stxtraces/v2 blob");
  xbar::collected_traces traces;
  traces.request = traffic::trace::load(in);
  traces.response = traffic::trace::load(in);
  // The rest of the blob is the phase-1 run's metrics document.
  traces.full = decode_metrics(std::string(std::istreambuf_iterator<char>(in),
                                           std::istreambuf_iterator<char>()));
  return traces;
}

std::string encode_metrics(const xbar::validation_metrics& m) {
  const gen::json::value doc(gen::json::object{
      {"schema", "stx-validation-metrics/v1"},
      {"avg_latency", m.avg_latency},
      {"max_latency", m.max_latency},
      {"p99_latency", m.p99_latency},
      {"avg_critical", m.avg_critical},
      {"max_critical", m.max_critical},
      {"packets", m.packets},
      {"transactions", m.transactions},
      {"iterations", m.iterations},
      {"total_buses", m.total_buses},
  });
  return gen::json::dump(doc);
}

xbar::validation_metrics decode_metrics(const std::string& blob) {
  const auto doc = gen::json::parse(blob);
  STX_REQUIRE(doc.contains("schema") && doc.at("schema").as_string() ==
                                            "stx-validation-metrics/v1",
              "not an stx-validation-metrics/v1 blob");
  xbar::validation_metrics m;
  m.avg_latency = doc.at("avg_latency").as_double();
  m.max_latency = doc.at("max_latency").as_double();
  m.p99_latency = doc.at("p99_latency").as_double();
  m.avg_critical = doc.at("avg_critical").as_double();
  m.max_critical = doc.at("max_critical").as_double();
  m.packets = doc.at("packets").as_int();
  m.transactions = doc.at("transactions").as_int();
  m.iterations = doc.at("iterations").as_int();
  m.total_buses = static_cast<int>(doc.at("total_buses").as_int());
  return m;
}

std::string encode_report(const xbar::flow_report& report) {
  return gen::json_backend().emit(report, report.app_name);
}

xbar::flow_report decode_report(const std::string& blob) {
  return gen::parse_design(blob);
}

}  // namespace stx::explore
