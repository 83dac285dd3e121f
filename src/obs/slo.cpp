#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strfmt.hpp"

namespace nbwp::obs {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Unit of a histogram, inferred from its naming convention, expressed
/// in nanoseconds per unit.  0 = unitless (bounds compare raw).
double metric_unit_ns(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string sfx(suffix);
    // The unit suffix may be followed by a label block.
    const auto brace = name.find('{');
    const std::string base =
        brace == std::string::npos ? name : name.substr(0, brace);
    return base.size() >= sfx.size() &&
           base.compare(base.size() - sfx.size(), sfx.size(), sfx) == 0;
  };
  if (ends_with("_ms")) return 1e6;
  if (ends_with("_us")) return 1e3;
  if (ends_with("_ns")) return 1.0;
  if (name.rfind("span.", 0) == 0) return 1.0;
  return 0.0;
}

/// "5ms" -> value 5, unit "ms".  No suffix -> unit "".
void split_value_unit(const std::string& token, double& value,
                      std::string& unit) {
  size_t pos = 0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw Error("SLO: bad bound '" + token + "'");
  }
  unit = token.substr(pos);
  if (unit != "" && unit != "ns" && unit != "us" && unit != "ms" &&
      unit != "s")
    throw Error("SLO: unknown unit '" + unit + "' in '" + token +
                "' (ns|us|ms|s)");
}

double unit_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 0.0;  // bare number
}

SloObjective parse_objective(const std::string& text) {
  SloObjective obj;
  obj.spec = trim(text);
  // Tokenize on whitespace after padding the operators, so both
  // "p99<5ms" and "p99 < 5ms" parse.
  std::string padded;
  for (char c : obj.spec) {
    if (c == '<') {
      padded += " < ";
    } else if (c == '/') {
      padded += " / ";
    } else {
      padded += c;
    }
  }
  std::istringstream in(padded);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);

  // error rate: METRIC / TOTAL rate < BOUND
  if (tokens.size() == 6 && tokens[1] == "/" && tokens[3] == "rate" &&
      tokens[4] == "<") {
    obj.kind = SloObjective::Kind::kErrorRate;
    obj.metric = tokens[0];
    obj.total = tokens[2];
    std::string unit;
    split_value_unit(tokens[5], obj.bound, unit);
    if (!unit.empty())
      throw Error("SLO: error-rate bound takes no unit in '" + obj.spec +
                  "'");
    return obj;
  }
  // latency: METRIC STAT < VALUE[unit]
  if (tokens.size() == 4 && tokens[2] == "<") {
    obj.kind = SloObjective::Kind::kLatency;
    obj.metric = tokens[0];
    obj.stat = tokens[1];
    if (obj.stat != "p50" && obj.stat != "p95" && obj.stat != "p99" &&
        obj.stat != "mean" && obj.stat != "max")
      throw Error("SLO: unknown stat '" + obj.stat + "' in '" + obj.spec +
                  "' (p50|p95|p99|mean|max)");
    double value = 0;
    std::string unit;
    split_value_unit(tokens[3], value, unit);
    const double bound_ns = unit_ns(unit);
    if (bound_ns > 0) {
      const double metric_ns = metric_unit_ns(obj.metric);
      if (metric_ns <= 0)
        throw Error("SLO: '" + obj.metric +
                    "' has no unit suffix (_ns/_us/_ms) to convert '" +
                    tokens[3] + "' into");
      obj.bound = value * bound_ns / metric_ns;
    } else {
      obj.bound = value;
    }
    return obj;
  }
  throw Error(
      "SLO: cannot parse '" + obj.spec +
      "' (expected '<metric> <stat> < <bound>[unit]' or "
      "'<bad> / <total> rate < <bound>')");
}

}  // namespace

bool SloReport::ok() const {
  return std::all_of(results.begin(), results.end(),
                     [](const SloResult& r) { return r.ok; });
}

double SloReport::max_burn_rate() const {
  double burn = 0;
  for (const SloResult& r : results) burn = std::max(burn, r.burn_rate);
  return burn;
}

SloMonitor SloMonitor::parse(const std::string& spec) {
  SloMonitor monitor;
  std::string rest = spec;
  size_t pos = 0;
  while (pos <= rest.size()) {
    const size_t semi = rest.find(';', pos);
    const std::string part =
        rest.substr(pos, semi == std::string::npos ? std::string::npos
                                                   : semi - pos);
    if (!trim(part).empty()) monitor.add(parse_objective(part));
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  if (monitor.size() == 0) throw Error("SLO: empty spec");
  return monitor;
}

void SloMonitor::add(SloObjective objective) {
  objectives_.push_back(std::move(objective));
}

SloReport SloMonitor::evaluate(const Registry& registry) const {
  SloReport report;
  for (const SloObjective& obj : objectives_) {
    SloResult r;
    r.objective = obj;
    if (obj.kind == SloObjective::Kind::kLatency) {
      const Histogram* h = registry.find_histogram(obj.metric);
      if (!h || h->count() == 0) {
        r.missing = true;
        r.ok = false;
      } else {
        const HistogramSummary s = h->window_summary();
        if (obj.stat == "p50") r.observed = s.p50;
        if (obj.stat == "p95") r.observed = s.p95;
        if (obj.stat == "p99") r.observed = s.p99;
        if (obj.stat == "mean") r.observed = s.mean;
        if (obj.stat == "max") r.observed = s.max;
        r.ok = r.observed <= obj.bound;
      }
    } else {
      const Counter* bad = registry.find_counter(obj.metric);
      const Counter* total = registry.find_counter(obj.total);
      if (!total || total->value() <= 0) {
        r.missing = true;
        r.ok = false;
      } else {
        r.observed = (bad ? bad->value() : 0.0) / total->value();
        r.ok = r.observed <= obj.bound;
      }
    }
    r.burn_rate = obj.bound > 0 ? r.observed / obj.bound
                                : (r.observed > 0 ? INFINITY : 0.0);
    report.results.push_back(std::move(r));
  }
  return report;
}

void write_slo_report_json(std::ostream& os, const SloReport& report) {
  os << strfmt("{\"ok\":%s,\"max_burn_rate\":%.6g,\"objectives\":[",
               report.ok() ? "true" : "false",
               std::isfinite(report.max_burn_rate())
                   ? report.max_burn_rate()
                   : -1.0);
  bool first = true;
  for (const SloResult& r : report.results) {
    if (!first) os << ',';
    first = false;
    const SloObjective& o = r.objective;
    os << strfmt(
        "{\"spec\":%s,\"kind\":%s,\"metric\":%s,%s\"bound\":%.17g,"
        "\"observed\":%.17g,\"burn_rate\":%.6g,\"ok\":%s,"
        "\"missing\":%s}",
        json_quote(o.spec).c_str(),
        o.kind == SloObjective::Kind::kLatency ? "\"latency\""
                                               : "\"error_rate\"",
        json_quote(o.metric).c_str(),
        o.kind == SloObjective::Kind::kLatency
            ? strfmt("\"stat\":%s,", json_quote(o.stat).c_str()).c_str()
            : strfmt("\"total\":%s,", json_quote(o.total).c_str()).c_str(),
        o.bound, r.observed,
        std::isfinite(r.burn_rate) ? r.burn_rate : -1.0,
        r.ok ? "true" : "false", r.missing ? "true" : "false");
  }
  os << "]}";
}

}  // namespace nbwp::obs
