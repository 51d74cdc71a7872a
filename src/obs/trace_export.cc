#include "obs/trace_export.h"

#include <cstdio>
#include <unordered_map>

#include "obs/json.h"

namespace bnm::obs::trace {

using bnm::sim::TraceAttr;
using bnm::sim::TraceEventKind;
using bnm::sim::TraceRecord;

namespace {

void append_attr_value(std::string& out, const TraceAttr& a) {
  if (const auto* s = std::get_if<std::string>(&a.value)) {
    out += '"';
    json::escape_to(out, *s);
    out += '"';
  } else if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&a.value)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    out += buf;
  } else {
    out += std::get<bool>(a.value) ? "true" : "false";
  }
}

void append_attrs_object(std::string& out,
                         const std::vector<TraceAttr>& attrs) {
  out += '{';
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i) out += ',';
    out += '"';
    json::escape_to(out, attrs[i].key);
    out += "\":";
    append_attr_value(out, attrs[i]);
  }
  out += '}';
}

void append_us(std::string& out, std::int64_t ns) {
  // Microseconds with three decimals: full nanosecond fidelity, and
  // Perfetto's expected unit.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string to_jsonl(const bnm::sim::Trace& trace) {
  std::string out;
  for (const TraceRecord& r : trace.records()) {
    out += "{\"ts_us\":";
    append_us(out, r.at.ns_since_epoch());
    out += ",\"component\":\"";
    json::escape_to(out, r.component);
    out += "\",\"name\":\"";
    json::escape_to(out, r.message);
    out += "\",\"kind\":\"";
    out += r.kind == TraceEventKind::kSpan ? "span" : "instant";
    out += '"';
    if (r.kind == TraceEventKind::kSpan) {
      out += ",\"dur_us\":";
      append_us(out, r.duration.ns());
    }
    if (!r.attrs.empty()) {
      out += ",\"attrs\":";
      append_attrs_object(out, r.attrs);
    }
    out += "}\n";
  }
  return out;
}

std::string to_chrome_trace(const bnm::sim::Trace& trace) {
  // One synthetic thread per component, in order of first appearance.
  std::unordered_map<std::string, int> tids;
  std::vector<std::string> components;
  for (const TraceRecord& r : trace.records()) {
    if (tids.emplace(r.component, static_cast<int>(tids.size()) + 1).second) {
      components.push_back(r.component);
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const std::string& c : components) {
    if (!first) out += ',';
    first = false;
    out +=
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
        std::to_string(tids[c]) + ",\"args\":{\"name\":\"";
    json::escape_to(out, c);
    out += "\"}}";
  }
  for (const TraceRecord& r : trace.records()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json::escape_to(out, r.message);
    out += "\",\"cat\":\"";
    json::escape_to(out, r.component);
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(tids[r.component]);
    out += ",\"ts\":";
    append_us(out, r.at.ns_since_epoch());
    if (r.kind == TraceEventKind::kSpan) {
      out += ",\"ph\":\"X\",\"dur\":";
      append_us(out, r.duration.ns());
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    if (!r.attrs.empty()) {
      out += ",\"args\":";
      append_attrs_object(out, r.attrs);
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace bnm::obs::trace
