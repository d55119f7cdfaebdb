#include "tracer.hpp"

#include <algorithm>
#include <utility>

#include "util/json.hpp"

namespace sealdl::perfbench {

Tracer::Span Tracer::open(std::string_view name, int op) {
  Record record;
  record.name = std::string(name);
  record.op = op;
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.start = Clock::now();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return Span(this, records_.size() - 1);
}

void Tracer::record(std::string_view name, int op, Clock::time_point start,
                    Clock::time_point end, int lane) {
  Record record;
  record.name = std::string(name);
  record.op = op;
  record.lane = lane;
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.start = start;
  record.end = end;
  record.closed = true;
  records_.push_back(std::move(record));
}

void Tracer::close(std::size_t index) {
  records_[index].end = Clock::now();
  records_[index].closed = true;
  open_.pop_back();
}

double Tracer::total_s(std::string_view name, std::string_view within) const {
  const auto inside = [&](const Record& record) {
    for (std::int64_t p = record.parent; p >= 0;
         p = records_[static_cast<std::size_t>(p)].parent) {
      if (records_[static_cast<std::size_t>(p)].name == within) return true;
    }
    return false;
  };
  double total = 0.0;
  for (const Record& record : records_) {
    if (record.closed && record.name == name && inside(record)) {
      total += seconds_between(record.start, record.end);
    }
  }
  return total;
}

double Tracer::self_s(std::size_t index) const {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Record& record : records_) {
    if (record.closed && record.parent == static_cast<std::int64_t>(index)) {
      children.emplace_back(record.start, record.end);
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  Clock::time_point reach = records_[index].start;
  for (const auto& [start, end] : children) {
    const Clock::time_point from = std::max(start, reach);
    if (end > from) {
      covered += seconds_between(from, end);
      reach = end;
    }
  }
  return seconds_between(records_[index].start, records_[index].end) - covered;
}

std::string Tracer::chrome_trace_json() const {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  util::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    if (!record.closed) continue;
    json.begin_object();
    json.field("name", record.name);
    json.field("cat", "host");
    json.field("ph", "X");
    json.field("pid", 1);
    json.field("tid", record.lane + 1);
    json.field("ts", micros(record.start));
    json.field("dur", seconds_between(record.start, record.end) * 1e6);
    json.key("args").begin_object();
    json.field("span", static_cast<std::int64_t>(i));
    json.field("parent", record.parent);
    json.field("op", record.op);
    json.field("self_us", self_s(i) * 1e6);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace sealdl::perfbench
