// Host-clock span recorder for traced benchmark runs.
//
// Spans wrap public calls into the sealdl modules from the benchmark's own
// code. They are kept in memory and written once, at exit, as Chrome-trace
// JSON (loadable in Perfetto). Spans are opened and closed on the
// benchmark's main thread, so nesting is a stack; work that ran on pool
// threads is added afterwards with record(), on a lane of its own. A span's
// self time is its duration minus the part of it its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sealdl::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Tracer {
 public:
  /// Closes its span when it goes out of scope. A default-constructed Span
  /// records nothing, which is what untraced runs use.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    ~Span() {
      if (tracer_) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Opens a span named `name` for benchmark op `op` (-1 = not tied to one
  /// op), child of the innermost open span.
  [[nodiscard]] Span open(std::string_view name, int op);

  /// Adds a finished span that ran on pool thread `lane` (>= 1) as a child
  /// of the innermost open span.
  void record(std::string_view name, int op, Clock::time_point start,
              Clock::time_point end, int lane);

  /// Summed duration, in seconds, of every closed span named `name` that has
  /// an ancestor named `within` (the phase of the run it belongs to).
  [[nodiscard]] double total_s(std::string_view name,
                               std::string_view within) const;

  /// Chrome-trace JSON of every closed span ("X" events, microseconds).
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct Record {
    std::string name;
    int op = -1;
    int lane = 0;              ///< 0 = main thread
    std::int64_t parent = -1;  ///< index into records_, -1 for a root span
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };

  void close(std::size_t index);
  /// Duration minus the union of the direct children's intervals.
  [[nodiscard]] double self_s(std::size_t index) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// Opens a span on `tracer`, or records nothing when it is null.
[[nodiscard]] inline Tracer::Span span(Tracer* tracer, std::string_view name,
                                       int op = -1) {
  return tracer ? tracer->open(name, op) : Tracer::Span();
}

}  // namespace sealdl::perfbench
