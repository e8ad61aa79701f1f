// In-memory span recorder of the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer of the library: name, start, end, the enclosing span on the same
// thread (the parent), and the identifier of the operation they belong to
// (one circuit, one serve job, one matrix call). Each thread appends to its
// own buffer, so recording takes no lock after a thread's first span. The
// spans stay in memory until the run ends and are then written as one
// Chrome-trace JSON file (chrome://tracing, Perfetto).
//
// A disabled tracer records nothing: Span's constructor tests one flag.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";   // string literal: "<layer>.<call>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the same thread's buffer, -1 = root
  std::uint64_t op_id = 0;   // shared by every span of one operation
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its handle (-1 when
  /// disabled). A root span (no open span on this thread) takes `op_id`;
  /// nested spans inherit their parent's.
  std::int64_t open(const char* name, std::uint64_t op_id);
  void close(std::int64_t handle);

  /// Total duration and self time (duration minus the time covered by its
  /// child spans) per layer, the name's part before the first '.', in ns.
  struct LayerTime {
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, LayerTime> layer_times() const;

  /// Durations in ns of every span named `name`, in recording order per
  /// thread.
  std::vector<std::uint64_t> durations(const std::string& name) const;

  /// Writes every span as a Chrome-trace "X" event. Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::filesystem::path& path) const;

  static std::uint64_t now_ns();

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::int64_t> open_stack;
  };
  Buffer& local();

  const bool enabled_;
  mutable std::mutex mu_;  // guards buffers_ (registration and read-out)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  const std::uint64_t epoch_ns_ = now_ns();
};

/// RAII span. `op_id` matters only for root spans.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t op_id = 0)
      : tracer_(t), handle_(t.enabled() ? t.open(name, op_id) : -1) {}
  ~Span() {
    if (handle_ >= 0) tracer_.close(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t handle_;
};

}  // namespace perfbench
