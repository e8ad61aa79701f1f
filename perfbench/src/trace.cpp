#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Buffer& Tracer::local() {
  struct Slot {
    const Tracer* owner = nullptr;
    Buffer* buffer = nullptr;
  };
  thread_local Slot slot;
  if (slot.owner != this) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    slot = {this, buffers_.back().get()};
  }
  return *slot.buffer;
}

std::int64_t Tracer::open(const char* name, std::uint64_t op_id) {
  Buffer& b = local();
  SpanRecord s;
  s.name = name;
  if (!b.open_stack.empty()) {
    s.parent = b.open_stack.back();
    s.op_id = b.spans[static_cast<std::size_t>(s.parent)].op_id;
  } else {
    s.op_id = op_id;
  }
  const auto handle = static_cast<std::int64_t>(b.spans.size());
  b.open_stack.push_back(handle);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return handle;
}

void Tracer::close(std::int64_t handle) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_ns = now_ns();
  b.open_stack.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, LayerTime> out;
  for (const auto& b : buffers_) {
    std::vector<std::uint64_t> child_ns(b->spans.size(), 0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      const std::string name(s.name);
      LayerTime& lt = out[name.substr(0, name.find('.'))];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      lt.total_ns += dur;
      lt.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
      lt.spans += 1;
    }
  }
  return out;
}

std::vector<std::uint64_t> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::uint64_t> out;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      if (name == s.name) out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"parent\":%lld}}",
                   first ? "" : ",", s.name, b->tid,
                   static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
