// serve_warm: serve::Server in process, every job a store hit. Set-up runs
// each job of a fixed (circuit, kind, seed) set once uncached, for the
// reference result bytes, then fills a fresh StageCache with one cold pass
// over the set (repeated for a steady median; the last store is served).
// The timed phase is a closed loop of min(4, nproc) client threads,
// each submitting its next job only after the previous response, against
// the server's default worker count. Every request and response goes
// through the pdf.serve/1 codec. Netlist regeneration, store read and
// decode, queueing and the codec do all the work; ATPG does none, so an
// ATPG change must leave this workload unchanged.
#include <algorithm>
#include <cstdio>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "base/rng.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "gen/registry.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/backend.hpp"
#include "store/stage_cache.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kCircuits = {"s1488_like", "b03_like",
                                            "s953_like", "s820_like"};
constexpr std::size_t kSeedsPerCircuit = 1;
constexpr std::size_t kNp = 500;
constexpr std::size_t kNp0 = 50;
constexpr int kSetupReps = 3;
constexpr std::size_t kMaxClients = 4;
constexpr int kHitPasses = 5;
constexpr double kWindowS = 1.0;

struct Job {
  pdf::serve::Request req;
  std::string expected;  // result bytes of the cold uncached run_job
};

std::vector<Job> make_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < kCircuits.size(); ++c) {
    for (std::size_t s = 0; s < kSeedsPerCircuit; ++s) {
      for (const auto kind :
           {pdf::serve::RequestKind::Enrich, pdf::serve::RequestKind::Basic}) {
        Job j;
        j.req.kind = kind;
        j.req.circuit = kCircuits[c];
        j.req.target.n_p = kNp;
        j.req.target.n_p0 = kNp0;
        j.req.gen.seed = 1 + derive_seed(seed, c * kSeedsPerCircuit + s) % 1000000;
        jobs.push_back(std::move(j));
      }
    }
  }
  return jobs;
}

/// Hands out operation indices in whole rounds of the job set: after stop(),
/// only the rest of the current round is handed out.
class Dispenser {
 public:
  explicit Dispenser(std::size_t round_size) : n_(round_size) {}
  std::optional<std::size_t> take() {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && next_ % n_ == 0) return std::nullopt;
    return next_++;
  }
  void stop() {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  std::size_t taken() const {
    std::lock_guard<std::mutex> lk(mu_);
    return next_;
  }

 private:
  mutable std::mutex mu_;
  const std::size_t n_;
  std::size_t next_ = 0;
  bool stopping_ = false;
};

struct ClientLog {
  std::vector<double> done_s;  // completion time since the timed phase began
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::uint64_t failed = 0;
  Failures failures;
};

void client(Tracer& tracer, pdf::serve::Server& server,
            const std::vector<Job>& jobs, const std::vector<std::size_t>& order,
            Dispenser& dispenser, Clock::time_point start, ClientLog& log) {
  while (const auto op = dispenser.take()) {
    const Job& job = jobs[order[*op % jobs.size()]];
    pdf::serve::Request req = job.req;
    req.id = static_cast<std::int64_t>(*op + 1);
    const auto t0 = Clock::now();
    pdf::serve::Response resp;
    try {
      const Span root(tracer, "serve.request", *op + 1);
      pdf::serve::Request parsed;
      {
        const Span s(tracer, "serve.codec_request");
        parsed = pdf::serve::parse_request(pdf::serve::request_json(req).dump());
      }
      pdf::serve::Response raw;
      {
        const Span s(tracer, "serve.wait");
        std::promise<pdf::serve::Response> promise;
        std::future<pdf::serve::Response> done = promise.get_future();
        server.submit(std::move(parsed), [&promise](pdf::serve::Response r) {
          promise.set_value(std::move(r));
        });
        raw = done.get();
      }
      {
        const Span s(tracer, "serve.codec_response");
        resp = pdf::serve::parse_response(raw.to_line());
      }
    } catch (const std::exception& e) {
      resp.status = pdf::serve::Status::Error;
      resp.error.message = e.what();
    }
    const double ms = seconds_since(t0) * 1e3;
    if (resp.status != pdf::serve::Status::Ok) {
      ++log.failed;
      std::fprintf(stderr, "job %zu failed: %s\n", *op + 1,
                   resp.error.message.c_str());
      continue;
    }
    log.done_s.push_back(seconds_since(start));
    log.latency_ms.push_back(ms);
    log.queue_ms.push_back(static_cast<double>(resp.queue_ns) / 1e6);
    log.run_ms.push_back(static_cast<double>(resp.run_ns) / 1e6);
    check_response(resp, job.expected, job.req.circuit + " job", log.failures);
  }
}

/// Throughput and latency quantiles per kWindowS window of completion time
/// (whole windows only), reduced to their medians across windows, so a
/// short stall of the host moves one window and not the result.
void windowed(const std::vector<ClientLog>& logs, double wall_s, EndToEnd& e2e) {
  const auto windows = static_cast<std::size_t>(wall_s / kWindowS);
  std::vector<std::vector<double>> lat(std::max<std::size_t>(windows, 1));
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.done_s.size(); ++i) {
      const auto w = static_cast<std::size_t>(log.done_s[i] / kWindowS);
      if (w < lat.size()) lat[w].push_back(log.latency_ms[i]);
    }
  }
  std::vector<double> rate, p50, p99;
  for (const std::vector<double>& w : lat) {
    rate.push_back(static_cast<double>(w.size()) / kWindowS);
    p50.push_back(quantile(w, 0.50));
    p99.push_back(quantile(w, 0.99));
  }
  e2e.jobs_per_s = median(rate);
  e2e.latency_p50_ms = median(p50);
  e2e.latency_p99_ms = median(p99);
}

/// Traced run only: the warm-path layers of a job called one at a time —
/// netlist regeneration and the two store hits a warm run_job makes.
void isolated_hits(Tracer& tracer, const std::vector<Job>& jobs,
                   const std::filesystem::path& store_dir, RunResult& r) {
  pdf::store::StageCache cache(store_dir);
  for (int pass = 0; pass < kHitPasses; ++pass) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const pdf::serve::Request& req = jobs[j].req;
      std::optional<pdf::Netlist> nl;
      {
        const Span s(tracer, "gen.benchmark_circuit", j + 1);
        nl.emplace(pdf::benchmark_circuit(req.circuit));
      }
      pdf::TargetSets ts;
      {
        const Span s(tracer, "store.target_sets_hit", j + 1);
        ts = pdf::store::cached_target_sets(&cache, *nl, req.target);
      }
      const Span s(tracer, "store.generate_hit", j + 1);
      (void)pdf::store::cached_generate(
          &cache, *nl, ts.p0,
          req.kind == pdf::serve::RequestKind::Basic
              ? std::span<const pdf::TargetFault>{}
              : std::span<const pdf::TargetFault>(ts.p1),
          req.target, req.gen);
    }
  }
  r.set("gen.circuit_us", median_ns(tracer, "gen.benchmark_circuit") / 1e3, "us");
  r.set("store.target_sets_hit_us", median_ns(tracer, "store.target_sets_hit") / 1e3, "us");
  r.set("store.generate_hit_us", median_ns(tracer, "store.generate_hit") / 1e3, "us");
}

}  // namespace

int run_serve_warm(const Options& o, RunResult& r) {
  Tracer tracer(o.trace);
  std::vector<Job> jobs = make_jobs(o.seed);
  const std::string backend = pdf::sim::selected_backend().name();

  // Set-up: the reference bytes, then fresh stores filled by a cold pass,
  // several times for a steady median; the last store is served.
  const auto ref_t0 = Clock::now();
  const pdf::serve::JobContext uncached{nullptr, backend, "", ""};
  for (Job& job : jobs) {
    const pdf::serve::Response ref = pdf::serve::run_job(job.req, uncached);
    if (ref.status != pdf::serve::Status::Ok) {
      throw std::runtime_error("uncached " + job.req.circuit + " job failed: " +
                               ref.error.message);
    }
    job.expected = ref.result.dump();
  }
  const double reference_s = seconds_since(ref_t0);
  std::vector<double> fill_s;
  std::filesystem::path store_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    store_dir = o.tmp_dir / ("store-" + std::to_string(rep));
    std::filesystem::create_directories(store_dir);
    pdf::store::StageCache cache(store_dir);
    const pdf::serve::JobContext cold{&cache, backend, store_dir.string(), ""};
    for (const Job& job : jobs) {
      check_response(pdf::serve::run_job(job.req, cold), job.expected,
                     job.req.circuit + " cold job", r.check_failures);
    }
    fill_s.push_back(seconds_since(t0));
  }
  const auto server_t0 = Clock::now();
  pdf::serve::ServerConfig cfg;  // default worker count and queue depth
  cfg.store_dir = store_dir.string();
  cfg.backend = backend;
  std::optional<pdf::serve::Server> server(std::in_place, cfg);

  EndToEnd e2e;
  e2e.setup_s = reference_s + median(fill_s) + seconds_since(server_t0);
  for (const Job& job : jobs) {
    const auto result = pdf::obs::Json::parse(job.expected);
    e2e.p01_detected += static_cast<double>(result.at("union_detected").as_int());
    e2e.enriched_tests += static_cast<double>(result.at("test_count").as_int());
  }

  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  pdf::Rng rng(derive_seed(o.seed, 999));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  const std::size_t clients =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxClients);
  const CounterDeltas counters;
  Dispenser dispenser(jobs.size());
  std::vector<ClientLog> logs(clients);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client(tracer, *server, jobs, order, dispenser, t0, logs[c]);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
    dispenser.stop();
  }
  const std::size_t ops = dispenser.taken();
  r.attempted = ops;
  windowed(logs, seconds_since(t0), e2e);
  // Rounds overlap under concurrent clients: a round's cost is its share of
  // the steady throughput.
  e2e.campaign_s = static_cast<double>(jobs.size()) / e2e.jobs_per_s;

  std::vector<double> queue_ms, run_ms;
  for (ClientLog& log : logs) {
    queue_ms.insert(queue_ms.end(), log.queue_ms.begin(), log.queue_ms.end());
    run_ms.insert(run_ms.end(), log.run_ms.begin(), log.run_ms.end());
    r.failed += log.failed;
    r.check_failures.insert(r.check_failures.end(), log.failures.begin(),
                            log.failures.end());
  }

  if (!o.trace) {
    server.reset();
    e2e.emit(r);
    return 0;
  }
  e2e.emit_traced(r);
  counters.emit(r);
  r.set("store.bytes_read_per_job",
        static_cast<double>(counters.delta("store.bytes_read")) / static_cast<double>(ops),
        "B");
  server.reset();
  r.set("store.fill_ms", median(fill_s) * 1e3, "ms");
  r.set("serve.queue_ms_p50", median(queue_ms), "ms");
  r.set("serve.run_ms_p50", median(run_ms), "ms");
  const std::vector<std::uint64_t> enc = tracer.durations("serve.codec_request");
  const std::vector<std::uint64_t> dec = tracer.durations("serve.codec_response");
  std::vector<double> codec_us;
  for (std::size_t i = 0; i < std::min(enc.size(), dec.size()); ++i) {
    codec_us.push_back(static_cast<double>(enc[i] + dec[i]) / 1e3);
  }
  r.set("serve.codec_us", median(codec_us), "us");
  isolated_hits(tracer, jobs, store_dir, r);
  emit_self_times(tracer, r);
  return write_trace(tracer, o) ? 0 : 1;
}

}  // namespace perfbench
