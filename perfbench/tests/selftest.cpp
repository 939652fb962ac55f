// Self-tests of the benchmark: the exact-percentile helper, self-time
// subtraction, closed-loop serve accounting, traced-runner fidelity and
// count determinism, a short smoke of each workload that checks its
// digest, and the pinned-digest checks. Run: perfbench_selftest (exit 0 =
// all passed).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ++failures;                                                          \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
    }                                                                      \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

using perfbench::quantile;

void test_quantiles() {
  // 1..100 in shuffled order: type-7 quantiles are known in closed form.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  std::shuffle(hundred.begin(), hundred.end(), std::mt19937(7));
  CHECK(near(quantile(hundred, 0.0), 1.0));
  CHECK(near(quantile(hundred, 1.0), 100.0));
  CHECK(near(quantile(hundred, 0.5), 50.5));
  CHECK(near(quantile(hundred, 0.99), 99.01));
  CHECK(near(quantile(hundred, 0.25), 25.75));

  // A uniform lattice on [0, 1]: every quantile equals q.
  std::vector<double> lattice;
  for (int i = 0; i <= 10000; ++i) lattice.push_back(i / 10000.0);
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    CHECK(near(quantile(lattice, q), q, 1e-12));
  }

  // Exponential quantiles, -ln(1-q), from its exact inverse-CDF lattice.
  std::vector<double> expo;
  const int n = 100001;
  for (int i = 0; i < n; ++i) expo.push_back(-std::log1p(-(i + 0.5) / n));
  CHECK(near(quantile(expo, 0.5), std::log(2.0), 1e-4));
  CHECK(near(quantile(expo, 0.99), std::log(100.0), 1e-3));

  // A tight cluster a binned histogram would smear over one bin.
  std::vector<double> cluster(999, 0.053);
  cluster.push_back(5.0);
  CHECK(near(quantile(cluster, 0.5), 0.053));
  CHECK(quantile(cluster, 0.99) < 0.06);

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  CHECK(perfbench::samples_beyond(thousand, 0.99) == 10);
  CHECK(near(perfbench::tail_quantile(1000), 0.99));
  CHECK(near(perfbench::tail_quantile(5000), 0.99));
  CHECK(near(perfbench::tail_quantile(100), 0.9));
  CHECK(near(perfbench::tail_quantile(20), 0.5));
  CHECK(perfbench::samples_beyond(thousand, perfbench::tail_quantile(1000)) >= 10);
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));

  bool threw = false;
  try {
    (void)quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_self_times() {
  using perfbench::trace::Span;
  const auto span = [](std::uint64_t id, std::uint64_t parent, std::int64_t a,
                       std::int64_t b) {
    Span s;
    s.name = "x";
    s.id = id;
    s.parent = parent;
    s.start_ns = a;
    s.end_ns = b;
    return s;
  };
  const std::vector<Span> spans = {
      span(1, 0, 0, 100),   // root
      span(2, 1, 10, 30),   // overlapping children: union [10, 50]
      span(3, 1, 20, 50),
      span(4, 1, 60, 70),   // disjoint child
      span(5, 1, 90, 120),  // clipped to [90, 100]
      span(6, 2, 12, 18),   // grandchild: covers 2, not 1
      span(7, 99, 0, 5),    // unknown parent: a root
  };
  const std::vector<std::int64_t> self = perfbench::trace::self_times(spans);
  CHECK(self[0] == 100 - (40 + 10 + 10));
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[6] == 5);
  for (const std::int64_t s : self) CHECK(s >= 0);
}

void test_closed_loop() {
  {
    vds::serve::ServerOptions options;
    options.threads = 1;
    vds::serve::Server server(options);
    const perfbench::ClientRun run =
        perfbench::serve_client(server, 5, 0, 0, 12, 0, true, 0);
    CHECK(run.submitted == 12);
    CHECK(run.lines == 12);
    CHECK(!run.stalled);
    CHECK(std::all_of(run.samples.begin(), run.samples.end(),
                      [](const perfbench::ServeSample& s) { return s.ok; }));
    const perfbench::ServeCheck check = perfbench::check_serve(5, run.samples);
    CHECK(check.mismatched == 0);
    // A response whose bytes differ from the reference is caught.
    std::vector<perfbench::ServeSample> tampered = run.samples;
    tampered[1].line_hash ^= 1;
    CHECK(perfbench::check_serve(5, tampered).mismatched == 1);
  }
  {
    // Admission bound 0 rejects every request: each still gets exactly
    // one line, and each counts as failed.
    vds::serve::ServerOptions options;
    options.threads = 1;
    options.queue_limit = 0;
    vds::serve::Server server(options);
    const perfbench::ClientRun run =
        perfbench::serve_client(server, 5, 1, 0, 4, 0, true, 0);
    CHECK(run.submitted == 4);
    CHECK(run.lines == 4);
    CHECK(std::none_of(run.samples.begin(), run.samples.end(),
                       [](const perfbench::ServeSample& s) { return s.ok; }));
  }
}

perfbench::RunContext smoke_context(const std::string& workdir, bool traced,
                                    perfbench::EngineTallies* tallies) {
  perfbench::RunContext ctx;
  ctx.seed = 11;
  ctx.workdir = workdir;
  ctx.budget = {0.0, 1, false};
  ctx.traced = traced;
  ctx.tallies = tallies;
  return ctx;
}

void check_clean(const perfbench::WorkloadRun& run, const char* name) {
  if (!run.outcome.correct || run.outcome.failed != 0 ||
      run.outcome.attempted == 0 || run.metrics.size() != 7) {
    std::fprintf(stderr, "smoke %s: correct=%d attempted=%llu failed=%llu metrics=%zu\n",
                 name, run.outcome.correct,
                 static_cast<unsigned long long>(run.outcome.attempted),
                 static_cast<unsigned long long>(run.outcome.failed),
                 run.metrics.size());
    ++failures;
  }
  for (const perfbench::Metric& metric : run.metrics) {
    CHECK(std::isfinite(metric.value) && metric.value > 0.0);
  }
}

void test_smoke(const std::string& workdir) {
  check_clean(perfbench::run_grid(smoke_context(workdir, false, nullptr), 20), "grid");
  check_clean(perfbench::run_long_sparse(smoke_context(workdir, false, nullptr), 1, 400),
              "long_sparse");
  perfbench::RunContext serve_ctx = smoke_context(workdir, false, nullptr);
  serve_ctx.budget = {0.0, 40, true};
  check_clean(perfbench::run_serve_mix(serve_ctx), "serve_mix");
  check_clean(perfbench::run_fabric_grid(smoke_context(workdir, false, nullptr), 20),
              "fabric_grid");
}

void test_pinned() {
  // Every workload's outputs at the pinned seed match the recorded digests.
  for (const char* name : perfbench::kWorkloads) {
    perfbench::Outcome outcome;
    perfbench::check_pinned(name, outcome);
    CHECK(outcome.correct && outcome.failed == 0);
  }
}

void test_traced_fidelity(const std::string& workdir) {
  // Traced runs must reproduce the untraced digests (checked inside each
  // run against the plain-runner reference) and give identical counts.
  std::vector<std::vector<std::uint64_t>> counts;
  for (int repeat = 0; repeat < 2; ++repeat) {
    perfbench::EngineTallies tallies;
    perfbench::trace::reset();
    const perfbench::WorkloadRun run =
        perfbench::run_long_sparse(smoke_context(workdir, true, &tallies), 1, 400);
    check_clean(run, "traced long_sparse");
    std::vector<std::uint64_t> row;
    for (const perfbench::EngineTally& t : tallies) {
      CHECK(t.cells.load() == 10);  // 2 kinds x 5 rounds x 1 replica
      row.insert(row.end(), {t.cells.load(), t.rounds.load(), t.comparisons.load(),
                             t.checkpoints.load(), t.rollbacks.load()});
    }
    counts.push_back(row);
  }
  CHECK(counts[0] == counts[1]);

  perfbench::EngineTallies tallies;
  perfbench::trace::reset();
  const perfbench::WorkloadRun grid =
      perfbench::run_grid(smoke_context(workdir, true, &tallies), 10);
  check_clean(grid, "traced grid");
  const auto spans = perfbench::trace::collect();
  const std::size_t cells = 4 * 5 * 10;
  CHECK(tallies[0].cells.load() == cells);
  std::size_t runs = 0;
  std::size_t cell_spans = 0;
  for (const auto& span : spans) {
    if (std::string(span.name) == "engine.run") ++runs;
    if (std::string(span.name) == "cell") {
      ++cell_spans;
      CHECK(span.parent == grid.campaigns.front().span);
    }
  }
  CHECK(runs == cells);
  CHECK(cell_spans == cells);
}

}  // namespace

int main() {
  const std::string workdir =
      ".bench_build/selftest-" + std::to_string(::getpid());
  std::filesystem::create_directories(workdir);
  test_quantiles();
  test_self_times();
  test_closed_loop();
  test_smoke(workdir);
  test_pinned();
  test_traced_fidelity(workdir);
  std::filesystem::remove_all(workdir);
  if (failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench selftest: %d check(s) failed\n", failures);
  return 1;
}
