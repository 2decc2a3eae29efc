// Tests for the benchmark's measurement helpers (trace.h):
// nearest-rank percentiles, the SLO-miss rule for failed jobs, span
// parenting and self-time subtraction. Run through
// `python3 perfbench/run.py --self-test`; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestNearestRank() {
  CHECK(NearestRank({}, 50) == 0);
  CHECK(NearestRank({7}, 1) == 7);
  CHECK(NearestRank({7}, 100) == 7);
  // 1..100: the p-th percentile is exactly p.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  CHECK(NearestRank(hundred, 50) == 50);
  CHECK(NearestRank(hundred, 95) == 95);
  CHECK(NearestRank(hundred, 99) == 99);
  CHECK(NearestRank(hundred, 100) == 100);
  // Nearest rank never interpolates: rank = ceil(p/100 * n).
  CHECK(NearestRank({1, 2, 3, 4}, 50) == 2);
  CHECK(NearestRank({1, 2, 3, 4}, 51) == 3);
  CHECK(NearestRank({1, 2, 3, 4, 5}, 95) == 5);
  CHECK(Median({3, 1, 2}) == 2);
}

void TestGroupedPercentile() {
  // Too few samples for 3 groups of 200: plain nearest rank.
  std::vector<double> few(500, 1.0);
  few[0] = 9;
  CHECK(GroupedPercentile(few, 95) == NearestRank(few, 95));
  // 3 groups of 1000 for p99; a stall inflating one group's tail does
  // not move the result, while the whole-run p99 follows it.
  std::vector<double> waits(3000, 1.0);
  for (int i = 0; i < 40; ++i) waits[i * 10] = 50;  // group 0 stalls
  CHECK(NearestRank(waits, 99) == 50);
  CHECK(GroupedPercentile(waits, 99) == 1);
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 11; ++i) waits[g * 1000 + 500 + i] = 2;
  }
  CHECK(GroupedPercentile(waits, 99) == 2);
}

void TestSloAttainment() {
  CHECK(SloAttainment({}, 0.1) == 0);
  CHECK(Near(SloAttainment({{true, 0.05}, {true, 0.1}, {true, 0.2}}, 0.1),
             2.0 / 3));
  // A failed or refused job misses the SLO however fast it returned.
  CHECK(Near(SloAttainment({{true, 0.05}, {false, 0.0}}, 0.1), 0.5));
  CHECK(SloAttainment({{false, 0.01}, {false, 0.02}}, 0.1) == 0);
}

Span MakeSpan(int64_t id, int64_t parent, const char* layer, int64_t start,
              int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // root [0, 100): children [10, 30) and [20, 50) overlap -> covered 40;
  // a child running past the parent's end is clipped to it.
  std::vector<Span> spans = {
      MakeSpan(1, 0, "bench", 0, 100),
      MakeSpan(2, 1, "core", 10, 30),
      MakeSpan(3, 1, "core", 20, 50),
      MakeSpan(4, 1, "pipeline", 90, 120),
      MakeSpan(5, 3, "io", 25, 35),  // grandchild: counts against span 3
  };
  const auto self = SelfSecondsByLayer(spans);
  CHECK(Near(self.at("bench"), (100 - 40 - 10) * 1e-9));
  CHECK(Near(self.at("core"), (20 + (30 - 10)) * 1e-9));
  CHECK(Near(self.at("pipeline"), 30 * 1e-9));
  CHECK(Near(self.at("io"), 10 * 1e-9));
  // Overlapping siblings each keep their own self time, and the part of
  // a child past its parent's end stays with the child: 100 + 10 + 20.
  double sum = 0;
  for (const auto& [layer, s] : self) sum += s;
  CHECK(Near(sum, 130 * 1e-9));
}

void TestTracer() {
  Tracer off(false);
  {
    Tracer::Scope s(off, "x", "bench");
    CHECK(s.id() == 0);
  }
  CHECK(off.spans().empty());

  Tracer tracer(true);
  int64_t outer_id = 0, inner_id = 0;
  {
    Tracer::Scope outer(tracer, "outer", "bench", 7);
    outer_id = outer.id();
    {
      Tracer::Scope inner(tracer, "inner", "core", 7);
      inner_id = inner.id();
    }
    // Another thread's spans do not inherit this thread's parent.
    std::thread([&] { Tracer::Scope t(tracer, "other", "fleet"); }).join();
  }
  const std::vector<Span> spans = tracer.spans();
  CHECK(spans.size() == 3);
  for (const Span& s : spans) {
    CHECK(s.end_ns >= s.start_ns);
    if (s.id == inner_id) CHECK(s.parent == outer_id && s.run_id == 7);
    if (s.id == outer_id) CHECK(s.parent == 0);
    if (std::string(s.name) == "other") CHECK(s.parent == 0);
  }

  const char* path = "perfbench_selftest_trace.json";
  CHECK(tracer.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  CHECK(text.str().find("\"traceEvents\"") != std::string::npos);
  CHECK(text.str().find("\"name\":\"inner\",\"cat\":\"core\",\"ph\":\"X\"") !=
        std::string::npos);
  std::remove(path);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestGroupedPercentile();
  perfbench::TestSloAttainment();
  perfbench::TestSelfTime();
  perfbench::TestTracer();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
