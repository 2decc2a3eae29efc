#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// Per-thread stack of open span ids (parent inference) and a small
// stable thread number for the trace viewer.
thread_local std::vector<int64_t> t_open_stack;

int ThreadNumber() {
  static std::mutex mu;
  static int next = 0;
  thread_local int number = -1;
  if (number < 0) {
    std::lock_guard<std::mutex> lock(mu);
    number = next++;
  }
  return number;
}

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NearestRank(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // rank = ceil(pct/100 * n), 1-based, clamped to [1, n].
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::max<size_t>(1, std::min(rank, values.size()));
  return values[rank - 1];
}

double GroupedPercentile(const std::vector<double>& values, double pct) {
  const size_t group =
      static_cast<size_t>(std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-9));
  if (pct >= 100 || values.size() < 3 * group) {
    return NearestRank(values, pct);
  }
  std::vector<double> tails;
  for (size_t i = 0; i + group <= values.size(); i += group) {
    tails.push_back(NearestRank(
        std::vector<double>(values.begin() + i, values.begin() + i + group),
        pct));
  }
  return Median(std::move(tails));
}

double SloAttainment(const std::vector<JobOutcome>& jobs, double slo_s) {
  if (jobs.empty()) return 0;
  size_t met = 0;
  for (const JobOutcome& job : jobs) {
    if (job.ok && job.latency_s <= slo_s) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(jobs.size());
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> kids = it->second;
      for (auto& k : kids) {
        k.first = std::max(k.first, s.start_ns);
        k.second = std::min(k.second, s.end_ns);
      }
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0, run_end = 0;
      bool open = false;
      for (const auto& k : kids) {
        if (k.second <= k.first) continue;
        if (open && k.first <= run_end) {
          run_end = std::max(run_end, k.second);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = k.first;
        run_end = k.second;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    self[s.layer] += (s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

int64_t Tracer::Begin(const char* name, const char* layer, int run_id) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  span.run_id = run_id;
  span.tid = ThreadNumber();
  span.start_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back(span);
  }
  t_open_stack.push_back(span.id);
  return span.id;
}

void Tracer::End(int64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }
  auto pos = std::find(t_open_stack.rbegin(), t_open_stack.rend(), id);
  if (pos != t_open_stack.rend()) t_open_stack.erase(std::next(pos).base());
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> closed;
  closed.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (s.end_ns != 0) closed.push_back(s);
  }
  return closed;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::string line;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    line = "{\"name\":\"";
    AppendEscaped(&line, s.name);
    line += "\",\"cat\":\"";
    AppendEscaped(&line, s.layer);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                  "\"run\":%d}}%s\n",
                  s.tid, (s.start_ns - origin) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.run_id,
                  i + 1 < all.size() ? "," : "");
    line += buf;
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
