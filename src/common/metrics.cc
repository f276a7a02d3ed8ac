#include "common/metrics.h"

#include <algorithm>
#include <sstream>

namespace zidian {

namespace {

bool IsZero(uint64_t v) { return v == 0; }
bool IsZero(double v) { return v == 0; }
bool IsZero(const std::vector<uint64_t>& v) {
  return std::all_of(v.begin(), v.end(), [](uint64_t x) { return x == 0; });
}

void Print(std::ostream& os, uint64_t v) { os << v; }
void Print(std::ostream& os, double v) { os << v; }
void Print(std::ostream& os, const std::vector<uint64_t>& v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) os << (i == 0 ? "" : " ") << v[i];
  os << ']';
}

bool SameValue(uint64_t a, uint64_t b) { return a == b; }
bool SameValue(double a, double b) { return a == b; }
/// Per-node vectors compare with zero-padding: a run that never resized
/// the histogram did the same logical work as one holding all-zero slots.
bool SameValue(const std::vector<uint64_t>& a,
               const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t va = i < a.size() ? a[i] : 0;
    uint64_t vb = i < b.size() ? b[i] : 0;
    if (va != vb) return false;
  }
  return true;
}

}  // namespace

std::string QueryMetrics::ToString() const {
  std::ostringstream os;
#define ZIDIAN_METRIC_PRINT(name, kind, parity) \
  if (!IsZero(name)) {                          \
    os << #name "=";                            \
    Print(os, name);                            \
    os << ' ';                                  \
  }
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_PRINT)
#undef ZIDIAN_METRIC_PRINT
  os << "comm=" << CommBytes();
  return os.str();
}

bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b) {
#define ZIDIAN_METRIC_EQUAL(name, kind, parity)                     \
  if constexpr (MetricParity::parity == MetricParity::kCompared) { \
    if (!SameValue(a.name, b.name)) return false;                  \
  }
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRIC_EQUAL)
#undef ZIDIAN_METRIC_EQUAL
  return true;
}

}  // namespace zidian
