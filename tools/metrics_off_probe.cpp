// metrics_off_probe.cpp — compiled ONLY by tools/check_metrics_off.cmake,
// with FTCORBA_METRICS_ENABLED=0 forced on the command line. It exercises
// the whole disabled API surface; the check then asserts with nm that the
// resulting object (and the registry TU compiled the same way) contains no
// registry symbols, i.e. that OFF builds really are zero-cost.
//
// The probe function deliberately avoids the substring "metrics" in its own
// name so the nm scan cannot match the probe itself.
#include <cstdint>

#include "common/metrics.hpp"

using namespace ftcorba;

std::uint64_t probe_observability_off() {
  metrics::CounterHandle c = metrics::counter("probe_total", "h", "u", "l");
  c.add();
  c.add(5);
  metrics::GaugeHandle g = metrics::gauge("probe_depth", "h", "u", "l");
  g.add(2);
  g.set(7);
  metrics::HistogramHandle h =
      metrics::histogram("probe_ms", "h", "ms", "l", {1.0, 2.0, 5.0});
  h.observe(1.5);
  metrics::Counter tally("probe_tally_total", "h", "u", "l");
  tally.add(3);
  metrics::Gauge share("probe_share", "h", "u", "l");
  share.add(4);
  share.set(6);
  metrics::reset_all();
  return c.value() + tally.value() + static_cast<std::uint64_t>(g.value()) +
         static_cast<std::uint64_t>(share.value()) + h.count() +
         static_cast<std::uint64_t>(h.sum()) + metrics::snapshot().size() +
         metrics::render_prometheus().size() + metrics::render_json().size();
}
