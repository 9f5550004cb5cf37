// metrics.cpp — registry, snapshot and exporters. The whole TU is compiled
// out under FTMP_METRICS=OFF (see tools/check_metrics_off.cmake, which
// asserts the resulting object file defines no symbols).
#include "common/metrics.hpp"

#if FTCORBA_METRICS_ENABLED

#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace ftcorba::metrics {

namespace {

struct Instrument {
  std::string name;
  std::string help;
  std::string unit;
  std::string layer;
  Type type;
  // Exactly one is engaged, per `type`.
  std::unique_ptr<detail::CounterCell> counter;
  std::unique_ptr<detail::GaugeCell> gauge;
  std::unique_ptr<detail::HistogramCell> histogram;
};

struct Registry {
  std::mutex mu;
  // deque: stable addresses so handles survive later registrations.
  std::deque<Instrument> instruments;
  std::unordered_map<std::string, Instrument*> by_name;

  Instrument* find_or_create(std::string_view name, std::string_view help,
                             std::string_view unit, std::string_view layer,
                             Type type, std::vector<double> bounds) {
    std::lock_guard lock(mu);
    auto it = by_name.find(std::string(name));
    if (it != by_name.end()) {
      return it->second->type == type ? it->second : nullptr;
    }
    Instrument& inst = instruments.emplace_back();
    inst.name = name;
    inst.help = help;
    inst.unit = unit;
    inst.layer = layer;
    inst.type = type;
    switch (type) {
      case Type::kCounter:
        inst.counter = std::make_unique<detail::CounterCell>();
        break;
      case Type::kGauge:
        inst.gauge = std::make_unique<detail::GaugeCell>();
        break;
      case Type::kHistogram:
        inst.histogram = std::make_unique<detail::HistogramCell>(std::move(bounds));
        break;
    }
    by_name[inst.name] = &inst;
    return &inst;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

// Formats a double the way Prometheus expects: no trailing zeros, inf as +Inf.
std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

CounterHandle counter(std::string_view name, std::string_view help,
                      std::string_view unit, std::string_view layer) {
  Instrument* inst =
      registry().find_or_create(name, help, unit, layer, Type::kCounter, {});
  return CounterHandle{inst ? inst->counter.get() : nullptr};
}

GaugeHandle gauge(std::string_view name, std::string_view help,
                  std::string_view unit, std::string_view layer) {
  Instrument* inst =
      registry().find_or_create(name, help, unit, layer, Type::kGauge, {});
  return GaugeHandle{inst ? inst->gauge.get() : nullptr};
}

HistogramHandle histogram(std::string_view name, std::string_view help,
                          std::string_view unit, std::string_view layer,
                          std::vector<double> bounds) {
  Instrument* inst = registry().find_or_create(name, help, unit, layer,
                                               Type::kHistogram, std::move(bounds));
  return HistogramHandle{inst ? inst->histogram.get() : nullptr};
}

void reset_all() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (Instrument& inst : r.instruments) {
    switch (inst.type) {
      case Type::kCounter:
        inst.counter->v.store(0, std::memory_order_relaxed);
        break;
      case Type::kGauge:
        inst.gauge->v.store(0, std::memory_order_relaxed);
        break;
      case Type::kHistogram:
        for (auto& b : inst.histogram->buckets)
          b.store(0, std::memory_order_relaxed);
        inst.histogram->count.store(0, std::memory_order_relaxed);
        inst.histogram->sum.store(0.0, std::memory_order_relaxed);
        break;
    }
  }
}

std::vector<Sample> snapshot() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  std::vector<Sample> out;
  out.reserve(r.instruments.size());
  for (Instrument& inst : r.instruments) {
    Sample s;
    s.name = inst.name;
    s.help = inst.help;
    s.unit = inst.unit;
    s.layer = inst.layer;
    s.type = inst.type;
    switch (inst.type) {
      case Type::kCounter:
        s.counter = inst.counter->v.load(std::memory_order_relaxed);
        break;
      case Type::kGauge:
        s.gauge = inst.gauge->v.load(std::memory_order_relaxed);
        break;
      case Type::kHistogram: {
        detail::HistogramCell& h = *inst.histogram;
        s.bounds = h.bounds;
        s.buckets.reserve(h.buckets.size());
        for (auto& b : h.buckets)
          s.buckets.push_back(b.load(std::memory_order_relaxed));
        s.count = h.count.load(std::memory_order_relaxed);
        s.sum = h.sum.load(std::memory_order_relaxed);
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string render_prometheus() {
  std::string out;
  for (const Sample& s : snapshot()) {
    out += "# HELP " + s.name + " " + s.help + "\n";
    out += "# TYPE " + s.name + " ";
    switch (s.type) {
      case Type::kCounter:
        out += "counter\n";
        out += s.name + " " + std::to_string(s.counter) + "\n";
        break;
      case Type::kGauge:
        out += "gauge\n";
        out += s.name + " " + std::to_string(s.gauge) + "\n";
        break;
      case Type::kHistogram: {
        out += "histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cumulative += s.buckets[i];
          out += s.name + "_bucket{le=\"" + fmt_double(s.bounds[i]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += s.buckets.empty() ? 0 : s.buckets.back();
        out += s.name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
        out += s.name + "_sum " + fmt_double(s.sum) + "\n";
        out += s.name + "_count " + std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string render_json() {
  std::string out = "[";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"layer\":\"";
    append_json_escaped(out, s.layer);
    out += "\",\"unit\":\"";
    append_json_escaped(out, s.unit);
    out += "\",\"type\":\"";
    switch (s.type) {
      case Type::kCounter:
        out += "counter\",\"value\":" + std::to_string(s.counter);
        break;
      case Type::kGauge:
        out += "gauge\",\"value\":" + std::to_string(s.gauge);
        break;
      case Type::kHistogram: {
        out += "histogram\",\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + fmt_double(s.sum) + ",\"bounds\":[";
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          if (i) out += ",";
          out += fmt_double(s.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i) out += ",";
          out += std::to_string(s.buckets[i]);
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace ftcorba::metrics

#endif  // FTCORBA_METRICS_ENABLED
