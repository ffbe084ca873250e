#include "spans.hpp"

#include <cstring>

namespace perfbench {
namespace {

/// True for "<layer>.<op>" names.
bool is_layer_span(const char* name) { return std::strchr(name, '.') != nullptr; }

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, tracer_->now(), 0.0, tracer_->open_, id});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end = tracer_->now();
  tracer_->open_ = s.parent;
}

double Tracer::busy(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

std::map<std::string, double> Tracer::layer_self_times() const {
  // Time of each layer span covered by the nearest enclosed layer spans.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (!is_layer_span(s.name)) continue;
    int p = s.parent;
    while (p >= 0 && !is_layer_span(spans_[static_cast<std::size_t>(p)].name)) {
      p = spans_[static_cast<std::size_t>(p)].parent;
    }
    if (p >= 0) covered[static_cast<std::size_t>(p)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!is_layer_span(s.name)) continue;
    const char* dot = std::strchr(s.name, '.');
    self[std::string(s.name, dot)] += (s.end - s.start) - covered[i];
  }
  return self;
}

tp::obs::Json Tracer::to_json() const {
  auto spans = tp::obs::Json::array();
  for (const Span& s : spans_) {
    spans.push(tp::obs::Json::array()
                   .push(s.name)
                   .push(s.start)
                   .push(s.end)
                   .push(s.parent)
                   .push(s.id));
  }
  auto self = tp::obs::Json::object();
  for (const auto& [layer, t] : layer_self_times()) self.set(layer, t);
  return tp::obs::Json::object()
      .set("span_fields", tp::obs::Json::array()
                              .push("name")
                              .push("start_s")
                              .push("end_s")
                              .push("parent")
                              .push("id"))
      .set("spans", std::move(spans))
      .set("layer_self_s", std::move(self));
}

}  // namespace perfbench
