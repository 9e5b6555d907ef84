// Umbrella header for the telemetry subsystem, plus ScopedSpan — the one
// primitive protocol code uses to instrument a stage.
//
// Instrumentation contract:
//   * every engine takes an optional `obs::Registry*` (via ProtocolConfig or
//     a setter); nullptr means telemetry is off and costs one branch;
//   * building with -DGRAPHENE_OBS=OFF (GRAPHENE_OBS_ENABLED=0) compiles the
//     instrumentation bodies out entirely, for overhead-proof builds;
//   * each protocol stage opens a ScopedSpan which (a) appends a TraceSpan
//     to the registry's TraceSink and (b) feeds the `graphene_stage_ns`
//     histogram family labeled by stage.
//
// Stage names emitted by the block-relay pipeline, in protocol order. The
// block-relay adapters (Sender, ReceiveSession) record them around the
// Graphene engine's steps; the engine itself and the reconcile backends
// record no spans.
//   p1_optimize, sfilter_build, iblt_build   (Sender::encode)
//   p1_candidates, p1_peel                   (ReceiveSession::receive_block)
//   thm_bounds, rfilter_build                (ReceiveSession::build_request)
//   p2_serve, p2_fallback                    (Sender::serve)
//   repair_serve                             (Sender::serve_repair)
//   p2_peel, pingpong                        (ReceiveSession::complete)
//   repair                                   (ReceiveSession::complete_repair)
//   error                                    (diagnostic context on throws)
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace graphene::obs {

#if GRAPHENE_OBS_ENABLED

/// RAII protocol-stage recorder. With a null registry every member is a
/// cheap early-out; with GRAPHENE_OBS_ENABLED=0 the class itself becomes an
/// empty shell (below) and the optimizer deletes the call sites.
class ScopedSpan {
 public:
  ScopedSpan(Registry* reg, std::string_view stage) : reg_(reg) {
    if (reg_ == nullptr) return;
    span_.stage = stage;
    span_.start_ns = monotonic_ns();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric attribute (sizing input, outcome, byte count).
  template <typename T>
  void attr(std::string_view key, T value) {
    if (reg_ == nullptr) return;
    span_.attrs.emplace_back(std::string(key), static_cast<double>(value));
  }

  [[nodiscard]] bool enabled() const noexcept { return reg_ != nullptr; }
  [[nodiscard]] Registry* registry() const noexcept { return reg_; }

  ~ScopedSpan() {
    if (reg_ == nullptr) return;
    span_.dur_ns = monotonic_ns() - span_.start_ns;
    reg_->histogram("graphene_stage_ns", {{"stage", span_.stage}})
        .observe(span_.dur_ns);
    reg_->trace().record(std::move(span_));
  }

 private:
  Registry* reg_;
  TraceSpan span_;
};

#else  // GRAPHENE_OBS_ENABLED == 0: instrumentation compiles to nothing.

class ScopedSpan {
 public:
  ScopedSpan(Registry*, std::string_view) noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  template <typename T>
  void attr(std::string_view, T) noexcept {}
  [[nodiscard]] bool enabled() const noexcept { return false; }
  [[nodiscard]] Registry* registry() const noexcept { return nullptr; }
};

#endif  // GRAPHENE_OBS_ENABLED

/// Gate for manual instrumentation blocks: returns the registry when
/// telemetry is compiled in, a constant nullptr (letting the optimizer drop
/// the block) when it is not. Call sites write
///   if (obs::Registry* reg = obs::enabled(cfg.obs)) { ... }
[[nodiscard]] inline Registry* enabled(Registry* reg) noexcept {
#if GRAPHENE_OBS_ENABLED
  return reg;
#else
  (void)reg;
  return nullptr;
#endif
}

/// Gate for flight-event blocks: the registry's recorder when telemetry is
/// compiled in and the recorder is runtime-enabled, else a constant nullptr
/// so the optimizer drops the block (including any msg.serialize() cost).
/// Call sites write
///   if (obs::FlightRecorder* fr = obs::flight(reg)) { ... fr->record(...); }
[[nodiscard]] inline FlightRecorder* flight(Registry* reg) {
#if GRAPHENE_OBS_ENABLED
  if (reg == nullptr) return nullptr;
  FlightRecorder& rec = reg->recorder();
  return rec.enabled() ? &rec : nullptr;
#else
  (void)reg;
  return nullptr;
#endif
}

/// Appends one flight event with numeric attributes when a recorder is
/// attached (see flight()); a no-op otherwise.
inline void record(Registry* reg, FlightEventKind kind, std::string_view label,
                   std::initializer_list<std::pair<const char*, double>> attrs) {
  FlightRecorder* fr = flight(reg);
  if (fr == nullptr) return;
  FlightEvent e;
  e.kind = kind;
  e.label = label;
  e.attrs.reserve(attrs.size());
  for (const auto& [k, v] : attrs) e.attrs.emplace_back(k, v);
  fr->record(std::move(e));
}

/// record() for a message event: `msg`'s serialized bytes ride along while
/// the recorder's wire capture is on, so a failed session can be replayed.
template <typename Msg>
void record_msg(Registry* reg, FlightEventKind kind, std::string_view label, const Msg& msg,
                std::initializer_list<std::pair<const char*, double>> attrs) {
  FlightRecorder* fr = flight(reg);
  if (fr == nullptr) return;
  FlightEvent e;
  e.kind = kind;
  e.label = label;
  if (fr->wire_capture()) e.wire = msg.serialize();
  e.attrs.reserve(attrs.size());
  for (const auto& [k, v] : attrs) e.attrs.emplace_back(k, v);
  fr->record(std::move(e));
}

}  // namespace graphene::obs

