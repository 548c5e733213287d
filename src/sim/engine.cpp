#include "sim/engine.hpp"

#include <utility>

namespace stellar::sim {

SimEngine::SimEngine(EngineOptions options) : arena_(options.arenaBytes) {}

void SimEngine::pushEvent(SimTime at, Callback cb) {
  if (at < now_) {
    at = now_;
  }
  queue_.push(Event{at, nextSeq_++, std::move(cb)});
}

void SimEngine::scheduleAt(SimTime at, Callback cb) {
  pushEvent(at, std::move(cb));
}

void SimEngine::scheduleAfter(SimTime delay, Callback cb) {
  if (delay < 0.0) {
    delay = 0.0;
  }
  pushEvent(now_ + delay, std::move(cb));
}

void SimEngine::scheduleWindow(SimTime begin, SimTime end, Callback onOpen,
                               Callback onClose) {
  if (end < begin) {
    end = begin;
  }
  windows_.push_back(std::make_unique<WindowRecord>());
  WindowRecord* record = windows_.back().get();
  record->onClose = std::move(onClose);
  pushEvent(begin, Callback{arena_, [this, record, fn = std::move(onOpen)]() mutable {
              record->opened = true;
              ++openWindows_;
              if (fn) {
                fn();
              }
            }});
  pushEvent(end, Callback{arena_, [this, record] { closeWindow(*record); }});
}

void SimEngine::closeWindow(WindowRecord& record) {
  if (!record.opened || record.closed) {
    return;
  }
  record.closed = true;
  --openWindows_;
  if (record.onClose) {
    record.onClose();
  }
}

void SimEngine::cancelOpenWindows() {
  // Window creation order, so cancellation is as deterministic as the
  // close edges it replaces.
  for (const std::unique_ptr<WindowRecord>& record : windows_) {
    closeWindow(*record);
  }
}

void SimEngine::noteDispatch() {
  // Sampled dispatch telemetry: a full span per event would swamp the
  // ring (runs dispatch millions), so every kSampleEvery-th dispatch
  // emits one instant carrying queue depth and simulated clock.
  if (sampleTick_ == 0 || --sampleTick_ != 0) {
    return;
  }
  sampleTick_ = kSampleEvery;
  if (obs::tracing(tracer_)) {
    tracer_->instant("sim", "dispatch",
                     {{"events", util::Json(static_cast<std::int64_t>(processed_))},
                      {"queue_depth", util::Json(static_cast<std::int64_t>(queueDepth()))},
                      {"sim_time", util::Json(now_)}});
  }
}

void SimEngine::finishDrain(obs::Tracer::Span& span, std::uint64_t dispatched) {
  if (span.active()) {
    span.arg("events", util::Json(static_cast<std::int64_t>(dispatched)));
    span.arg("sim_time", util::Json(now_));
  }
  if (counters_ != nullptr) {
    counters_->counter("sim.events_dispatched").add(static_cast<double>(dispatched));
    counters_->counter("sim.drains").add(1.0);
  }
}

void SimEngine::dispatchNext() {
  Event event = queue_.pop();
  now_ = event.at;
  ++processed_;
  noteDispatch();
  if (event.cb) {
    event.cb();
  }
}

SimTime SimEngine::run() {
  obs::Tracer::Span span = obs::beginSpan(tracer_, "sim", "event-loop");
  const std::uint64_t before = processed_;
  while (!queue_.empty()) {
    dispatchNext();
  }
  finishDrain(span, processed_ - before);
  return now_;
}

SimTime SimEngine::runUntil(SimTime limit) {
  obs::Tracer::Span span = obs::beginSpan(tracer_, "sim", "event-loop-until");
  const std::uint64_t before = processed_;
  while (!queue_.empty() && queue_.top().at <= limit) {
    dispatchNext();
  }
  if (now_ < limit && queue_.empty()) {
    now_ = limit;
  }
  finishDrain(span, processed_ - before);
  return now_;
}

}  // namespace stellar::sim
