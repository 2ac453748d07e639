#include "engine/query_queue.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "core/control.h"
#include "engine/split_executor.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace pathenum {

// ---------------------------------------------------------------------------
// QueryTicket
// ---------------------------------------------------------------------------

const QueryStats& QueryTicket::Wait() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "waiting on an invalid ticket");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->stats;
}

bool QueryTicket::Done() const {
  if (state_ == nullptr) return false;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

const std::string& QueryTicket::error() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->error;
}

QueryState QueryTicket::state() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->query_state;
}

void QueryTicket::Cancel() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "cancelling an invalid ticket");
  state_->cancel.Cancel();
}

uint64_t QueryTicket::snapshot_version() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  return state_->snapshot_version;
}

obs::QuerySpanData QueryTicket::span() const {
  PATHENUM_CHECK_MSG(state_ != nullptr, "querying an invalid ticket");
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->span_data;
}

// ---------------------------------------------------------------------------
// QueryQueue
// ---------------------------------------------------------------------------

QueryQueue::QueryQueue(const GraphView& view, uint32_t num_workers) {
  const uint32_t n =
      num_workers != 0 ? num_workers
                       : std::max(1u, std::thread::hardware_concurrency());
  // A mistyped worker count must fail with a diagnosable error, not an
  // attempt to spawn billions of threads.
  PATHENUM_CHECK_MSG(n <= kMaxWorkers, "implausible worker count");
  contexts_.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    contexts_.push_back(std::make_unique<QueryContext>(view));
  }
  workers_.reserve(n);
  try {
    for (uint32_t w = 0; w < n; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
  } catch (...) {
    // Spawn failed partway (resource exhaustion): stop and join what
    // started, or their joinable destructors would terminate the process.
    Shutdown();
    throw;
  }
}

QueryQueue::~QueryQueue() { Shutdown(); }

QueryTicket QueryQueue::PushLocked(Submission task) {
  task.state->snapshot_version = task.snapshot->version();
  QueryTicket ticket(task.state);
  queue_.push_back(std::move(task));
  not_empty_.notify_one();
  return ticket;
}

void QueryQueue::ShedOldestLocked() {
  Submission victim = std::move(queue_.front());
  queue_.pop_front();
  sheds_.Inc();
  QueryStats stats;
  stats.counters.cancelled = true;
  // The victim's whole life was queue wait; its span records that.
  victim.span.Mark(obs::SpanStage::kQueueWait);
  Complete(*victim.state, stats, "", QueryState::kCancelled, &victim.span);
}

bool QueryQueue::WaitForRoomLocked(std::unique_lock<std::mutex>& lock,
                                   size_t capacity) {
  not_full_.wait(lock,
                 [&] { return shutdown_ || queue_.size() < capacity; });
  return !shutdown_;
}

double QueryQueue::RetryAfterLockedMs() const {
  // Backlog clears at roughly (queued + running) / workers times the
  // typical query; before any query completed the hint is a nominal 1ms.
  const double per_query = avg_exec_ms_ > 0.0 ? avg_exec_ms_ : 1.0;
  const double backlog = static_cast<double>(queue_.size() + in_flight_);
  const double est_ms =
      per_query * (backlog + 1.0) / static_cast<double>(num_workers());
  // Round-trip through an absolute Deadline: the hint the caller receives
  // is exactly what a Deadline armed now for the backlog would report.
  return Deadline::AfterMs(est_ms).RemainingMs();
}

void QueryQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void QueryQueue::Shutdown(bool cancel_pending) {
  std::deque<Submission> orphans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // With cancel_pending the queued submissions never run: complete them
    // as kCancelled (outside the lock) so no waiter hangs on a dead queue.
    if (cancel_pending) orphans.swap(queue_);
  }
  for (Submission& task : orphans) {
    QueryStats stats;
    stats.counters.cancelled = true;
    task.span.Mark(obs::SpanStage::kQueueWait);
    Complete(*task.state, stats, "", QueryState::kCancelled, &task.span);
  }
  // Workers drain whatever remains queued (every ticket completes), then
  // exit.
  not_empty_.notify_all();
  not_full_.notify_all();
  idle_.notify_all();
  const std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void QueryQueue::WorkerLoop(uint32_t worker) {
  for (;;) {
    std::optional<Submission> task;
    PublishedPhase* help = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() || OpenSplitPhaseLocked();
      });
      if (!queue_.empty()) {
        task.emplace(std::move(queue_.front()));
        queue_.pop_front();
        ++in_flight_;
      } else if ((help = OpenSplitPhaseLocked()) != nullptr) {
        // Idle with unclaimed split units: help the split query instead of
        // parking. Registered under mutex_, so the leader retiring the
        // phase (under the same lock) waits for this helper. Queued
        // submissions take priority again on the next loop.
        ++help->helpers;
      } else if (shutdown_) {
        break;  // shutdown with a drained queue and no split work
      } else {
        // The split units that woke us ran dry between the predicate and
        // the claim (the cursor advances lock-free under the draining
        // participants) — go back to sleep, don't die.
        continue;
      }
    }
    if (help != nullptr) {
      help->phase->Drain(*contexts_[worker]);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --help->helpers;
      }
      split_helpers_done_.notify_all();
      continue;
    }
    not_full_.notify_one();
    Execute(worker, *task);
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

void QueryQueue::Execute(uint32_t worker, Submission& task) {
  const Timer exec_timer;
  // The claim ends the queue-wait stage on every path below.
  task.span.Mark(obs::SpanStage::kQueueWait);
  QueryStats stats;
  std::string error;
  QueryState state;
  // Per-query fault isolation: a failed claim or run completes this query
  // with its error and the worker moves on; the context re-arms every
  // limit per run.
  try {
    fault::Hit(fault::Site::kQueueClaim);
    if (task.opts.cancel.cancelled()) {
      // Cancelled while queued: complete without touching the sink at all.
      stats.counters.cancelled = true;
      cancelled_before_run_.Inc();
    } else {
      // The context runs on exactly the submission's snapshot; the rebind
      // is a view copy (scratch survives).
      QueryContext& ctx = *contexts_[worker];
      ctx.Rebind(*task.snapshot);
      stats = task.split
                  ? RunSplitQuery(*this, worker, task.query, *task.sink,
                                  task.opts, task.cache, task.span)
                  : ctx.RunCached(task.query, *task.sink, task.opts,
                                  task.cache, &task.span);
    }
    state = stats.counters.TerminalState();
  } catch (const std::exception& e) {
    stats = QueryStats{};
    error = e.what();
    state = FailedRunState(e);
  } catch (...) {
    // Nothing a sink or hook throws may escape the worker thread.
    stats = QueryStats{};
    error = "unknown exception";
    state = QueryState::kError;
  }
  {
    // Counted before Complete: a waiter woken by the completion must
    // already see this query in the counters.
    const double exec_ms = exec_timer.ElapsedMs();
    const std::lock_guard<std::mutex> lock(mutex_);
    executed_.Inc();
    avg_exec_ms_ =
        avg_exec_ms_ == 0.0 ? exec_ms : 0.8 * avg_exec_ms_ + 0.2 * exec_ms;
  }
  Complete(*task.state, stats, std::move(error), state, &task.span);
}

QueryQueue::PublishedPhase* QueryQueue::OpenSplitPhaseLocked() const {
  for (PublishedPhase* published : split_phases_) {
    if (published->phase->HasUnclaimedUnits()) return published;
  }
  return nullptr;
}

void QueryQueue::RecruitIdleWorkers(uint32_t leader, SplitPhase& phase) {
  // Publish, then wake parked workers: any worker idle between queue pops
  // joins the phase until its units run dry.
  PublishedPhase published{&phase};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    split_phases_.push_back(&published);
  }
  not_empty_.notify_all();
  phase.Drain(*contexts_[leader]);  // the leader participates too
  // Retire the phase so no further helper registers, then wait out the
  // ones already inside — the phase's barrier.
  std::unique_lock<std::mutex> lock(mutex_);
  std::erase(split_phases_, &published);
  split_helpers_done_.wait(lock, [&] { return published.helpers == 0; });
}

size_t QueryQueue::ScratchBytes() const {
  size_t bytes = 0;
  for (const auto& ctx : contexts_) bytes += ctx->ScratchBytes();
  return bytes;
}

void QueryQueue::Complete(QueryTicket::State& state, const QueryStats& stats,
                          std::string error, QueryState query_state,
                          obs::QuerySpan* span) {
  if (span != nullptr) span->Finish(query_state);
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.stats = stats;
    state.error = std::move(error);
    state.query_state = query_state;
    if (span != nullptr) state.span_data = span->data();
    state.done = true;
  }
  state.cv.notify_all();
}

}  // namespace pathenum
