#include "src/sim/parallel.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace nestsim {

namespace {

// Abort/checker polling stride, shared by every executor so abort latency
// and checker fail-fast behave identically; it keeps the steady-clock read
// off the per-event path.
constexpr int kAbortCheckStride = 2048;

}  // namespace

// A persistent barrier-synchronized worker pool. Windows are short (one per
// coordinator event), so threads are spawned once and handed work through a
// generation counter; Dispatch() blocks until every worker finished the job
// and rethrows the first exception a worker raised.
class DomainGroup::Pool {
 public:
  explicit Pool(int workers) : workers_(workers) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  int workers() const { return workers_; }

  // Runs fn(worker_index) on every worker and waits for all of them.
  void Dispatch(const std::function<void(int)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      done_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return done_ == workers_; });
      job_ = nullptr;
      error = error_;
      error_ = nullptr;
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  void WorkerLoop(int index) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) {
          return;
        }
        seen = generation_;
        job = job_;
      }
      try {
        (*job)(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) {
          error_ = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (++done_ == workers_) {
          done_cv_.notify_one();
        }
      }
    }
  }

  const int workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

DomainGroup::DomainGroup(int domains) {
  assert(domains >= 1);
  domains_.reserve(static_cast<size_t>(domains));
  for (int i = 0; i < domains; ++i) {
    domains_.push_back(std::make_unique<Engine>());
  }
}

DomainGroup::~DomainGroup() = default;

uint64_t DomainGroup::TotalEventsFired() const {
  uint64_t total = coordinator_.events_fired();
  for (const auto& d : domains_) {
    total += d->events_fired();
  }
  return total;
}

void DomainGroup::AdvanceAllTo(SimTime t) {
  for (auto& d : domains_) {
    if (d->Now() < t) {
      d->AdvanceTo(t);
    }
  }
  if (coordinator_.Now() < t) {
    coordinator_.AdvanceTo(t);
  }
}

void DomainGroup::EnsurePool(int workers) {
  if (pool_ == nullptr || pool_->workers() != workers) {
    pool_ = std::make_unique<Pool>(workers);
  }
}

// The serial reference executor: fires the globally earliest event across
// every queue, coordinator last at equal timestamps, replicating the
// single-shared-engine loop (liveness and time-limit checked before every
// event, abort/checker polled on a stride, one event at or past the limit
// allowed to fire).
DomainGroup::RunResult DomainGroup::RunMerged(const RunOptions& options) {
  assert(options.live && "RunOptions::live is required");
  RunResult result;
  const int n = size();
  int until_check = kAbortCheckStride;
  while (options.live() && global_now_ < options.time_limit) {
    if (--until_check <= 0) {
      until_check = kAbortCheckStride;
      if (options.should_abort && options.should_abort()) {
        result.aborted = true;
        break;
      }
      if (options.healthy && !options.healthy()) {
        break;  // fail fast; the caller raises the checker report
      }
    }
    // Earliest domain event; ties break toward the lower domain id.
    int best = -1;
    SimTime best_time = Engine::kNoEvent;
    for (int d = 0; d < n; ++d) {
      const SimTime t = domains_[static_cast<size_t>(d)]->NextEventTime();
      if (t < best_time) {
        best_time = t;
        best = d;
      }
    }
    const SimTime coord_time = coordinator_.NextEventTime();
    if (best == -1 && coord_time == Engine::kNoEvent) {
      break;  // every queue drained
    }
    if (coord_time < best_time) {
      // Cross-domain event: line every domain clock up first, exactly as the
      // shared clock stood when the router or reap ran on one engine.
      for (auto& d : domains_) {
        d->AdvanceTo(coord_time);
      }
      coordinator_.Step();
      global_now_ = coord_time;
    } else {
      domains_[static_cast<size_t>(best)]->Step();
      global_now_ = best_time;
    }
  }
  return result;
}

// The conservative windowed executor. Safe because (a) domains interact only
// through coordinator events, so the span up to the next coordinator
// timestamp is dependency-free across domains, and (b) the liveness
// predicate cannot go false inside a window — arrivals still pending on the
// coordinator keep the fleet live by definition. Remaining work (after the
// last arrival, or once the next coordinator event lies past the time
// limit) runs on the merged loop, which alone owns the per-event liveness
// and limit checks.
DomainGroup::RunResult DomainGroup::RunWindowed(const RunOptions& options) {
  RunResult result;
  const int n = size();
  std::atomic<bool> abort_flag{false};
  bool stop_unhealthy = false;
  SimTime cursor = global_now_;
  for (;;) {
    if (!options.live()) {
      break;
    }
    if (options.should_abort && options.should_abort()) {
      result.aborted = true;
      break;
    }
    if (options.healthy && !options.healthy()) {
      stop_unhealthy = true;
      break;  // skip the merged tail too: the caller raises the report
    }
    const SimTime coord_time = coordinator_.NextEventTime();
    if (coord_time >= options.time_limit) {
      break;  // endgame (including the one-past-the-limit event) is merged
    }
    SimTime window_end = coord_time;
    if (options.max_window > 0 && cursor + options.max_window < window_end) {
      window_end = cursor + options.max_window;  // heartbeat boundary
    }
    // Pump every domain through its events with t <= window_end. Each domain
    // is claimed by exactly one worker, so no engine is ever shared.
    std::atomic<int> next_domain{0};
    pool_->Dispatch([&](int) {
      int d;
      while ((d = next_domain.fetch_add(1, std::memory_order_relaxed)) < n) {
        Engine& engine = *domains_[static_cast<size_t>(d)];
        int until_check = kAbortCheckStride;
        while (engine.NextEventTime() <= window_end) {
          if (--until_check <= 0) {
            until_check = kAbortCheckStride;
            if (abort_flag.load(std::memory_order_relaxed)) {
              return;
            }
            if (options.should_abort && options.should_abort()) {
              abort_flag.store(true, std::memory_order_relaxed);
              return;
            }
          }
          engine.Step();
        }
      }
    });
    if (abort_flag.load(std::memory_order_relaxed)) {
      // Partial window: commit the farthest event actually fired, like the
      // serial loop stopping mid-stream. Aborted results are wall-clock
      // truncations either way and are never digest-compared.
      for (const auto& d : domains_) {
        global_now_ = std::max(global_now_, d->Now());
      }
      result.aborted = true;
      return result;
    }
    cursor = window_end;
    if (window_end < coord_time) {
      continue;  // heartbeat only: no clocks to commit, no event to fire
    }
    // Commit the window, then drain the instant `coord_time` in canonical
    // order. Every domain pumped through coord_time, so AdvanceTo is exact,
    // and any domain event still carrying that timestamp was spawned by a
    // coordinator event at the same instant — it must fire before the *next*
    // coordinator event there (a later arrival's router must see it), which
    // is precisely the merged loop's domains-first tie-break.
    for (auto& d : domains_) {
      d->AdvanceTo(coord_time);
    }
    coordinator_.AdvanceTo(coord_time);
    for (;;) {
      Engine* at_instant = nullptr;
      for (auto& d : domains_) {
        if (d->NextEventTime() == coord_time) {
          at_instant = d.get();
          break;
        }
      }
      if (at_instant != nullptr) {
        at_instant->Step();
        continue;
      }
      if (coordinator_.NextEventTime() == coord_time) {
        coordinator_.Step();
        continue;
      }
      break;
    }
    global_now_ = coord_time;
  }
  if (!result.aborted && !stop_unhealthy) {
    RunResult tail;
    pool_->Dispatch([&](int worker) {
      if (worker == 0) {
        tail = RunMerged(options);
      }
    });
    result = tail;
  }
  return result;
}

DomainGroup::RunResult DomainGroup::Run(const RunOptions& options) {
  assert(options.live && "RunOptions::live is required");
  if (options.workers <= 0) {
    return RunMerged(options);
  }
  if (options.lockstep || size() == 1) {
    // Zero-lookahead feedback (or a single domain, which has nothing to
    // overlap): the merged loop wholesale, on a pool thread so the
    // cross-thread handoff is still real. One thread is all it uses.
    EnsurePool(1);
    RunResult result;
    pool_->Dispatch([&](int worker) {
      if (worker == 0) {
        result = RunMerged(options);
      }
    });
    return result;
  }
  EnsurePool(options.workers);
  return RunWindowed(options);
}

}  // namespace nestsim
