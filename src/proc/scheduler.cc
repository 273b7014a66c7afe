#include "src/proc/scheduler.h"

#include <algorithm>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/behavior.h"
#include "src/proc/process.h"
#include "src/trace/trace.h"
#include "src/trace/tracer.h"

namespace ice {

Scheduler::Scheduler(Engine& engine, MemoryManager& mm, int num_cores)
    : engine_(engine), mm_(mm), num_cores_(num_cores) {
  ICE_CHECK_GT(num_cores, 0);
  engine_.AddTicker(this);
}

Scheduler::~Scheduler() {
  engine_.RemoveTicker(this);
  // Unlink every queued task before the unique_ptrs release them (ListNode
  // asserts it is unlinked at destruction).
  run_queue_.Clear();
}

Task* Scheduler::CreateTask(std::string name, Process* process, int nice,
                            std::unique_ptr<Behavior> behavior) {
  auto task = std::make_unique<Task>(*this, std::move(name), process, nice, std::move(behavior));
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  live_tasks_.push_back(raw);
  raw->set_trace_id(++task_seq_);
#ifndef ICE_TRACE_DISABLED
  if (Tracer* tracer = engine_.tracer()) {
    tracer->RegisterTaskName(raw->trace_id(), raw->name());
  }
#endif
  if (process != nullptr) {
    process->AddTask(raw);
  }
  // New tasks start runnable at the current fairness floor.
  raw->SetVruntime(min_vruntime_us_);
  run_queue_.PushBack(raw);
  return raw;
}

void Scheduler::OnTaskRunnable(Task* task) {
  using RunQueue = IntrusiveList<Task, RunQueueTag>;
  ICE_CHECK(!RunQueue::IsLinked(task));
  // Waking tasks are placed at the fairness floor so long sleepers cannot
  // monopolize the CPU (min_vruntime normalization).
  if (task->vruntime_us() < min_vruntime_us_) {
    task->SetVruntime(min_vruntime_us_);
  }
  run_queue_.PushBack(task);
}

void Scheduler::OnTaskNotRunnable(Task* task) {
  using RunQueue = IntrusiveList<Task, RunQueueTag>;
  if (RunQueue::IsLinked(task)) {
    run_queue_.Remove(task);
  }
}

void Scheduler::OnTaskDead(Task* task) {
  live_tasks_.erase(std::remove(live_tasks_.begin(), live_tasks_.end(), task),
                    live_tasks_.end());
}

SimTime Scheduler::NextWorkAt(SimTime now) {
  if (!run_queue_.empty()) {
    return now;
  }
#ifndef ICE_TRACE_DISABLED
  if (engine_.tracer() != nullptr) {
    // A core still shows a (stale) occupant: the next Tick emits its
    // switch-to-idle sched event, so that tick cannot be skipped.
    for (const Task* t : core_last_) {
      if (t != nullptr) {
        return now;
      }
    }
  }
#endif
  return kTickerIdle;
}

void Scheduler::OnTicksSkipped(SimTime first_skipped, uint64_t count) {
  const SimDuration quantum = Engine::kTick;
  const uint64_t cap_per_tick = static_cast<uint64_t>(num_cores_) * quantum;
  SimTime t = first_skipped;
  uint64_t remaining = count;
  while (remaining > 0) {
    // First skipped tick at which the per-second sampler would have fired
    // (Tick samples when t + quantum >= next_second_boundary_).
    SimTime threshold = next_second_boundary_ - quantum;
    uint64_t until_sample = threshold > t ? (threshold - t + quantum - 1) / quantum : 0;
    uint64_t chunk = std::min(remaining, until_sample + 1);
    capacity_us_ += chunk * cap_per_tick;
    second_capacity_us_ += chunk * cap_per_tick;
    t += chunk * quantum;
    remaining -= chunk;
    if (chunk == until_sample + 1) {
      per_second_.push_back(second_capacity_us_ == 0
                                ? 0.0
                                : static_cast<double>(second_busy_us_) / second_capacity_us_);
      second_busy_us_ = 0;
      second_capacity_us_ = 0;
      next_second_boundary_ += kSecond;
    }
  }
}

void Scheduler::SaveTo(BinaryWriter& w) const {
  w.U64(busy_us_);
  w.U64(capacity_us_);
  w.U64(second_busy_us_);
  w.U64(second_capacity_us_);
  w.U64(next_second_boundary_);
  w.U64(min_vruntime_us_);
  w.U64(task_seq_);
  w.U64(per_second_.size());
  for (double v : per_second_) {
    w.F64(v);
  }
  w.U64(tasks_.size());
  for (const auto& t : tasks_) {
    t->SaveTo(w);
  }
  // Run-queue ORDER matters: Tick's std::partial_sort is unstable, so the
  // queue ordering at the snapshot point is part of the deterministic state.
  w.U64(run_queue_.size());
  for (const Task* t : const_cast<IntrusiveList<Task, RunQueueTag>&>(run_queue_)) {
    w.U64(t->trace_id());
  }
  w.U64(core_last_.size());
  for (const Task* t : core_last_) {
    w.U64(t != nullptr ? t->trace_id() : 0);
  }
}

void Scheduler::RestoreFrom(BinaryReader& r) {
  busy_us_ = r.U64();
  capacity_us_ = r.U64();
  second_busy_us_ = r.U64();
  second_capacity_us_ = r.U64();
  next_second_boundary_ = r.U64();
  min_vruntime_us_ = r.U64();
  uint64_t task_seq = r.U64();
  ICE_CHECK_EQ(task_seq, task_seq_) << "structural replay diverged (task count)";
  per_second_.clear();
  uint64_t samples = r.U64();
  per_second_.reserve(samples);
  for (uint64_t i = 0; i < samples; ++i) {
    per_second_.push_back(r.F64());
  }
  uint64_t task_count = r.U64();
  ICE_CHECK_EQ(task_count, tasks_.size()) << "structural replay diverged (tasks)";
  // Empty the run queue before tasks set their states directly; membership is
  // rebuilt below in the serialized order.
  run_queue_.Clear();
  for (auto& t : tasks_) {
    t->RestoreFrom(r);
  }
  uint64_t queued = r.U64();
  for (uint64_t i = 0; i < queued; ++i) {
    uint64_t trace_id = r.U64();
    ICE_CHECK_GE(trace_id, 1u);
    ICE_CHECK_LE(trace_id, tasks_.size());
    Task* t = tasks_[trace_id - 1].get();
    ICE_CHECK(t->state() == TaskState::kRunnable);
    run_queue_.PushBack(t);
  }
  core_last_.clear();
  uint64_t cores = r.U64();
  for (uint64_t i = 0; i < cores; ++i) {
    uint64_t trace_id = r.U64();
    ICE_CHECK_LE(trace_id, tasks_.size());
    core_last_.push_back(trace_id == 0 ? nullptr : tasks_[trace_id - 1].get());
  }
}

void Scheduler::Tick(SimTime now) {
  const SimDuration quantum = Engine::kTick;
  capacity_us_ += static_cast<uint64_t>(num_cores_) * quantum;
  second_capacity_us_ += static_cast<uint64_t>(num_cores_) * quantum;

#ifndef ICE_TRACE_DISABLED
  Tracer* tracer = engine_.tracer();
  if (tracer != nullptr) {
    core_occupants_.assign(static_cast<size_t>(num_cores_), nullptr);
  }
#endif

  if (!run_queue_.empty()) {
    // Select up to num_cores tasks. Tasks repaying debt (mid non-preemptive
    // section) keep their cores; the rest are picked by minimum vruntime.
    candidates_.clear();
    candidates_.reserve(run_queue_.size());
    uint64_t min_vr = UINT64_MAX;
    for (Task* t : run_queue_) {
      candidates_.push_back(t);
      min_vr = std::min(min_vr, t->vruntime_us());
    }
    if (min_vr != UINT64_MAX) {
      min_vruntime_us_ = std::max(min_vruntime_us_, min_vr);
    }
    size_t slots = std::min(candidates_.size(), static_cast<size_t>(num_cores_));
    std::partial_sort(candidates_.begin(), candidates_.begin() + slots, candidates_.end(),
                      [](const Task* a, const Task* b) {
                        bool a_debt = a->debt_us() > 0;
                        bool b_debt = b->debt_us() > 0;
                        if (a_debt != b_debt) {
                          return a_debt;
                        }
                        return a->vruntime_us() < b->vruntime_us();
                      });

    for (size_t i = 0; i < slots; ++i) {
      Task* task = candidates_[i];
      if (task->state() != TaskState::kRunnable) {
        continue;  // Frozen/killed by an earlier task this tick.
      }
#ifndef ICE_TRACE_DISABLED
      if (tracer != nullptr) {
        core_occupants_[i] = task;
      }
#endif
      SimDuration budget = quantum;
      SimDuration busy = 0;

      if (task->debt_us() > 0) {
        SimDuration pay = std::min(task->debt_us(), budget);
        task->PayDebt(pay);
        budget -= pay;
        busy += pay;  // CPU time & vruntime were charged when the debt arose.
      }

      if (budget > 0 && task->debt_us() == 0 && task->state() == TaskState::kRunnable) {
        TaskContext ctx(*task, *this, budget);
        task->set_on_cpu(true);
        task->behavior().Run(ctx);
        task->set_on_cpu(false);
        task->CommitPendingFreeze();
        SimDuration used = ctx.used();
        task->ChargeCpu(used);
        task->AddVruntime(used);
        if (used > budget) {
          task->AddDebt(used - budget);
          busy += budget;
        } else {
          busy += used;
        }
      }

      busy_us_ += busy;
      second_busy_us_ += busy;
    }
  }

#ifndef ICE_TRACE_DISABLED
  // One sched_switch per core whose occupant changed this quantum (trace id
  // 0 = idle). Graveyarded tasks are never deallocated mid-simulation, so
  // the stale pointers in core_last_ are safe to compare against.
  if (tracer != nullptr) {
    if (core_last_.size() != static_cast<size_t>(num_cores_)) {
      core_last_.assign(static_cast<size_t>(num_cores_), nullptr);
    }
    for (int i = 0; i < num_cores_; ++i) {
      const Task* occ = core_occupants_[i];
      if (occ == core_last_[i]) {
        continue;
      }
      core_last_[i] = occ;
      int pid = (occ != nullptr && occ->process() != nullptr) ? occ->process()->pid() : -1;
      ICE_TRACE(engine_, TraceEventType::kSchedSwitch,
                {.pid = pid, .core = i, .arg0 = occ != nullptr ? occ->trace_id() : 0});
    }
  }
#endif

  // Per-second utilization sampling for Table-1 style peak/average figures.
  if (now + quantum >= next_second_boundary_) {
    per_second_.push_back(second_capacity_us_ == 0
                              ? 0.0
                              : static_cast<double>(second_busy_us_) / second_capacity_us_);
    second_busy_us_ = 0;
    second_capacity_us_ = 0;
    next_second_boundary_ += kSecond;
  }
}

}  // namespace ice
