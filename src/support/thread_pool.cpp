#include "support/thread_pool.h"

#include <system_error>

#include "support/fault_injection.h"

namespace mira {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
    stop_ = true;
  }
  wake_.notify_all();
  for (auto &worker : workers_)
    worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Workers start before the task is queued: when one cannot start,
    // the exception leaves with the task, so nothing waits in the queue
    // for a worker that never came.
    if (workers_.size() < threads_) {
      workers_.reserve(threads_);
      while (workers_.size() < threads_) {
        // Injection point: a thread the system refuses to create.
        if (fault::shouldFail("thread-start"))
          throw std::system_error(
              std::make_error_code(std::errc::resource_unavailable_try_again),
              "injected thread-start fault");
        workers_.emplace_back([this] { workerLoop(); });
      }
    }
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

std::size_t ThreadPool::startedThreads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::setExceptionHandler(std::function<void()> handler) {
  onTaskException_ = std::move(handler);
}

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

std::size_t ThreadPool::defaultThreadCount() {
  // Asked once per process: glibc answers hardware_concurrency by reading
  // a /sys file, and every BatchOptions default-constructs through here.
  static const std::size_t count = [] {
    const std::size_t n = std::thread::hardware_concurrency();
    return n == 0 ? std::size_t{4} : n;
  }();
  return count;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty())
        return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    try {
      task();
    } catch (...) {
      // Contain at the pool boundary: an exception escaping here would
      // unwind the worker's top frame and std::terminate the process
      // (in the daemon: one bad request killing the server). The task's
      // submitter observes failure through whatever the capture carries
      // (a promise, an error slot); the pool just counts and reports.
      exceptions_.fetch_add(1, std::memory_order_relaxed);
      if (onTaskException_)
        onTaskException_();
    }
    // Destroy captured state before reporting idle: waitIdle() returning
    // must mean no task-owned object (sessions, sockets, promises) is
    // still alive on a worker, or callers could tear down shared state
    // the capture's destructor touches.
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0)
        idle_.notify_all();
    }
  }
}

} // namespace mira
