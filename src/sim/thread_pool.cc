#include "sim/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace smartref {

namespace {

/** Identifies the pool (and worker slot) the current thread belongs to. */
thread_local ThreadPool *tlsPool = nullptr;
thread_local unsigned tlsWorker = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

bool
ThreadPool::onWorkerThread() const
{
    return tlsPool == this;
}

void
ThreadPool::submit(std::function<void()> task)
{
    SMARTREF_ASSERT(task != nullptr, "null task submitted");
    enqueue(std::move(task));
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    // Count before publishing: a task can only be popped (and queued_
    // decremented) after the push below, so queued_ never underflows.
    // A worker woken in the window before the push just retries.
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++queued_;
        ++pending_;
        SMARTREF_METRIC_SET("thread_pool.queue_depth", queued_);
    }
    if (tlsPool == this) {
        // Nested submit: LIFO on the submitting worker's own deque.
        Worker &w = *workers_[tlsWorker];
        std::lock_guard<std::mutex> wlk(w.mu);
        w.deque.push_back(std::move(task));
    } else {
        std::lock_guard<std::mutex> lk(mu_);
        external_.push_back(std::move(task));
    }
    workCv_.notify_one();
}

bool
ThreadPool::tryGetTask(unsigned id, std::function<void()> &out)
{
    enum class Source { None, Local, External, Steal };
    Source src = Source::None;
    {
        // Own deque first, newest task (LIFO): nested children run
        // before the worker picks up unrelated work.
        Worker &w = *workers_[id];
        std::lock_guard<std::mutex> wlk(w.mu);
        if (!w.deque.empty()) {
            out = std::move(w.deque.back());
            w.deque.pop_back();
            src = Source::Local;
        }
    }
    if (src == Source::None) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!external_.empty()) {
            out = std::move(external_.front());
            external_.pop_front();
            src = Source::External;
        }
    }
    if (src == Source::None) {
        // Steal the *oldest* task of another worker (FIFO side).
        const std::size_t n = workers_.size();
        for (std::size_t k = 1; k < n && src == Source::None; ++k) {
            Worker &victim = *workers_[(id + k) % n];
            std::lock_guard<std::mutex> vlk(victim.mu);
            if (!victim.deque.empty()) {
                out = std::move(victim.deque.front());
                victim.deque.pop_front();
                src = Source::Steal;
            }
        }
    }
    if (src != Source::None) {
        std::lock_guard<std::mutex> lk(mu_);
        --queued_;
        SMARTREF_METRIC_SET("thread_pool.queue_depth", queued_);
        switch (src) {
          case Source::Local:
            ++stats_.localPops;
            SMARTREF_METRIC_INC("thread_pool.local_pops");
            break;
          case Source::External:
            ++stats_.externalPops;
            SMARTREF_METRIC_INC("thread_pool.external_pops");
            break;
          case Source::Steal:
            ++stats_.steals;
            SMARTREF_METRIC_INC("thread_pool.steals");
            break;
          case Source::None: break;
        }
    }
    return src != Source::None;
}

void
ThreadPool::workerLoop(unsigned id)
{
    tlsPool = this;
    tlsWorker = id;
    for (;;) {
        std::function<void()> task;
        if (tryGetTask(id, task)) {
            const auto t0 = std::chrono::steady_clock::now();
            task();
            const auto busy =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            SMARTREF_METRIC_INC("thread_pool.tasks_executed");
            SMARTREF_METRIC_ADD("thread_pool.busy_ns", busy);
            std::lock_guard<std::mutex> lk(mu_);
            --pending_;
            if (pending_ == 0)
                idleCv_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lk(mu_);
        // queued_ > 0 with empty deques is a transient (another worker
        // popped but has not decremented yet); the retry loop absorbs it.
        if (!stop_ && queued_ == 0) {
            ++stats_.idleWaits;
            SMARTREF_METRIC_INC("thread_pool.idle_waits");
        }
        workCv_.wait(lk, [this] { return stop_ || queued_ > 0; });
        if (stop_ && queued_ == 0)
            return;
    }
}

ThreadPool::Stats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void
ThreadPool::waitIdle()
{
    SMARTREF_ASSERT(!onWorkerThread(),
                    "waitIdle() called from inside a pool task");
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [this] { return pending_ == 0; });
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (pool.onWorkerThread()) {
        // Blocking on sibling tasks from a worker can deadlock a
        // fully-busy pool; the inline loop is always safe.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::vector<std::exception_ptr> errors(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = n;
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(mu);
            if (--remaining == 0)
                cv.notify_all();
        });
    }
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return remaining == 0; });
    }
    // Rethrow in index order so failures are independent of scheduling.
    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs, n)));
    parallelFor(pool, n, body);
}

} // namespace smartref
