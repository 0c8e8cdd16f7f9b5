#include "sim/parallel.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace menda
{

ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
}

void
ParallelRunner::run(std::size_t jobs,
                    const std::function<void(std::size_t)> &job)
{
    if (jobs == 0)
        return;

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, jobs));
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs; ++i) {
            job(i);
            jobsExecuted_.increment();
        }
        return;
    }

    // Work stealing via a shared ticket counter: shards are claimed in
    // index order, so a pool of K threads keeps K shards in flight and
    // long shards do not serialize behind short ones.
    std::atomic<std::size_t> ticket{0};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                ticket.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs)
                return;
            try {
                job(i);
                jobsExecuted_.increment();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(worker);
    worker(); // the caller is worker 0
    for (std::thread &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace menda
