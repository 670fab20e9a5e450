// The sample-parallel stream axis (Scenario::streams) and its
// determinism contract: for a fixed stream count the Monte-Carlo
// backends must produce bitwise identical ResultSets whichever threads
// run the streams - no pool, a StreamPool with helpers, or the worker
// threads of a lane - because work is partitioned by RNG sub-stream,
// never by thread, and partials merge in fixed stream order.  The
// StreamPool itself is pinned here too: the caller claims task 0 first,
// idle members take the rest, a lone cell on a 4-thread lane runs 4-way,
// and the error that escapes is the lowest failing task's.
#include <poll.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "core/scenario.h"
#include "support/stats.h"
#include "support/wire.h"

namespace rbx {
namespace {

std::vector<std::byte> encode_result(const ResultSet& r) {
  wire::Writer w;
  r.encode(w);
  return w.data();
}

// Evaluates on a StreamPool of `helpers` dedicated threads (plus the
// calling thread); 0 helpers still goes through StreamPool::run.
ResultSet evaluate_on_pool(const EvalBackend& backend, const Scenario& s,
                           std::size_t helpers) {
  StreamPool pool(helpers);
  EvalContextScope scope(EvalContext{&pool});
  return backend.evaluate(s);
}

// Generous bound on a wait that succeeds at once when the pool works;
// only a broken pool ever reaches it (a failure, not a hung test).
constexpr auto kBroken = std::chrono::seconds(60);

// A one-shot gate: open() releases every wait().
class Gate {
 public:
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, kBroken, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// One streamed cell per scheme, small budgets (the contract is bitwise,
// not statistical - sample counts only need to exercise every stream).
std::vector<Scenario> streamed_cells() {
  return {
      Scenario::symmetric(3, 1.0, 0.5)
          .scheme(SchemeKind::kAsynchronous)
          .error_rate(0.25)
          .seed(0x5eed)
          .samples(40)
          .streams(4),
      Scenario::symmetric(3, 1.0, 0.0)
          .scheme(SchemeKind::kSynchronized)
          .error_rate(0.5)
          .seed(0x5eed)
          .samples(40)
          .streams(4),
      Scenario::symmetric(3, 1.0, 0.5)
          .scheme(SchemeKind::kPseudoRecoveryPoints)
          .error_rate(0.5)
          .t_record(1e-3)
          .seed(0x5eed)
          .samples(12)
          .streams(4),
  };
}

TEST(StreamDeterminism, PoolNeverChangesTheBytes) {
  for (const Scenario& cell : streamed_cells()) {
    const std::vector<std::byte> sequential =
        encode_result(monte_carlo_backend().evaluate(cell));
    for (std::size_t helpers : {0u, 2u, 7u}) {
      EXPECT_EQ(encode_result(
                    evaluate_on_pool(monte_carlo_backend(), cell, helpers)),
                sequential)
          << cell.label() << " helpers=" << helpers;
    }
  }
}

TEST(StreamDeterminism, DensityBackendIsPoolInvariant) {
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .seed(0x5eed)
                            .samples(60)
                            .streams(5);
  const std::vector<std::byte> sequential =
      encode_result(density_monte_carlo_backend().evaluate(cell));
  for (std::size_t helpers : {1u, 6u}) {
    EXPECT_EQ(encode_result(evaluate_on_pool(density_monte_carlo_backend(),
                                             cell, helpers)),
              sequential);
  }
}

TEST(StreamDeterminism, MoreStreamsThanSamplesStillDeterministic) {
  // Empty stream chunks (K > samples) must merge harmlessly and stay
  // pool-invariant.
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .error_rate(0.25)
                            .seed(0x5eed)
                            .samples(3)
                            .streams(8);
  EXPECT_EQ(encode_result(evaluate_on_pool(monte_carlo_backend(), cell, 5)),
            encode_result(monte_carlo_backend().evaluate(cell)));
}

TEST(StreamDeterminism, StreamsOneIgnoresThePool) {
  // K=1 is the historical sequential path; a pool must not be able to
  // touch it.
  const Scenario cell = Scenario::symmetric(3, 1.0, 0.5)
                            .scheme(SchemeKind::kAsynchronous)
                            .error_rate(0.25)
                            .seed(0x5eed)
                            .samples(40);
  ASSERT_EQ(cell.streams(), 1u);
  EXPECT_EQ(encode_result(evaluate_on_pool(monte_carlo_backend(), cell, 7)),
            encode_result(monte_carlo_backend().evaluate(cell)));
}

TEST(StreamAccuracy, StreamedMeanAgreesWithSequentialMean) {
  // Different K are different (equally valid) partitions of the sample
  // budget: the estimates must agree statistically even though the bytes
  // legitimately differ.
  const Scenario sequential = Scenario::symmetric(3, 1.0, 0.5)
                                  .scheme(SchemeKind::kAsynchronous)
                                  .seed(0x5eed)
                                  .samples(20000);
  const Scenario streamed = Scenario(sequential).streams(8);
  const double seq_mean =
      monte_carlo_backend().evaluate(sequential).value("mean_interval_x");
  const double str_mean =
      monte_carlo_backend().evaluate(streamed).value("mean_interval_x");
  EXPECT_LT(relative_error(seq_mean, str_mean), 0.05);
}

TEST(StreamLanes, ForkLaneMatchesThreadLaneBitwise) {
  // The stream axis must survive the Scenario wire codec: forked workers
  // decode their cells from frames, so byte-equality across executors
  // proves the stream seed derivation happens after the codec, not
  // before it.
  const std::vector<Scenario> cells = streamed_cells();
  const CellFn fn = [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
  const auto reference = InProcessExecutor({1}).run(cells, fn);
  // 2 children for 3 cells: no helpers; 8 for 3: each of the 3 children
  // raised owns a pool with one helper thread.
  for (std::size_t workers : {2u, 8u}) {
    const auto forked = MultiProcessExecutor({workers, 1}).run(cells, fn);
    ASSERT_EQ(reference.size(), forked.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(reference[i].ok()) << reference[i].error;
      ASSERT_TRUE(forked[i].ok()) << forked[i].error;
      EXPECT_EQ(encode_result(reference[i].result),
                encode_result(forked[i].result))
          << cells[i].label() << " workers=" << workers;
    }
  }
}

TEST(StreamLanes, ThreadLanePoolsMatchSequentialBitwise) {
  // async, sync, prp (monte-carlo) and density-mc cells, evaluated with
  // no pool for the reference and then on 1-, 2- and 4-thread lanes whose
  // worker threads take each other's streams.
  std::vector<Scenario> cells = streamed_cells();
  cells.push_back(Scenario::symmetric(3, 1.0, 0.5)
                      .scheme(SchemeKind::kAsynchronous)
                      .seed(0x5eed)
                      .samples(60)
                      .streams(5));
  const std::size_t density_index = cells.size() - 1;
  const CellFn fn = [density_index](const Scenario& s, std::size_t i) {
    return i == density_index ? density_monte_carlo_backend().evaluate(s)
                              : monte_carlo_backend().evaluate(s);
  };
  std::vector<std::vector<std::byte>> sequential;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(current_eval_context().pool, nullptr);
    sequential.push_back(encode_result(fn(cells[i], i)));
  }
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto outcomes = InProcessExecutor({threads}).run(cells, fn);
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_EQ(encode_result(outcomes[i].result), sequential[i])
          << cells[i].label() << " threads=" << threads;
    }
  }
}

TEST(StreamLanes, OneCellOnAFourThreadLaneRunsFourWay) {
  // The lane raises all 4 threads for a 1-cell sweep and they form the
  // cell's pool: 4 stream tasks that each wait until all 4 are running
  // at once can only finish if 4 distinct threads took them.
  const CellFn probe = [](const Scenario& s, std::size_t) {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t running = 0;
    bool all_met = true;
    std::set<std::thread::id> ids;
    run_stream_tasks(4, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
      ++running;
      cv.notify_all();
      all_met = cv.wait_for(lock, kBroken, [&] { return running == 4; }) &&
                all_met;
    });
    ResultSet out("probe", s.label());
    out.set("all_met", all_met ? 1.0 : 0.0);
    out.set("threads", static_cast<double>(ids.size()));
    return out;
  };
  const auto outcomes = InProcessExecutor({4}).run(
      {Scenario::symmetric(2, 1.0, 0.5).seed(1)}, probe);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].result.value("all_met"), 1.0);
  EXPECT_EQ(outcomes[0].result.value("threads"), 4.0);
}

// --- the StreamPool itself -------------------------------------------------

// Task 0 blocks on a gate only task 1 opens.  run() claims task 0 on the
// calling thread before the job is visible, so task 1 must be taken by
// another member - a dedicated helper, or an outside thread polling
// wake_fd() the way a ThreadLane worker does.  No sleeps: the run either
// completes through the steal or the gate's bound reports the failure.
void expect_member_steals(StreamPool& pool, std::thread::id caller) {
  Gate gate;
  bool task0_released = false;
  std::thread::id task1_thread;
  pool.run(2, [&](std::size_t k) {
    if (k == 0) {
      task0_released = gate.wait();
    } else {
      task1_thread = std::this_thread::get_id();
      gate.open();
    }
  });
  EXPECT_TRUE(task0_released);
  EXPECT_NE(task1_thread, caller);
}

TEST(StreamPoolTest, HelperStealsTheTaskTheCallerCannotReach) {
  StreamPool pool(1);
  expect_member_steals(pool, std::this_thread::get_id());
}

TEST(StreamPoolTest, WakeFdMemberStealsTheTaskTheCallerCannotReach) {
  StreamPool pool;  // no helpers: the member below is the only other thread
  std::thread member([&pool] {
    pollfd wake{pool.wake_fd(), POLLIN, 0};
    while (!pool.help()) {
      ::poll(&wake, 1, -1);
    }
  });
  expect_member_steals(pool, std::this_thread::get_id());
  member.join();
}

TEST(StreamPoolTest, LowestFailingTaskWinsWhateverThePoolWidth) {
  // Tasks 2 and 5 throw different errors; whoever runs them and in
  // whatever order they fail, task 2's error escapes, and every task
  // still runs.
  const auto task_set = [](std::mutex& mutex, std::size_t& ran) {
    return [&mutex, &ran](std::size_t k) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++ran;
      }
      if (k == 2 || k == 5) {
        throw std::runtime_error("task " + std::to_string(k));
      }
    };
  };
  for (std::size_t helpers : {0u, 1u, 3u, 7u}) {
    StreamPool pool(helpers);
    for (int round = 0; round < 20; ++round) {
      std::mutex mutex;
      std::size_t ran = 0;
      try {
        pool.run(8, task_set(mutex, ran));
        ADD_FAILURE() << "no error escaped, helpers=" << helpers;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 2") << "helpers=" << helpers;
      }
      EXPECT_EQ(ran, 8u) << "helpers=" << helpers;
    }
  }
  // Without a pool the tasks run in order and the first failure escapes.
  std::mutex mutex;
  std::size_t ran = 0;
  EXPECT_THROW(
      {
        try {
          run_stream_tasks(8, task_set(mutex, ran));
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 2");
          throw;
        }
      },
      std::runtime_error);
}

}  // namespace
}  // namespace rbx
