// The evaluation determinism contract: the same expanded grid produces
// bitwise-identical results on 1 thread, N threads, M forked worker
// processes, and a sharded-then-merged split - plus the failure semantics
// (throwing cell_fn -> per-cell error; crashed worker -> per-cell error,
// not a hung sweep).
#include "core/executor.h"

#include <unistd.h>

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/lane.h"
#include "core/sweep.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(300))
      .axis({2, 3, 4}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

CellFn backend_fn() {
  return [](const Scenario& s, std::size_t) {
    return monte_carlo_backend().evaluate(s);
  };
}

// Evaluates `cells` on one lane under a fresh DispatchCore.
std::vector<CellOutcome> run_on(Lane& lane, const std::vector<Scenario>& cells,
                                const CellFn& fn, std::size_t batch = 0) {
  DispatchOptions options;
  options.batch_size = batch;
  return DispatchCore({&lane}, options).run(cells, fn).outcomes;
}

std::vector<ResultSet> results_of(const std::vector<CellOutcome>& outcomes) {
  std::vector<ResultSet> out;
  for (const CellOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    out.push_back(outcome.result);
  }
  return out;
}

TEST(ExecutorDeterminism, AllExecutionModesAreBitwiseIdentical) {
  const std::vector<Scenario> cells = mc_grid(17);
  const CellFn fn = backend_fn();

  ThreadLane one(1);
  ThreadLane eight(8);
  ForkLane forks(4);
  const auto serial = results_of(run_on(one, cells, fn));
  const auto threaded = results_of(run_on(eight, cells, fn));
  const auto forked = results_of(run_on(forks, cells, fn, /*batch=*/1));

  // Sharded: evaluate each half independently, then merge.
  std::vector<ShardPartial> partials;
  for (std::size_t shard_index = 0; shard_index < 2; ++shard_index) {
    const ShardSpec spec{shard_index, 2};
    const std::vector<std::size_t> owned =
        shard_cell_indices(cells.size(), spec);
    std::vector<Scenario> owned_cells;
    for (std::size_t index : owned) {
      owned_cells.push_back(cells[index]);
    }
    ThreadLane lane(2);
    const auto outcomes = run_on(
        lane, owned_cells, [&](const Scenario& cell, std::size_t local) {
          return fn(cell, owned[local]);
        });
    ShardPartial partial;
    partial.shard = spec;
    partial.total_cells = cells.size();
    for (std::size_t k = 0; k < owned.size(); ++k) {
      EXPECT_TRUE(outcomes[k].ok());
      partial.results.emplace_back(owned[k], outcomes[k].result);
    }
    partials.push_back(std::move(partial));
  }
  const std::vector<ResultSet> merged = merge_shard_partials(partials);

  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(threaded.size(), cells.size());
  ASSERT_EQ(forked.size(), cells.size());
  ASSERT_EQ(merged.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "threaded cell " << i;
    EXPECT_EQ(serial[i], forked[i]) << "forked cell " << i;
    EXPECT_EQ(serial[i], merged[i]) << "merged cell " << i;
  }
}

TEST(ExecutorDeterminism, ShardPartialSurvivesTheWire) {
  // The partial actually exchanged between hosts goes through encode() ->
  // frame -> decode(); pin that path, not just the in-memory merge.
  const std::vector<Scenario> cells = mc_grid(23);
  const CellFn fn = backend_fn();
  ThreadLane lane(1);
  const auto reference = results_of(run_on(lane, cells, fn));

  std::vector<ShardPartial> partials;
  for (std::size_t shard_index = 0; shard_index < 3; ++shard_index) {
    const ShardSpec spec{shard_index, 3};
    ShardPartial partial;
    partial.shard = spec;
    partial.total_cells = cells.size();
    for (std::size_t index : shard_cell_indices(cells.size(), spec)) {
      partial.results.emplace_back(index, reference[index]);
    }
    wire::Writer w;
    partial.encode(w);
    const std::vector<std::byte> frame =
        wire::seal_frame(kFrameShardPartial, w.data());
    wire::Frame parsed;
    std::size_t consumed = 0;
    ASSERT_TRUE(
        wire::parse_frame(frame.data(), frame.size(), &parsed, &consumed));
    ASSERT_EQ(parsed.type, kFrameShardPartial);
    wire::Reader r(parsed.payload);
    partials.push_back(ShardPartial::decode(r));
    r.expect_done();
  }
  const std::vector<ResultSet> merged = merge_shard_partials(partials);
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(merged[i], reference[i]) << "cell " << i;
  }
}

TEST(ThreadLaneTest, EmptyCellsAndThreadsExceedingCells) {
  const CellFn fn = [](const Scenario& s, std::size_t i) {
    ResultSet out("test", s.label());
    out.set("index", static_cast<double>(i));
    return out;
  };
  ThreadLane four(4);
  EXPECT_TRUE(run_on(four, {}, fn).empty());

  // Far more threads than cells: must not lose cells; outcomes stay in
  // input order.
  const std::vector<Scenario> cells(3, Scenario::symmetric(2, 1.0, 1.0));
  ThreadLane many(64);
  const auto outcomes = run_on(many, cells, fn);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ThreadLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  ThreadLane lane(2);
  const auto outcomes = run_on(
      lane, cells, [](const Scenario& s, std::size_t i) {
        if (i == 2) {
          throw std::runtime_error("synthetic cell failure");
        }
        ResultSet out("test", s.label());
        out.set("ok", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "synthetic cell failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok());
    }
  }
}

TEST(ForkLaneTest, ThrowingCellBecomesPerCellError) {
  const std::vector<Scenario> cells(4, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane lane(2);
  const auto outcomes = run_on(
      lane, cells,
      [](const Scenario& s, std::size_t i) {
        if (i == 1) {
          throw std::runtime_error("worker-side failure");
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      },
      /*batch=*/1);
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 1) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "worker-side failure");
    } else {
      EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                       static_cast<double>(i));
    }
  }
}

TEST(ForkLaneTest, PoisonousCellFailsAfterKillingTwoWorkers) {
  // A cell that kills its worker process outright (not an exception).
  // The dispatch core respawns the crashed worker and re-runs the cell
  // once; when the rerun kills a worker too, the cell is declared
  // poisonous and becomes a per-cell error.  Every other cell still
  // evaluates - the sweep never hangs, never dies, and the pool never
  // shrinks.
  const std::vector<Scenario> cells(8, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane lane(2);
  const auto outcomes = run_on(
      lane, cells,
      [](const Scenario& s, std::size_t i) {
        if (i == 3) {
          ::_exit(42);  // simulated crash (e.g. a fatal RBX_CHECK)
        }
        ResultSet out("test", s.label());
        out.set("index", static_cast<double>(i));
        return out;
      },
      /*batch=*/1);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_FALSE(outcomes[3].ok());
  EXPECT_NE(outcomes[3].error.find("two lost workers"), std::string::npos)
      << outcomes[3].error;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 3) {
      continue;
    }
    EXPECT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_DOUBLE_EQ(outcomes[i].result.value("index"),
                     static_cast<double>(i));
  }
}

TEST(ForkLaneTest, EmptyCellsAndWorkerClamp) {
  const CellFn fn = backend_fn();
  ForkLane four(4);
  EXPECT_TRUE(run_on(four, {}, fn, /*batch=*/2).empty());
  // One cell, many workers: clamps to one batch/one worker.
  const std::vector<Scenario> cells(1, Scenario::symmetric(2, 1.0, 1.0));
  ForkLane eight(8);
  const auto outcomes = run_on(
      eight, cells, [](const Scenario& s, std::size_t) {
        ResultSet out("test", s.label());
        out.set("x", 1.0);
        return out;
      });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok());
}

TEST(ApplyResultBatchTest, CommittedMaskIgnoresLateDuplicates) {
  // Work stealing can put one cell in flight on two workers; the first
  // answer must win and the loser's duplicate must be ignored without
  // tripping the strict batch checks.
  const auto entry = [](std::uint64_t index, double value) {
    ResultSet r("test", "cell");
    r.set("x", value);
    CellOutcome outcome;
    outcome.result = std::move(r);
    return ResultBatch::Entry{index, std::move(outcome)};
  };

  std::vector<CellOutcome> outcomes(3);
  std::vector<std::uint8_t> committed(3, 0);

  ResultBatch first;  // the thief answers cells 1 and 2
  first.entries.push_back(entry(1, 10.0));
  first.entries.push_back(entry(2, 20.0));
  EXPECT_EQ(apply_result_batch(first, {1, 2}, outcomes, &committed), 2u);
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  ResultBatch late;  // the straggler answers its whole batch {0, 1} later
  late.entries.push_back(entry(0, 5.0));
  late.entries.push_back(entry(1, 99.0));  // duplicate of a stolen cell
  EXPECT_EQ(apply_result_batch(late, {0, 1}, outcomes, &committed), 1u);
  EXPECT_EQ(outcomes[0].result.value("x"), 5.0);
  // The first answer stuck (in reality both are bitwise identical; the
  // sentinel value just proves the duplicate was dropped, not applied).
  EXPECT_EQ(outcomes[1].result.value("x"), 10.0);

  // The strict contract still holds under the mask: a short or foreign
  // answer is a protocol violation even when some cells are committed.
  ResultBatch shorting;
  shorting.entries.push_back(entry(1, 1.0));
  EXPECT_THROW(apply_result_batch(shorting, {1, 2}, outcomes, &committed),
               wire::Error);
  ResultBatch foreign;
  foreign.entries.push_back(entry(7, 1.0));
  EXPECT_THROW(apply_result_batch(foreign, {1}, outcomes, &committed),
               wire::Error);
}

TEST(ShardSpecTest, PartitionIsDisjointAndComplete) {
  const std::size_t total = 23;
  for (std::size_t count : {1u, 2u, 3u, 5u, 23u, 31u}) {
    std::vector<bool> seen(total, false);
    for (std::size_t index = 0; index < count; ++index) {
      for (std::size_t cell :
           shard_cell_indices(total, ShardSpec{index, count})) {
        ASSERT_LT(cell, total);
        EXPECT_FALSE(seen[cell]) << "cell " << cell << " owned twice";
        seen[cell] = true;
        EXPECT_TRUE((ShardSpec{index, count}.owns(cell)));
      }
    }
    for (std::size_t cell = 0; cell < total; ++cell) {
      EXPECT_TRUE(seen[cell]) << "cell " << cell << " unowned at k = "
                              << count;
    }
  }
}

TEST(ShardMergeTest, RejectsInconsistentPartials) {
  ResultSet r("test", "cell");
  r.set("x", 1.0);
  const auto make_partial = [&](std::size_t index, std::size_t count,
                                std::size_t total) {
    ShardPartial p;
    p.shard = ShardSpec{index, count};
    p.total_cells = total;
    for (std::size_t cell : shard_cell_indices(total, p.shard)) {
      p.results.emplace_back(cell, r);
    }
    return p;
  };

  // Missing shard.
  EXPECT_THROW(merge_shard_partials({make_partial(0, 2, 4)}), wire::Error);
  // Duplicate shard.
  EXPECT_THROW(
      merge_shard_partials({make_partial(0, 2, 4), make_partial(0, 2, 4)}),
      wire::Error);
  // Disagreeing grid sizes.
  EXPECT_THROW(
      merge_shard_partials({make_partial(0, 2, 4), make_partial(1, 2, 6)}),
      wire::Error);
  // Missing cell inside an otherwise consistent split.
  ShardPartial incomplete = make_partial(1, 2, 4);
  incomplete.results.pop_back();
  EXPECT_THROW(merge_shard_partials({make_partial(0, 2, 4), incomplete}),
               wire::Error);
  // Partials from differently-parameterized runs (e.g. mismatched
  // --samples or --seed) carry different grid fingerprints and must not
  // merge into silently wrong tables.
  ShardPartial foreign = make_partial(1, 2, 4);
  foreign.fingerprint = 0xdeadbeefULL;
  try {
    merge_shard_partials({make_partial(0, 2, 4), foreign});
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  // The happy path for contrast.
  const auto merged =
      merge_shard_partials({make_partial(0, 2, 4), make_partial(1, 2, 4)});
  EXPECT_EQ(merged.size(), 4u);
}

TEST(PartialMergerTest, StreamsPartialsInAnyOrderAndRejectsStragglers) {
  ResultSet r("test", "cell");
  r.set("x", 2.0);
  const auto make_partial = [&](std::size_t index, std::size_t count,
                                std::size_t total) {
    ShardPartial p;
    p.shard = ShardSpec{index, count};
    p.total_cells = total;
    p.fingerprint = 99;
    for (std::size_t cell : shard_cell_indices(total, p.shard)) {
      p.results.emplace_back(cell, r);
    }
    return p;
  };

  PartialMerger merger(7, 3, 99);
  EXPECT_FALSE(merger.complete());
  // Arrival order is whatever the network gives us, not shard order.
  merger.apply(make_partial(2, 3, 7));
  EXPECT_EQ(merger.applied_shards(), 1u);
  EXPECT_THROW(merger.take(), wire::Error);  // cells still missing
  merger.apply(make_partial(0, 3, 7));
  // A duplicate or foreign partial is rejected without corrupting the
  // merge already accumulated.
  EXPECT_THROW(merger.apply(make_partial(0, 3, 7)), wire::Error);
  EXPECT_THROW(merger.apply(make_partial(1, 2, 7)), wire::Error);
  ShardPartial wrong_fingerprint = make_partial(1, 3, 7);
  wrong_fingerprint.fingerprint = 100;
  EXPECT_THROW(merger.apply(wrong_fingerprint), wire::Error);
  EXPECT_FALSE(merger.complete());
  merger.apply(make_partial(1, 3, 7));
  EXPECT_TRUE(merger.complete());
  const std::vector<ResultSet> merged = merger.take();
  ASSERT_EQ(merged.size(), 7u);
  for (const ResultSet& cell : merged) {
    EXPECT_EQ(cell, r);
  }
}

TEST(ShardPartialTest, CorruptTotalCellsRejectedAtDecode) {
  // A flipped byte in the total_cells field must fail in decode with a
  // wire::Error, not as a gigantic allocation inside the merge.
  ResultSet r0("test", "cell");
  r0.set("x", 1.0);
  ShardPartial partial;
  partial.shard = ShardSpec{0, 2};
  partial.total_cells = 4;
  partial.results.emplace_back(0, r0);
  partial.results.emplace_back(2, r0);
  wire::Writer w;
  partial.encode(w);
  std::vector<std::byte> bytes = w.data();
  // total_cells is the third u64 of the payload (after index and count).
  bytes[16] = static_cast<std::byte>(0xff);
  bytes[22] = static_cast<std::byte>(0x7f);
  wire::Reader reader(bytes);
  try {
    ShardPartial::decode(reader);
    FAIL() << "expected wire::Error";
  } catch (const wire::Error& e) {
    EXPECT_NE(std::string(e.what()).find("do not match the declared grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(GridFingerprintTest, SensitiveToEveryExperimentKnob) {
  const std::vector<Scenario> base = mc_grid(17);
  const std::uint64_t reference = grid_fingerprint(base);
  EXPECT_EQ(grid_fingerprint(mc_grid(17)), reference);  // deterministic
  // A different master seed, sample budget or grid size must all change
  // the fingerprint - that is what stops mismatched shards merging.
  EXPECT_NE(grid_fingerprint(mc_grid(18)), reference);
  std::vector<Scenario> fewer_samples = mc_grid(17);
  for (Scenario& cell : fewer_samples) {
    cell.samples(cell.samples() / 2);
  }
  EXPECT_NE(grid_fingerprint(fewer_samples), reference);
  std::vector<Scenario> shorter(base.begin(), base.end() - 1);
  EXPECT_NE(grid_fingerprint(shorter), reference);
}

TEST(GridFingerprintTest, ValuesArePinned) {
  // Journals and shard partials persist the fingerprint, and --resume
  // refuses a journal whose fingerprint differs: an edit to the hash, the
  // byte stream it covers or the grid expansion must not slip through
  // unnoticed.  The literals are the FNV-1a of the wire form.
  EXPECT_EQ(grid_fingerprint(mc_grid(17)), 0xa2150d622b67870cULL);
  EXPECT_EQ(grid_fingerprint({}), 0xa8c7f832281a39c5ULL);
}

}  // namespace
}  // namespace rbx
