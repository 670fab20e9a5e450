#include "core/dispatch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "support/io.h"

namespace rbx {

namespace {

using Clock = std::chrono::steady_clock;

// Revival attempts per loss before a lost worker is given up on.
constexpr int kReadmitMaxAttempts = 5;

// Milliseconds until `when`, rounded up, clamped into poll()'s int range.
int ms_until(Clock::time_point now, Clock::time_point when) {
  if (when <= now) {
    return 0;
  }
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count() +
      1;
  return ms > 2147483647 ? 2147483647 : static_cast<int>(ms);
}

// Per-run scheduling state of one LaneWorker.
struct Slot {
  LaneWorker* worker = nullptr;
  std::vector<std::size_t> outstanding;  // batch in flight, empty = idle
  bool acked = false;         // ready for work (handshake done / not needed)
  bool awaiting_ack = false;  // Hello sent, HelloAck pending
  Clock::time_point ack_deadline{};
  bool connecting = false;  // revive connect in flight (poll for POLLOUT)
  bool revive_scheduled = false;
  Clock::time_point revive_at{};
  int failed_revives = 0;   // consecutive failed revive attempts
  bool revived = false;     // current incarnation came from a revive

  bool alive() const { return worker->fd() >= 0; }
};

}  // namespace

DispatchCore::DispatchCore(std::vector<Lane*> lanes, DispatchOptions options)
    : lanes_(std::move(lanes)), options_(std::move(options)) {}

void DispatchCore::set_precommitted(std::vector<std::uint8_t> mask,
                                    std::vector<CellOutcome> outcomes) {
  have_precommitted_ = true;
  precommitted_mask_ = std::move(mask);
  precommitted_outcomes_ = std::move(outcomes);
}

SweepResult DispatchCore::run(const std::vector<Scenario>& cells,
                              const CellFn& cell_fn) {
  SweepResult result;
  result.outcomes.resize(cells.size());
  std::vector<CellOutcome>& outcomes = result.outcomes;

  // Consume the one-shot resume seed (the journal's redo pass): these
  // outcomes are final before any worker starts.
  std::vector<std::uint8_t> pre;
  if (std::exchange(have_precommitted_, false)) {
    pre = std::exchange(precommitted_mask_, {});
    std::vector<CellOutcome> seeded = std::exchange(precommitted_outcomes_, {});
    if (pre.size() != cells.size() || seeded.size() != cells.size()) {
      throw std::runtime_error(
          "dispatch: pre-committed mask does not match the grid (" +
          std::to_string(pre.size()) + " entries, " +
          std::to_string(cells.size()) + " cells)");
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (pre[i] != 0) {
        outcomes[i] = std::move(seeded[i]);
      }
    }
  }

  // --- shared per-cell bookkeeping ---
  // Pre-committed cells (a resumed sweep's winners) enter already final:
  // committed up front, never enqueued, invisible to the workers.
  const std::uint64_t total = cells.size();
  std::deque<std::size_t> queue;
  std::vector<std::uint8_t> committed(total, 0);
  std::size_t resolved = 0;  // final outcomes, answers and errors alike
  for (std::size_t i = 0; i < total; ++i) {
    if (!pre.empty() && pre[i] != 0) {
      committed[i] = 1;
      ++resolved;
    } else {
      queue.push_back(i);
    }
  }
  // An empty grid, or a fully pre-committed one (resuming a journal that
  // already ended), is done before any worker starts - don't raise lanes
  // just to idle them.
  if (queue.empty()) {
    return result;
  }

  std::vector<LaneWorker*> workers;
  for (Lane* lane : lanes_) {
    try {
      lane->start(cells.size(), cell_fn, &workers);
    } catch (...) {
      for (Lane* started : lanes_) {
        started->finish();
      }
      throw;
    }
  }

  try {
    if (workers.empty()) {
      throw std::runtime_error("dispatch: no lane produced any workers");
    }
    if (!plan_fn_ && std::any_of(workers.begin(), workers.end(),
                                 [](LaneWorker* w) { return w->remote(); })) {
      throw std::runtime_error(
          "dispatch: a lane requires evaluation plans but no plan function "
          "is set (this sweep is local-only)");
    }

    // Only handshaking (remote) workers read the grid fingerprint, so the
    // whole-grid hash is taken on the first send_hello and memoized for
    // re-handshakes; thread and fork lanes never pay for it.
    Hello hello;
    bool fingerprinted = false;
    hello.total_cells = total;
    if (options_.no_cache) {
      hello.flags |= kHelloFlagNoCache;
    }

    std::vector<Slot> slots(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
      slots[i].worker = workers[i];
    }

    // Cells already re-run once because a worker died holding them; a
    // second loss marks the cell itself as the problem.
    std::vector<std::uint8_t> requeued(total, 0);
    // How many workers currently hold a copy of the cell (stealing
    // replicates it), and whether its outcome is final (first answer
    // wins; late duplicates are ignored).
    std::vector<std::uint8_t> inflight(total, 0);

    const auto ready_count = [&]() {
      return std::count_if(slots.begin(), slots.end(), [](const Slot& slot) {
        return slot.acked && slot.alive();
      });
    };

    // Schedules the next revival attempt of a lost worker, or gives up
    // once the lane cannot revive it / the attempt budget is spent.
    const auto schedule_revive = [&](Slot& slot) {
      slot.revive_scheduled = false;
      if (!options_.readmit || !slot.worker->can_revive() ||
          slot.failed_revives >= kReadmitMaxAttempts) {
        return;
      }
      const long long base =
          std::max(0, slot.worker->revive_delay_ms());
      const long long delay = base << std::min(slot.failed_revives, 20);
      slot.revive_scheduled = true;
      slot.revive_at = Clock::now() + std::chrono::milliseconds(delay);
    };

    const auto retire_slot = [&](Slot& slot) {
      slot.worker->retire();
      slot.acked = false;
      slot.awaiting_ack = false;
      slot.connecting = false;
    };

    // Rolls a lost worker's in-flight cells back into the queue (backward
    // error recovery: per-cell seeds make the rerun bitwise identical).
    // A cell another worker still holds - its thief, or the straggler it
    // was stolen from - needs nothing: the surviving copy answers for it.
    const auto lose = [&](Slot& slot, const std::string& why) {
      if (!options_.quiet) {
        std::fprintf(
            stderr,
            "sweep: lost worker %s (%s); re-queueing %zu in-flight cells\n",
            slot.worker->describe().c_str(), why.c_str(),
            slot.outstanding.size());
      }
      for (std::size_t k = slot.outstanding.size(); k-- > 0;) {
        const std::size_t index = slot.outstanding[k];
        if (inflight[index] > 0) {
          --inflight[index];
        }
        if (committed[index] != 0 || inflight[index] > 0) {
          continue;
        }
        if (requeued[index] != 0) {
          outcomes[index].error = "cell was in flight on two lost workers";
          committed[index] = 1;
          ++resolved;
          if (commit_hook_) {
            commit_hook_(index, outcomes[index]);
          }
        } else {
          requeued[index] = 1;
          queue.push_front(index);
        }
      }
      slot.outstanding.clear();
      retire_slot(slot);
      schedule_revive(slot);
    };

    // Hands `indices` to a worker as one batch; on success the worker
    // owns them.  False = the worker is gone and nothing was recorded.
    const auto send_batch = [&](Slot& slot,
                                const std::vector<std::size_t>& indices) {
      if (!slot.worker->submit(cells, indices, plan_fn_)) {
        return false;
      }
      for (const std::size_t index : indices) {
        ++inflight[index];
      }
      slot.outstanding = indices;
      return true;
    };

    const auto dispatch = [&](Slot& slot) {
      if (queue.empty() || !slot.acked || !slot.alive() ||
          !slot.outstanding.empty()) {
        return;
      }
      std::size_t want = options_.batch_size;
      if (want == 0) {
        // Adaptive: about four batches per ready worker of what remains,
        // shrinking to single cells at the tail.
        const std::size_t ready = std::max<std::size_t>(1, ready_count());
        want = std::max<std::size_t>(1, queue.size() / (ready * 4));
        want = std::min<std::size_t>(want, 64);
      }
      want = std::min(want, queue.size());
      std::vector<std::size_t> indices;
      indices.reserve(want);
      for (std::size_t k = 0; k < want; ++k) {
        indices.push_back(queue.front());
        queue.pop_front();
      }
      if (!send_batch(slot, indices)) {
        // Died before accepting: the batch was never in flight, put it
        // back in order for someone else.
        for (std::size_t k = indices.size(); k-- > 0;) {
          queue.push_front(indices[k]);
        }
        lose(slot, "send failed");
      }
    };

    // An idle worker with an empty queue takes the back half of the
    // biggest straggler's unanswered tail instead of watching it.  Only
    // sole-copy, uncommitted cells qualify (at most two workers ever hold
    // a cell at once); repeated halving covers the whole tail if the
    // straggler never wakes.  Whichever answer lands first is committed -
    // the duplicate is ignored, so the printed bytes cannot change, only
    // the finish time.
    const auto steal_for = [&](Slot& thief) {
      if (!options_.steal || !queue.empty() || !thief.acked ||
          !thief.alive() || !thief.outstanding.empty()) {
        return;
      }
      Slot* victim = nullptr;
      std::vector<std::size_t> best;
      for (Slot& other : slots) {
        if (&other == &thief || !other.alive() ||
            other.outstanding.empty()) {
          continue;
        }
        std::vector<std::size_t> stealable;
        for (const std::size_t index : other.outstanding) {
          if (committed[index] == 0 && inflight[index] == 1) {
            stealable.push_back(index);
          }
        }
        if (stealable.size() > best.size()) {
          victim = &other;
          best = std::move(stealable);
        }
      }
      if (victim == nullptr || best.empty()) {
        return;
      }
      const std::size_t take = (best.size() + 1) / 2;
      const std::vector<std::size_t> stolen(
          best.end() - static_cast<std::ptrdiff_t>(take), best.end());
      if (!send_batch(thief, stolen)) {
        lose(thief, "send failed");
        return;
      }
      result.stolen_cells += take;
      if (!options_.quiet) {
        std::fprintf(stderr,
                     "sweep: stole %zu tail cell(s) from straggler %s for "
                     "idle worker %s\n",
                     take, victim->worker->describe().c_str(),
                     thief.worker->describe().c_str());
      }
    };

    const auto refuse = [&](Slot& slot, const std::string& why,
                            bool revivable) {
      if (!options_.quiet) {
        std::fprintf(stderr, "sweep: worker %s refused the handshake: %s\n",
                     slot.worker->describe().c_str(), why.c_str());
      }
      retire_slot(slot);
      if (revivable) {
        schedule_revive(slot);
      }
    };

    // Marks a worker ready for work.  The next dispatch/steal pass of the
    // main loop hands it queue or stolen work - deferring that keeps the
    // adaptive batch sizing fair while the pool is still filling up.
    const auto admitted = [&](Slot& slot) {
      slot.acked = true;
      slot.failed_revives = 0;
      if (slot.revived) {
        ++result.readmitted_workers;
        if (!options_.quiet) {
          std::fprintf(stderr,
                       "sweep: re-admitted worker %s (rejoined the live "
                       "pool mid-sweep)\n",
                       slot.worker->describe().c_str());
        }
      }
    };

    // Drains buffered frames on a worker awaiting its ack.  True = this
    // worker is settled (acked, or refused); false = still awaiting bytes.
    const auto check_ack = [&](Slot& slot) -> bool {
      FrameChannel& ch = *slot.worker->channel();
      std::optional<std::string> refusal;
      bool revivable = false;
      try {
        wire::Frame ack;
        while (!refusal && ch.pop(&ack)) {
          wire::Reader r(ack.payload);
          if (ack.type == kFrameResultBatch) {
            // A stale answer from the previous sweep (this straggler's
            // tail was stolen and committed elsewhere); discard.
          } else if (ack.type == kFrameError) {
            refusal = r.str();
          } else if (ack.type == kFrameAuthChallenge) {
            // The worker wants proof of the pre-shared key before acking;
            // the ack (or a refusal) follows.
            const std::string challenge = r.str();
            r.expect_done();
            const std::string mac = slot.worker->auth_response(challenge);
            wire::Writer w;
            w.str(mac);
            if (mac.empty()) {
              refusal =
                  "worker demands authentication but this coordinator "
                  "holds no key (--auth-key-file)";
            } else if (!ch.send(kFrameAuthResponse, w.data())) {
              refusal = "connection lost during authentication";
              revivable = true;
            }
          } else if (ack.type != kFrameHelloAck) {
            refusal = "unexpected frame type " + std::to_string(ack.type);
          } else {
            const Hello echo = Hello::decode(r);
            r.expect_done();
            if (echo.protocol != hello.protocol ||
                echo.wire_version != hello.wire_version ||
                echo.fingerprint != hello.fingerprint) {
              refusal = "ack does not echo this sweep's handshake";
            } else {
              slot.awaiting_ack = false;
              admitted(slot);
              return true;
            }
          }
        }
      } catch (const wire::Error& e) {
        refusal = std::string("malformed ack: ") + e.what();
      }
      if (refusal) {
        refuse(slot, *refusal, revivable);
      }
      return refusal.has_value();
    };

    const auto send_hello = [&](Slot& slot) {
      // Per-worker amendments: an authenticated worker flags the auth
      // exchange, a fleet-leased worker attaches its registry grant.
      if (!std::exchange(fingerprinted, true)) {
        hello.fingerprint = grid_fingerprint(cells);
      }
      Hello worker_hello = hello;
      slot.worker->prepare_hello(worker_hello);
      wire::Writer w;
      worker_hello.encode(w);
      if (!slot.worker->channel()->send(kFrameHello, w.data())) {
        refuse(slot, "connection lost", /*revivable=*/true);
        return;
      }
      slot.awaiting_ack = true;
      slot.ack_deadline =
          Clock::now() +
          std::chrono::milliseconds(options_.handshake_timeout_ms);
      // The ack (or stale frames ahead of it) may already sit in the
      // channel buffer from earlier traffic.
      check_ack(slot);
    };

    // A revived (or freshly started) worker with an open channel enters
    // the pool: remote daemons re-handshake first, local workers are
    // ready at once.
    const auto admit = [&](Slot& slot) {
      if (slot.worker->remote()) {
        send_hello(slot);
      } else {
        admitted(slot);
      }
    };

    const auto attempt_revive = [&](Slot& slot) {
      slot.revive_scheduled = false;
      // Spend one attempt up front: a cycle that connects but then fails
      // the handshake (or loses the connection again before admission)
      // must burn budget too, or a dead-but-listening endpoint would be
      // retried forever.  admitted() resets the count.
      ++slot.failed_revives;
      switch (slot.worker->revive()) {
        case LaneWorker::Revive::kReady:
          slot.revived = true;
          admit(slot);
          return;
        case LaneWorker::Revive::kPending:
          slot.connecting = true;
          return;
        case LaneWorker::Revive::kFailed:
          break;
      }
      schedule_revive(slot);
    };

    const auto finish_revive = [&](Slot& slot) {
      slot.connecting = false;
      if (slot.worker->revive_finish()) {
        slot.revived = true;
        admit(slot);
        return;
      }
      schedule_revive(slot);
    };

    // Merges every answered batch a busy worker has posted; false = lost.
    const auto collect = [&](Slot& slot) -> bool {
      for (;;) {
        if (!slot.alive()) {
          return false;
        }
        ResultBatch batch;
        std::string why;
        const LaneWorker::Collect got = slot.worker->collect(&batch, &why);
        if (got != LaneWorker::Collect::kBatch) {
          if (got == LaneWorker::Collect::kLost) {
            lose(slot, why);
          }
          return got == LaneWorker::Collect::kNone;
        }
        // Streaming merge with dedup: outcomes land the moment this batch
        // arrives - unless a thief's copy of a cell already did.  The
        // commit hook fires exactly for the 0->1 transitions of the
        // committed mask (a duplicate answer must not re-journal).
        std::vector<std::size_t> fresh;
        try {
          fresh = apply_result_batch(std::move(batch), slot.outstanding,
                                     outcomes, &committed);
        } catch (const wire::Error& e) {
          // apply_result_batch applies atomically - a throwing batch
          // committed nothing, so every outstanding cell re-queues.
          lose(slot, std::string("malformed results: ") + e.what());
          return false;
        }
        resolved += fresh.size();
        for (const std::size_t index : fresh) {
          if (commit_hook_) {
            commit_hook_(index, outcomes[index]);
          }
        }
        for (const std::size_t index : slot.outstanding) {
          if (inflight[index] > 0) {
            --inflight[index];
          }
        }
        slot.outstanding.clear();
        dispatch(slot);
      }
    };

    // --- bring the pool up ---
    for (Slot& slot : slots) {
      if (slot.alive()) {
        admit(slot);
      } else {
        // Lost before the sweep began: a failed fork, or a TCP endpoint
        // that died in an earlier sweep.  The revive timer gives it the
        // same re-admission path as a mid-sweep loss.
        schedule_revive(slot);
      }
    }

    // --- deal, stream, steal, recover, re-admit ---
    for (;;) {
      if (resolved == total) {
        // Every outcome is final.  A straggler may still owe a batch
        // whose cells a thief answered; its stale frames are flushed
        // while waiting for the next sweep's ack.
        break;
      }
      bool pending = false;
      for (const Slot& slot : slots) {
        if (slot.alive() || slot.connecting || slot.revive_scheduled) {
          pending = true;
          break;
        }
      }
      if (!pending) {
        break;  // nothing can ever change: fail the leftovers below
      }

      // Hand out work (a loss above may have re-queued cells while other
      // workers sat idle), then let anyone still idle steal a tail.
      for (Slot& slot : slots) {
        dispatch(slot);
      }
      for (Slot& slot : slots) {
        steal_for(slot);
      }

      std::vector<pollfd> fds;
      std::vector<Slot*> fd_slot;
      for (Slot& slot : slots) {
        if (slot.connecting) {
          fds.push_back(pollfd{slot.worker->fd(), POLLOUT, 0});
          fd_slot.push_back(&slot);
        } else if (slot.alive() &&
                   (slot.awaiting_ack || !slot.outstanding.empty())) {
          fds.push_back(pollfd{slot.worker->fd(), POLLIN, 0});
          fd_slot.push_back(&slot);
        }
      }

      // Sleep until traffic, the nearest handshake deadline, or the
      // nearest revive timer.
      const auto now = Clock::now();
      int timeout_ms = -1;
      for (const Slot& slot : slots) {
        if (slot.awaiting_ack) {
          const int t = ms_until(now, slot.ack_deadline);
          timeout_ms = timeout_ms < 0 ? t : std::min(timeout_ms, t);
        }
        if (slot.revive_scheduled) {
          const int t = ms_until(now, slot.revive_at);
          timeout_ms = timeout_ms < 0 ? t : std::min(timeout_ms, t);
        }
      }
      if (fds.empty() && timeout_ms < 0) {
        break;  // defensive: nothing to wait on
      }

      if (io::poll_retry(fds.data(), fds.size(), timeout_ms) < 0) {
        for (Slot& slot : slots) {
          retire_slot(slot);
        }
        throw std::runtime_error("dispatch: poll() failed");
      }

      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (fds[k].revents == 0) {
          continue;
        }
        Slot& slot = *fd_slot[k];
        if (slot.connecting) {
          finish_revive(slot);
          continue;
        }
        if (!slot.alive()) {
          continue;  // lost while handling an earlier fd this round
        }
        // On EOF or a read error, an ack or answers may still be whole in
        // the buffer (sent, then died): take them before the hang-up.
        const bool open = slot.worker->receive();
        if (slot.awaiting_ack) {
          if (!check_ack(slot) && !open) {
            refuse(slot, "connection closed before the ack",
                   /*revivable=*/true);
          }
        } else if (collect(slot) && !open && slot.alive()) {
          if (slot.outstanding.empty()) {
            // Clean EOF between batches.
            retire_slot(slot);
            schedule_revive(slot);
          } else {
            lose(slot, "connection closed");
          }
        }
      }

      const auto tick = Clock::now();
      for (Slot& slot : slots) {
        if (slot.awaiting_ack && tick >= slot.ack_deadline) {
          refuse(slot,
                 "no handshake answer within " +
                     std::to_string(options_.handshake_timeout_ms) +
                     " ms (worker hung, or not speaking the protocol)",
                 /*revivable=*/true);
        }
      }
      for (Slot& slot : slots) {
        if (slot.revive_scheduled && tick >= slot.revive_at) {
          attempt_revive(slot);
        }
      }
    }

    // Anything still queued could not be placed (every worker is gone and
    // none could be revived).
    for (const std::size_t index : queue) {
      outcomes[index].error = "no worker remaining to evaluate this cell";
    }
    // Abandon half-finished revives and half-done handshakes: an
    // unanswered Hello would leave the connection in an indeterminate
    // protocol state (its late ack would shadow the next sweep's), so
    // close it - a persistent lane re-admits the worker next run with a
    // clean reconnect.
    for (Slot& slot : slots) {
      if (slot.connecting || slot.awaiting_ack) {
        retire_slot(slot);
      }
    }
  } catch (...) {
    for (Lane* lane : lanes_) {
      lane->finish();
    }
    throw;
  }

  for (Lane* lane : lanes_) {
    lane->finish();
  }
  return result;
}

}  // namespace rbx
