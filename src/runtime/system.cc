#include "runtime/system.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/channel.h"
#include "runtime/checkpoint.h"
#include "runtime/event_log.h"
#include "runtime/recovery_block.h"
#include "runtime/serializable.h"
#include "support/check.h"
#include "support/rng.h"
#include "trace/prp_plan.h"
#include "trace/recovery_line.h"
#include "trace/rollback.h"

namespace rbx {

namespace {

// Generous bound on commit-wait polling (1 ms each): a healthy commit
// completes in a few polls; hitting the bound marks the run incomplete
// instead of hanging the test suite.
constexpr std::size_t kMaxCommitPolls = 30000;

// Per-worker counters, merged into the report after the join.
struct WorkerStats {
  std::size_t messages_sent = 0;
  std::size_t messages_applied = 0;
  std::size_t fifo_violations = 0;
  std::size_t rps = 0;
  std::size_t prps = 0;
  std::size_t implant_commits = 0;
  std::size_t rb_executions = 0;
  std::size_t rb_local_rollbacks = 0;
  std::size_t at_failures = 0;
  std::size_t purged = 0;
  std::size_t sync_lines = 0;
  std::size_t sync_aborts = 0;
  std::size_t recoveries_started = 0;
  RunningStats sync_wait_polls;
};

}  // namespace

struct RecoverySystem::Impl {
  explicit Impl(RuntimeConfig config)
      : cfg(config), log(config.num_processes) {
    RBX_CHECK(cfg.num_processes >= 2);
    RBX_CHECK(cfg.rp_probability > 0.0 && cfg.rp_probability <= 1.0);
    Rng master(cfg.seed);
    workers.reserve(cfg.num_processes);
    for (ProcessId p = 0; p < cfg.num_processes; ++p) {
      workers.push_back(std::make_unique<Worker>(p, master.split(),
                                                 cfg.num_processes));
    }
  }

  struct Worker {
    Worker(ProcessId pid, Rng r, std::size_t n)
        : id(pid), rng(r), store(pid), send_seq(n, 0), last_seen_seq(n, 0) {}

    ProcessId id;
    Rng rng;
    WorkState state;
    CheckpointStore store;
    Mailbox inbox;
    std::vector<std::uint64_t> send_seq;       // per destination
    std::vector<std::uint64_t> last_seen_seq;  // per sender (FIFO check)
    std::size_t steps_done = 0;
    bool alternate_bad = false;  // acceptance-test channel for the local RB
    // Synchronized scheme state.
    std::vector<std::uint64_t> pending_lines;
    std::map<std::uint64_t, std::uint64_t> ready_mask;  // line -> sender bits
    std::set<std::uint64_t> failed_lines;
    std::atomic<std::uint64_t> last_line_ticket{0};
    WorkerStats stats;
  };

  RuntimeConfig cfg;
  EventLog log;
  std::vector<std::unique_ptr<Worker>> workers;

  // --- pause / park control (asynchronous and PRP schemes) ---
  std::mutex control_mu;
  std::condition_variable control_cv;
  bool pause = false;                    // guarded by control_mu
  std::size_t parked = 0;                // guarded by control_mu
  std::uint64_t resume_gen = 0;          // guarded by control_mu
  std::atomic<bool> pause_hint{false};   // lock-free fast path
  std::mutex recovery_mu;                // serializes coordinators

  std::atomic<std::size_t> done_count{0};
  std::atomic<bool> shutdown{false};
  std::atomic<std::uint64_t> next_line_id{1};

  // Report fields shared across threads.
  std::atomic<bool> line_consistency_ok{true};
  std::atomic<bool> restore_ok{true};
  std::atomic<bool> completed_ok{true};
  std::atomic<std::size_t> orphans_dropped{0};
  std::atomic<std::size_t> domino_restarts{0};
  std::mutex recovery_stats_mu;
  RunningStats rollback_tickets;        // guarded by recovery_stats_mu
  RunningStats affected_processes;      // guarded by recovery_stats_mu
  std::size_t recoveries = 0;           // guarded by recovery_stats_mu

  // ------------------------------------------------------------------
  // Common helpers
  // ------------------------------------------------------------------

  void broadcast(Worker& w, MessageType type, std::uint64_t tag) {
    for (auto& peer : workers) {
      if (peer->id == w.id) {
        continue;
      }
      Message m;
      m.type = type;
      m.sender = w.id;
      m.tag = tag;
      m.send_ticket = 0;  // control traffic is never orphan-filtered
      peer->inbox.push(m);
    }
  }

  void send_app_message(Worker& w) {
    ProcessId peer = w.rng.uniform_index(cfg.num_processes - 1);
    if (peer >= w.id) {
      ++peer;
    }
    Message m;
    m.type = MessageType::kApp;
    m.sender = w.id;
    m.seq = ++w.send_seq[peer];
    m.send_ticket = log.now();
    m.payload = w.state.digest();
    workers[peer]->inbox.push(m);
    ++w.stats.messages_sent;
  }

  void apply_app_message(Worker& w, const Message& m) {
    // FIFO verification (consistent-communication assumption A4).  A
    // rollback legitimately rewinds the expectation, so the counter is
    // reset on restore; anything else must be monotone.
    if (m.seq <= w.last_seen_seq[m.sender]) {
      ++w.stats.fifo_violations;
    }
    w.last_seen_seq[m.sender] = m.seq;
    w.state.apply_message(m.payload);
    log.log_interaction(w.id, m.sender);
    ++w.stats.messages_applied;
  }

  // Copies the pending inbox without consuming it (single-consumer safe:
  // only the owner thread calls this).
  std::vector<Message> peek_inbox(Worker& w) {
    std::vector<Message> batch = w.inbox.drain_all();
    w.inbox.push_front_batch(batch);
    return batch;
  }

  void record_prp(Worker& w, ProcessId owner, std::uint64_t owner_seq) {
    Snapshot snap;
    snap.kind = SnapshotKind::kPseudoRecoveryPoint;
    snap.rp_owner = owner;
    snap.rp_seq = owner_seq;
    snap.state = w.state.serialize();
    snap.retained_inbox = peek_inbox(w);
    snap.ticket = log.log_prp(w.id, owner, owner_seq);
    w.store.save(std::move(snap));
    w.stats.purged += w.store.purge();
    ++w.stats.prps;
    // Commitment C_i' back to the RP's owner (Section 4 step 2).
    Message c;
    c.type = MessageType::kImplantCommit;
    c.sender = w.id;
    c.tag = owner_seq;
    workers[owner]->inbox.push(c);
  }

  // Establishes a recovery point for w (acceptance test already passed).
  std::uint64_t record_rp(Worker& w, std::vector<Message> retained) {
    std::uint64_t seq = 0;
    Snapshot snap;
    snap.kind = SnapshotKind::kRecoveryPoint;
    snap.rp_owner = w.id;
    snap.state = w.state.serialize();
    snap.retained_inbox = std::move(retained);
    snap.ticket = log.log_recovery_point(w.id, &seq);
    snap.rp_seq = seq;
    w.store.save(std::move(snap));
    ++w.stats.rps;
    if (cfg.scheme == SchemeKind::kPseudoRecoveryPoints) {
      broadcast(w, MessageType::kImplantRequest, seq);
      w.stats.purged += w.store.purge();
    }
    return seq;
  }

  // The local sequential recovery block (primary + alternates).  Returns
  // false when every alternative failed its acceptance test.
  bool run_recovery_block(Worker& w) {
    ++w.stats.rb_executions;
    RecoveryBlock rb([&w](const Serializable&) { return !w.alternate_bad; });
    for (std::size_t a = 0; a < cfg.rb_alternates; ++a) {
      rb.add_alternative([this, &w, a](Serializable& s) {
        auto& ws = static_cast<WorkState&>(s);
        ws.step(w.id + 1000 * (a + 1));
        w.alternate_bad =
            w.rng.bernoulli(cfg.alternate_failure_probability);
      });
    }
    const auto outcome = rb.execute(w.state);
    if (outcome) {
      w.stats.rb_local_rollbacks += outcome->rollbacks;
      return true;
    }
    w.stats.rb_local_rollbacks += cfg.rb_alternates;
    return false;
  }

  // ------------------------------------------------------------------
  // Pause / park machinery (async + PRP recovery)
  // ------------------------------------------------------------------

  void maybe_park(Worker& w) {
    if (!pause_hint.load(std::memory_order_relaxed)) {
      return;
    }
    std::unique_lock lock(control_mu);
    if (!pause) {
      return;
    }
    ++parked;
    control_cv.notify_all();
    const std::uint64_t gen = resume_gen;
    control_cv.wait(lock, [this, gen] { return resume_gen != gen; });
    --parked;
    control_cv.notify_all();  // a next coordinator waits for parked == 0
    static_cast<void>(w);
  }

  // ------------------------------------------------------------------
  // Global recovery (asynchronous and PRP schemes)
  // ------------------------------------------------------------------

  // Rebuilds w's inbox from the retained messages of the restored snapshot
  // followed by the traffic queued at recovery time.  Retained entries are
  // *copies* of messages that may still sit in the queue (or may have been
  // superseded by later recoveries), so delivery is re-sequenced: per
  // sender, only monotonically increasing sequence numbers survive -
  // duplicates and stale replays are dropped and counted with the orphans.
  void rebuild_inbox(Worker& w, const Snapshot* snap,
                     std::vector<Message> current_inbox) {
    std::vector<Message> merged;
    if (snap != nullptr) {
      merged.insert(merged.end(), snap->retained_inbox.begin(),
                    snap->retained_inbox.end());
    }
    merged.insert(merged.end(), current_inbox.begin(), current_inbox.end());

    std::vector<std::uint64_t> emitted(cfg.num_processes, 0);
    std::size_t dropped = 0;
    for (const Message& m : merged) {
      if (m.type == MessageType::kApp) {
        if (m.seq <= emitted[m.sender]) {
          ++dropped;
          continue;
        }
        emitted[m.sender] = m.seq;
      }
      w.inbox.push(m);
    }
    orphans_dropped.fetch_add(dropped);
    // Rollback rewinds message streams: reset the FIFO expectations.
    for (auto& s : w.last_seen_seq) {
      s = 0;
    }
  }

  void restore_worker(Worker& w, const Snapshot* snap,
                      std::vector<Message> current_inbox) {
    if (snap != nullptr) {
      w.state.deserialize(snap->state);
      if (w.state.serialize() != snap->state) {
        restore_ok.store(false);
      }
    } else {
      w.state = WorkState{};
      domino_restarts.fetch_add(1);
    }
    rebuild_inbox(w, snap, std::move(current_inbox));
  }

  void handle_global_failure(Worker& w) {
    ++w.stats.at_failures;
    if (recovery_mu.try_lock()) {
      coordinate_recovery(w);
      recovery_mu.unlock();
    } else {
      // Another thread is coordinating; park and let it restore us.
      maybe_park(w);
    }
  }

  void coordinate_recovery(Worker& w) {
    ++w.stats.recoveries_started;
    std::uint64_t t_f = 0;
    {
      std::unique_lock lock(control_mu);
      // Workers the previous recovery parked may not have woken yet; were
      // they counted as parked for this one, their state would be restored
      // while they run.  The failure time is read once they have left, so
      // what they did after that resume precedes it in the history.
      control_cv.wait(lock, [this] { return parked == 0; });
      t_f = log.now();
      pause = true;
      pause_hint.store(true, std::memory_order_relaxed);
    }
    control_cv.notify_all();
    {
      std::unique_lock lock(control_mu);
      control_cv.wait(lock, [this] {
        return parked == cfg.num_processes - 1;
      });
    }
    // Every other worker is parked: their state, stores and mailboxes are
    // safe to touch until resume.
    const History history = log.snapshot();
    const std::size_t n = cfg.num_processes;
    std::vector<const Snapshot*> restore_to(n, nullptr);
    std::vector<bool> affected(n, false);
    std::vector<std::uint64_t> restart_ticket(n, t_f);
    double sup_distance = 0.0;
    std::size_t affected_count = 0;

    auto resolve = [&](ProcessId q, const RestartPoint& pt) {
      affected[q] = true;
      ++affected_count;
      if (pt.is_initial) {
        restore_to[q] = nullptr;
        restart_ticket[q] = 0;
      } else {
        const auto ticket = static_cast<std::uint64_t>(pt.time);
        const Snapshot* snap = workers[q]->store.by_ticket(ticket);
        if (snap == nullptr) {
          // Purged beyond reach (possible in deep PRP pointer loops):
          // restart from scratch, loudly counted as a domino restart.
          restore_to[q] = nullptr;
          restart_ticket[q] = 0;
        } else {
          restore_to[q] = snap;
          restart_ticket[q] = ticket;
        }
      }
      sup_distance = std::max(
          sup_distance, static_cast<double>(t_f) -
                            static_cast<double>(restart_ticket[q]));
    };

    if (cfg.scheme == SchemeKind::kAsynchronous) {
      RollbackAnalyzer analyzer(history);
      const RollbackResult plan =
          analyzer.analyze_failure(w.id, static_cast<double>(t_f));
      if (!RecoveryLineFinder(history).is_consistent(plan.line)) {
        line_consistency_ok.store(false);
      }
      for (ProcessId q = 0; q < n; ++q) {
        if (plan.affected[q]) {
          resolve(q, plan.line.points[q]);
        }
      }
    } else {
      PrpRollbackPlanner planner(history, !cfg.scoped_prp);
      // The runtime cannot know whether the error was local; it runs the
      // paper's general pointer loop.
      const PrpRollbackResult plan =
          planner.plan(w.id, static_cast<double>(t_f));
      for (ProcessId q = 0; q < n; ++q) {
        if (plan.affected[q]) {
          resolve(q, plan.restart[q]);
        }
      }
    }

    // Apply restores, then filter orphan messages everywhere: a message is
    // an orphan when its send postdates the sender's restart point.
    for (ProcessId q = 0; q < n; ++q) {
      if (affected[q]) {
        std::vector<Message> current = workers[q]->inbox.drain_all();
        restore_worker(*workers[q], restore_to[q], std::move(current));
      }
    }
    for (ProcessId q = 0; q < n; ++q) {
      const std::size_t dropped = workers[q]->inbox.filter(
          [&restart_ticket](const Message& m) {
            return m.type == MessageType::kApp &&
                   m.send_ticket > restart_ticket[m.sender];
          });
      orphans_dropped.fetch_add(dropped);
    }

    {
      const std::scoped_lock lock(recovery_stats_mu);
      ++recoveries;
      rollback_tickets.add(sup_distance);
      affected_processes.add(static_cast<double>(affected_count));
    }

    {
      const std::scoped_lock lock(control_mu);
      pause = false;
      pause_hint.store(false, std::memory_order_relaxed);
      ++resume_gen;
    }
    control_cv.notify_all();
  }

  // ------------------------------------------------------------------
  // Asynchronous / PRP worker
  // ------------------------------------------------------------------

  void drain_inbox_async(Worker& w) {
    while (auto m = w.inbox.try_pop()) {
      switch (m->type) {
        case MessageType::kApp:
          apply_app_message(w, *m);
          break;
        case MessageType::kImplantRequest:
          record_prp(w, m->sender, m->tag);
          break;
        case MessageType::kImplantCommit:
          ++w.stats.implant_commits;
          break;
        default:
          break;  // control messages of other schemes: ignore
      }
    }
  }

  void async_worker_main(Worker& w) {
    while (w.steps_done < cfg.steps &&
           !shutdown.load(std::memory_order_relaxed)) {
      maybe_park(w);
      drain_inbox_async(w);
      w.state.step(w.id);
      ++w.steps_done;
      if (w.rng.bernoulli(cfg.message_probability)) {
        send_app_message(w);
      }
      if (w.rng.bernoulli(cfg.rp_probability)) {
        const bool rb_ok = run_recovery_block(w);
        const bool at_fails =
            !rb_ok || w.rng.bernoulli(cfg.at_failure_probability);
        if (at_fails) {
          handle_global_failure(w);
        } else {
          record_rp(w, peek_inbox(w));
        }
      }
    }
    if (done_count.fetch_add(1) + 1 == cfg.num_processes) {
      shutdown.store(true);
    }
    while (!shutdown.load(std::memory_order_relaxed)) {
      maybe_park(w);
      drain_inbox_async(w);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Shutdown implies every worker finished its steps, so no further
    // sends: one final drain delivers everything still queued.
    drain_inbox_async(w);
  }

  // ------------------------------------------------------------------
  // Synchronized worker (Section 3 commit protocol)
  // ------------------------------------------------------------------

  void service_messages_sync(Worker& w) {
    while (auto m = w.inbox.try_pop()) {
      switch (m->type) {
        case MessageType::kApp:
          apply_app_message(w, *m);
          break;
        case MessageType::kSyncRequest:
          w.pending_lines.push_back(m->tag);
          break;
        case MessageType::kSyncReady:
          w.ready_mask[m->tag] |= std::uint64_t{1} << m->sender;
          break;
        case MessageType::kSyncFailed:
          w.failed_lines.insert(m->tag);
          break;
        default:
          break;
      }
    }
  }

  void abort_line(Worker& w, std::uint64_t line,
                  std::vector<Message> recorded) {
    static_cast<void>(line);
    ++w.stats.sync_aborts;
    // Restore the previous recovery line's snapshot (or the initial state),
    // replaying its retained messages ahead of the traffic recorded during
    // the aborted commit and whatever else is queued.
    const Snapshot* snap = w.store.latest_rp();
    if (snap != nullptr) {
      w.state.deserialize(snap->state);
      if (w.state.serialize() != snap->state) {
        restore_ok.store(false);
      }
    } else {
      w.state = WorkState{};
      domino_restarts.fetch_add(1);
    }
    std::vector<Message> current = std::move(recorded);
    const std::vector<Message> rest = w.inbox.drain_all();
    current.insert(current.end(), rest.begin(), rest.end());
    rebuild_inbox(w, snap, std::move(current));
    // Orphan filtering uses the committed line tickets of every sender.
    const std::size_t dropped =
        w.inbox.filter([this](const Message& m) {
          return m.type == MessageType::kApp &&
                 m.send_ticket >
                     workers[m.sender]->last_line_ticket.load(
                         std::memory_order_relaxed);
        });
    orphans_dropped.fetch_add(dropped);
  }

  void commit_line(Worker& w, std::uint64_t line) {
    // Step 1: execute the normal process until the next acceptance test.
    // The number of extra work steps is geometric in rp_probability, the
    // discrete analogue of the exponential y_i of the model.
    while (!w.rng.bernoulli(cfg.rp_probability)) {
      w.state.step(w.id);
      if (w.rng.bernoulli(cfg.message_probability)) {
        send_app_message(w);
      }
    }

    // The acceptance test at the test line.
    const bool rb_ok = run_recovery_block(w);
    if (!rb_ok || w.rng.bernoulli(cfg.at_failure_probability)) {
      ++w.stats.at_failures;
      ++w.stats.recoveries_started;
      broadcast(w, MessageType::kSyncFailed, line);
      abort_line(w, line, {});
      return;
    }

    // Step 2: set and broadcast P_ii-ready.
    std::uint64_t mask = w.ready_mask[line] | (std::uint64_t{1} << w.id);
    broadcast(w, MessageType::kSyncReady, line);

    // Step 3: wait for all commitments, recording application messages.
    const std::uint64_t all_mask =
        (std::uint64_t{1} << cfg.num_processes) - 1;
    std::vector<Message> recorded;
    std::size_t polls = 0;
    while (mask != all_mask && w.failed_lines.count(line) == 0) {
      const auto m = w.inbox.pop_wait(std::chrono::milliseconds(1));
      ++polls;
      if (polls > kMaxCommitPolls) {
        completed_ok.store(false);
        break;
      }
      if (!m) {
        continue;
      }
      switch (m->type) {
        case MessageType::kApp:
          recorded.push_back(*m);  // record, do not process (paper step 3)
          break;
        case MessageType::kSyncReady:
          if (m->tag == line) {
            mask |= std::uint64_t{1} << m->sender;
          } else {
            w.ready_mask[m->tag] |= std::uint64_t{1} << m->sender;
          }
          break;
        case MessageType::kSyncFailed:
          w.failed_lines.insert(m->tag);
          break;
        case MessageType::kSyncRequest:
          w.pending_lines.push_back(m->tag);
          break;
        default:
          break;
      }
    }
    w.stats.sync_wait_polls.add(static_cast<double>(polls));
    w.ready_mask.erase(line);

    if (w.failed_lines.count(line) != 0) {
      abort_line(w, line, std::move(recorded));
      return;
    }
    if (mask != all_mask) {
      return;  // poll bound hit; run marked incomplete
    }

    // Step 4: acceptance passed everywhere - record the process state.
    // The recorded messages are retained in the saved state.
    std::uint64_t seq = 0;
    Snapshot snap;
    snap.kind = SnapshotKind::kRecoveryPoint;
    snap.rp_owner = w.id;
    snap.state = w.state.serialize();
    snap.retained_inbox = recorded;
    snap.ticket = log.log_recovery_point(w.id, &seq);
    snap.rp_seq = seq;
    w.last_line_ticket.store(snap.ticket, std::memory_order_relaxed);
    w.store.save(std::move(snap));
    w.stats.purged += w.store.purge();
    ++w.stats.rps;
    if (w.id == 0) {
      ++w.stats.sync_lines;
    }

    // Now process what was recorded during the wait.
    for (const Message& m : recorded) {
      apply_app_message(w, m);
    }
  }

  void sync_worker_main(Worker& w) {
    while (w.steps_done < cfg.steps &&
           !shutdown.load(std::memory_order_relaxed)) {
      service_messages_sync(w);
      if (!w.pending_lines.empty()) {
        const std::uint64_t line = w.pending_lines.front();
        w.pending_lines.erase(w.pending_lines.begin());
        commit_line(w, line);
        continue;
      }
      w.state.step(w.id);
      ++w.steps_done;
      if (w.rng.bernoulli(cfg.message_probability)) {
        send_app_message(w);
      }
      if (w.id == 0 && w.steps_done % cfg.sync_period_steps == 0) {
        const std::uint64_t line = next_line_id.fetch_add(1);
        broadcast(w, MessageType::kSyncRequest, line);
        w.pending_lines.push_back(line);
      }
    }
    done_count.fetch_add(1);
    if (w.id == 0) {
      // The request issuer drains its own pending commits, waits for
      // everyone to finish, then declares shutdown (no new requests can
      // exist afterwards - only P0 creates them).
      while (!w.pending_lines.empty() ||
             done_count.load() < cfg.num_processes) {
        service_messages_sync(w);
        if (!w.pending_lines.empty()) {
          const std::uint64_t line = w.pending_lines.front();
          w.pending_lines.erase(w.pending_lines.begin());
          commit_line(w, line);
          continue;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      shutdown.store(true);
    } else {
      while (!shutdown.load(std::memory_order_relaxed)) {
        service_messages_sync(w);
        if (!w.pending_lines.empty()) {
          const std::uint64_t line = w.pending_lines.front();
          w.pending_lines.erase(w.pending_lines.begin());
          commit_line(w, line);
          continue;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // No sends can follow shutdown: deliver the stragglers.
    service_messages_sync(w);
  }

  // ------------------------------------------------------------------

  RuntimeReport run() {
    {
      std::vector<std::jthread> threads;
      threads.reserve(cfg.num_processes);
      for (auto& worker : workers) {
        Worker* w = worker.get();
        if (cfg.scheme == SchemeKind::kSynchronized) {
          threads.emplace_back([this, w] { sync_worker_main(*w); });
        } else {
          threads.emplace_back([this, w] { async_worker_main(*w); });
        }
      }
      // jthread joins on scope exit.
    }

    RuntimeReport report;
    for (const auto& worker : workers) {
      const WorkerStats& s = worker->stats;
      report.messages_sent += s.messages_sent;
      report.messages_applied += s.messages_applied;
      report.fifo_violations += s.fifo_violations;
      report.rps += s.rps;
      report.prps += s.prps;
      report.implant_commits += s.implant_commits;
      report.rb_executions += s.rb_executions;
      report.rb_local_rollbacks += s.rb_local_rollbacks;
      report.at_failures += s.at_failures;
      report.purged_snapshots += s.purged;
      report.sync_lines += s.sync_lines;
      report.sync_aborts += s.sync_aborts;
      report.sync_wait_polls.merge(s.sync_wait_polls);
      report.snapshots_retained += worker->store.count();
      report.snapshot_bytes += worker->store.total_bytes();
    }
    {
      const std::scoped_lock lock(recovery_stats_mu);
      report.recoveries = recoveries;
      report.rollback_tickets = rollback_tickets;
      report.affected_processes = affected_processes;
    }
    if (cfg.scheme == SchemeKind::kSynchronized) {
      // Sync recoveries are distributed aborts: count each aborted line
      // once, at the process whose acceptance test failed.
      std::size_t aborted_lines = 0;
      for (const auto& worker : workers) {
        aborted_lines += worker->stats.recoveries_started;
      }
      report.recoveries = aborted_lines;
    }
    report.orphan_messages_dropped = orphans_dropped.load();
    report.domino_restarts = domino_restarts.load();
    report.line_consistency_verified = line_consistency_ok.load();
    report.restore_verified = restore_ok.load();
    report.completed = completed_ok.load();
    return report;
  }
};

RecoverySystem::RecoverySystem(RuntimeConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

RecoverySystem::~RecoverySystem() = default;

RuntimeReport RecoverySystem::run() { return impl_->run(); }

}  // namespace rbx
