// Process-level measurements read from the kernel: CPU time, peak
// resident memory and I/O byte counters, for this process or a child
// daemon.  Linux only (/proc).
#pragma once

#include <cstdint>
#include <sys/types.h>

namespace sweepbench {

// User + system CPU seconds of this process, all threads (getrusage).
double self_cpu_s();
// User + system CPU seconds of process `pid` from /proc/<pid>/stat (clock
// tick resolution).  Throws std::runtime_error when unreadable.
double proc_cpu_s(pid_t pid);
// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.  Throws
// std::runtime_error when unreadable.
double peak_rss_mb(pid_t pid = 0);

// Seconds of CPU time the hypervisor took from this machine's vCPUs
// (the "steal" column of /proc/stat, all CPUs summed).  Throws
// std::runtime_error when unreadable.
double host_steal_s();

struct IoCounters {
  std::uint64_t rchar = 0;  // bytes read through read()-like calls
  std::uint64_t wchar = 0;  // bytes written through write()-like calls
};
// /proc/<pid>/io counters of `pid` (0 = this process).  rchar counts
// read() on sockets and files alike; wchar counts write() but not send(),
// which is how the library writes to sockets - so bytes a process sends
// show up as the receiving process's rchar.
IoCounters io_counters(pid_t pid = 0);

}  // namespace sweepbench
