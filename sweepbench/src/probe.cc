#include "probe.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sweepbench {

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The numeric value following `key` on its line ("VmHWM:   1234 kB").
std::uint64_t field_after(const std::string& text, const char* key,
                          const std::string& path) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error(std::string("no ") + key + " in " + path);
  }
  return std::stoull(text.substr(at + std::strlen(key)));
}

}  // namespace

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

double proc_cpu_s(pid_t pid) {
  const std::string path = proc_path(pid, "stat");
  const std::string text = read_text(path);
  // Fields after the parenthesised command name (which may hold spaces):
  // state is field 3, utime field 14, stime field 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("malformed " + path);
  }
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int k = 3; k <= 15 && rest >> field; ++k) {
    if (k == 14) {
      utime = std::stoull(field);
    } else if (k == 15) {
      stime = std::stoull(field);
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double host_steal_s() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream in(read_text("/proc/stat"));
  std::string label;
  unsigned long long field[8] = {};
  in >> label;
  for (unsigned long long& f : field) {
    in >> f;
  }
  if (label != "cpu" || !in) {
    throw std::runtime_error("malformed /proc/stat");
  }
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  const std::string path = proc_path(pid, "status");
  return static_cast<double>(field_after(read_text(path), "VmHWM:", path)) /
         1024.0;
}

IoCounters io_counters(pid_t pid) {
  const std::string path = proc_path(pid, "io");
  const std::string text = read_text(path);
  return IoCounters{field_after(text, "rchar:", path),
                    field_after(text, "wchar:", path)};
}

}  // namespace sweepbench
