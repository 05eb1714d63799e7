//===- perfbench/src/Host.cpp - Process and machine readings --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::string procPath(pid_t Pid, const char *Leaf) {
  return Pid ? "/proc/" + std::to_string(Pid) + "/" + Leaf
             : std::string("/proc/self/") + Leaf;
}

} // namespace

double peakRssMb(pid_t Pid) {
  std::ifstream In(procPath(Pid, "status"));
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0) {
      double Kb = std::strtod(Line.c_str() + 6, nullptr);
      return Kb * 1024.0 / 1e6;
    }
  }
  return -1.0;
}

double cpuSeconds(pid_t Pid) {
  if (!Pid) {
    rusage U{};
    if (getrusage(RUSAGE_SELF, &U) != 0)
      return -1.0;
    return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
           static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
  }
  std::ifstream In(procPath(Pid, "stat"));
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  std::size_t Close = All.rfind(')');
  if (Close == std::string::npos)
    return -1.0;
  std::istringstream Fields(All.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (unsigned I = 1; Fields >> Field; ++I) {
    if (I == 12)
      UTime = std::stoull(Field);
    if (I == 13) {
      STime = std::stoull(Field);
      break;
    }
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  unsigned long long Field[8] = {};
  In >> Cpu;
  for (unsigned long long &F : Field)
    In >> F;
  if (!In || Cpu != "cpu")
    return 0.0;
  // user nice system idle iowait irq softirq steal
  return static_cast<double>(Field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double loadAverage1() {
  double L[1];
  return getloadavg(L, 1) == 1 ? L[0] : -1.0;
}

unsigned processorCount() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

} // namespace perfbench
