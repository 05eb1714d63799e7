//===- perfbench/src/Host.h - Process and machine readings ----------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Readings the benchmark takes from the operating system: a process's
/// peak resident set (VmHWM), its CPU seconds, the machine's processor
/// count and load average. Load and CPU readings let a run starved by a
/// shared machine be told apart from a program that serializes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <sys/types.h>

namespace perfbench {

/// VmHWM of \p Pid (0 = this process) in MB (10^6 bytes); -1 if unknown.
double peakRssMb(pid_t Pid = 0);

/// User + system CPU seconds consumed so far by \p Pid (0 = this
/// process, all threads); -1 if unknown.
double cpuSeconds(pid_t Pid = 0);

/// One-minute load average; -1 if unknown.
double loadAverage1();

/// Machine-wide CPU time stolen by the hypervisor so far, in seconds
/// summed over processors (the steal column of /proc/stat); 0 where the
/// kernel does not report it.
double stealSeconds();

/// Online processors.
unsigned processorCount();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
